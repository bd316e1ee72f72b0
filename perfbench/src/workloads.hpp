// The benchmark's workloads and the batch that runs one of them.
//
// A batch builds a fresh structure from the seed, runs it for a fixed
// simulated duration through harness::run_workload as fast as the host
// allows (a closed batch on the host side), checks the outputs, and returns
// both the deterministic simulated outputs and the host times.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Workload {
  const char* name = "";
  bool kv = false;            // ShardedKv service traffic, else the RB tree
  int threads = 0;            // simulated threads
  unsigned n_cores = 0;       // simulated machine: n_cores x smt_per_core
  unsigned smt_per_core = 0;
  const char* lock = "";      // "mcs" or "ttas" (RB tree only)
  const char* policy = "";    // locks::ElisionPolicy::parse spec
  double duration_sec = 0;    // simulated seconds per batch
  // RB tree.
  std::size_t tree_size = 0;  // keys prefilled, from a domain of 2 * tree_size
  int update_pct = 0;         // split evenly between inserts and deletes
  // KV service.
  int shards = 0;
  std::size_t keys = 0;       // key domain [0, keys), half prefilled
  double zipf_theta = 0;
  double requests_per_sec = 0;  // open-loop offered load, simulated time
  int put_pct = 0, multi_put_pct = 0, transfer_pct = 0;  // remainder: gets
  int multi_put_keys = 0;
};

const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

// Deterministic simulated outputs of one batch: identical for a given
// (workload, seed) in every batch, process and host.
struct Outputs {
  std::uint64_t ops = 0, spec_ops = 0, nonspec_ops = 0, attempts = 0;
  std::uint64_t elapsed_cycles = 0;
  double ghz = 0;
  std::uint64_t tx_begins = 0, tx_commits = 0, tx_aborts = 0;
  std::uint64_t abort_conflict = 0, abort_capacity = 0, abort_pause = 0,
                abort_spurious = 0, abort_explicit = 0, abort_other = 0;
  // Latency from arrival to completion over all op kinds, in cycles. On the
  // closed-loop RB workloads an op arrives when its thread issues it.
  std::uint64_t latency_samples = 0, latency_p50 = 0, latency_p99 = 0,
                latency_p999 = 0;
  std::uint64_t final_size = 0;
  std::uint64_t final_checksum = 0;  // RB: sum of keys; KV: sum of values
  // Scheduler context switches up to the last completed op. Deterministic,
  // but a schedule optimisation may change it without changing any
  // simulated result, so it is not part of the output reference.
  std::uint64_t switches = 0;
  // KV only: arrival -> start and start -> completion p999, in cycles, and
  // the busiest shard's share of shard visits.
  std::uint64_t queue_p999 = 0, service_p999 = 0;
  double hot_shard_share = 0;

  double sim_seconds() const { return elapsed_cycles / (ghz * 1e9); }
  bool operator==(const Outputs&) const = default;
};

struct HostTimes {
  double build_s = 0;     // structure, prefill, free lists, traffic setup
  double start_s = 0;     // run_workload call -> first op
  double measured_s = 0;  // first op -> run_workload returns
  double setup_s() const { return build_s + start_s; }
};

struct BatchResult {
  Outputs out;
  HostTimes host;
  std::vector<std::string> errors;  // failed output checks
};

// Runs one batch. With a tracer, spans are recorded around every layer
// call (and the run_workload span frames the log).
BatchResult run_batch(const Workload& w, std::uint64_t seed, Tracer* tracer);

}  // namespace perfbench

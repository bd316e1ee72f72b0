// perfbench: runs one benchmark workload for a host-time budget and prints
// one JSON object (the last line of stdout) with the run's simulated
// outputs, output-check results, host fingerprint and metric values.
// perfbench/run.py builds this binary, compares the outputs against the
// reference and prints the benchmark's result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the layer-isolating loops, then alternates untraced and traced
// batches and reports the per-layer metrics, the traced/untraced speed
// ratio, and writes the last traced batch's spans to PATH.
#include <malloc.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "loops.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\nworkloads:",
               why);
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("--seed wants an unsigned integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0) || a.seconds > 600) {
        usage("--seconds wants a number in (0, 600]");
      }
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace wants 0 or 1");
      }
      a.trace = v[0] == '1';
    } else if (k == "--spans") {
      a.spans_path = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (find_workload(a.workload) == nullptr) usage("unknown --workload");
  return a;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Peak resident set of this process from VmHWM, which execve resets (the
// getrusage maximum carries over from the parent that forked us).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

// Items already in JSON form, as a JSON array.
std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) out += (i ? "," : "") + items[i];
  return out + "]";
}

// Ordered name -> number map printed as a JSON object.
class NumberMap {
 public:
  void set(const std::string& k, double v) { entries_.emplace_back(k, v); }
  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", entries_[i].second);
      out += (i ? "," : "") + json_string(entries_[i].first) + ":" + buf;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

NumberMap outputs_json(const Outputs& o) {
  NumberMap m;
  const auto u = [&](const char* k, std::uint64_t v) {
    m.set(k, static_cast<double>(v));
  };
  u("ops", o.ops);
  u("spec_ops", o.spec_ops);
  u("nonspec_ops", o.nonspec_ops);
  u("attempts", o.attempts);
  u("elapsed_cycles", o.elapsed_cycles);
  u("tx_begins", o.tx_begins);
  u("tx_commits", o.tx_commits);
  u("tx_aborts", o.tx_aborts);
  u("abort_conflict", o.abort_conflict);
  u("abort_capacity", o.abort_capacity);
  u("abort_pause", o.abort_pause);
  u("abort_spurious", o.abort_spurious);
  u("abort_explicit", o.abort_explicit);
  u("abort_other", o.abort_other);
  u("latency_samples", o.latency_samples);
  u("latency_p50", o.latency_p50);
  u("latency_p99", o.latency_p99);
  u("latency_p999", o.latency_p999);
  u("final_size", o.final_size);
  u("final_checksum", o.final_checksum);
  u("switches", o.switches);
  u("queue_p999", o.queue_p999);
  u("service_p999", o.service_p999);
  m.set("hot_shard_share", o.hot_shard_share);
  return m;
}

double ops_per_s(const BatchResult& b) {
  return ratio(static_cast<double>(b.out.ops), b.host.measured_s);
}

// Batches run until the host-time budget would be overrun by one more.
class Budget {
 public:
  explicit Budget(double seconds) : end_ns_(host_ns() + seconds * 1e9) {}
  bool room_for(double batch_s) const {
    return static_cast<double>(host_ns()) + batch_s * 1e9 <= end_ns_;
  }

 private:
  double end_ns_;
};

struct Run {
  // Peak resident set once set-up and the first full batch have run: what a
  // process running the workload once needs. Later batches can only add
  // allocator fragmentation, which varies from run to run.
  double peak_rss_mb = 0;
  std::vector<HostTimes> setups;
  std::vector<BatchResult> untraced, traced;
  std::vector<Buckets> buckets;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;

  // Folds a batch in: its output checks, and that its simulated outputs
  // equal the first batch's (the simulation is deterministic per seed).
  void add(BatchResult b, bool traced_batch) {
    const Outputs* first = !untraced.empty() ? &untraced.front().out
                           : !traced.empty() ? &traced.front().out
                                             : nullptr;
    if (first != nullptr && !(b.out == *first)) {
      b.errors.push_back("simulated outputs differ between batches");
    }
    attempted += b.out.ops;
    if (!b.errors.empty()) failed += b.out.ops;
    for (const auto& e : b.errors) note(e);
    (traced_batch ? traced : untraced).push_back(std::move(b));
  }
  // Records a failed check once, however many batches fail it.
  void note(const std::string& e) {
    if (std::find(errors.begin(), errors.end(), e) == errors.end()) errors.push_back(e);
  }
  const Outputs& out() const {
    return !untraced.empty() ? untraced.front().out : traced.front().out;
  }
};

void end_to_end(const Run& run, NumberMap* m) {
  std::vector<double> rate, setup;
  for (const auto& b : run.untraced) rate.push_back(ops_per_s(b));
  for (const HostTimes& h : run.setups) setup.push_back(h.setup_s());
  const Outputs& o = run.out();
  const auto ops = static_cast<double>(o.ops);
  m->set("sim_ops_per_s", median(rate));
  m->set("setup_s", median(setup));
  m->set("peak_rss_mb", run.peak_rss_mb);
  m->set("vtput_mops", ratio(ops, o.sim_seconds()) / 1e6);
  m->set("attempts_per_op", ratio(static_cast<double>(o.attempts), ops));
  m->set("p50_latency_cycles", static_cast<double>(o.latency_p50));
  m->set("p999_latency_cycles", static_cast<double>(o.latency_p999));
}

void per_layer(const Run& run, const double loops[4], NumberMap* m) {
  const Outputs& o = run.out();
  const auto ops = static_cast<double>(o.ops);
  const auto per_op = [&](std::uint64_t v) {
    return ratio(static_cast<double>(v), ops);
  };
  // Host-time metrics of the traced batches, as medians over batches.
  const auto traced = [&](auto&& f) {
    std::vector<double> v;
    for (const Buckets& b : run.buckets) v.push_back(f(b));
    return median(v);
  };
  const auto self = [](const Buckets& b, SpanName n) {
    return static_cast<double>(b.self_ns[static_cast<std::size_t>(n)]);
  };
  const auto calls = [](const Buckets& b, SpanName n) {
    return static_cast<double>(b.calls[static_cast<std::size_t>(n)]);
  };
  const auto share = [](const Buckets& b, std::uint64_t ns) {
    return ratio(static_cast<double>(ns), static_cast<double>(b.wall_ns));
  };
  constexpr SpanName kDs[] = {SpanName::kDsLookup, SpanName::kDsInsert,
                              SpanName::kDsErase};
  constexpr SpanName kKv[] = {SpanName::kKvGet, SpanName::kKvPut,
                              SpanName::kKvMultiPut, SpanName::kKvTransfer};

  m->set("sim.switches_per_op", per_op(o.switches));
  m->set("sim.switch_ns_t8", loops[0]);
  m->set("sim.switch_ns_t64", loops[1]);
  m->set("sim.gap_share", traced([&](const Buckets& b) { return share(b, b.gap_ns); }));

  m->set("locks.spec_frac", per_op(o.spec_ops));
  m->set("tsx.begins_per_op", per_op(o.tx_begins));
  m->set("tsx.commit_ratio", ratio(static_cast<double>(o.tx_commits),
                                   static_cast<double>(o.tx_begins)));
  m->set("tsx.aborts_per_op.conflict", per_op(o.abort_conflict));
  m->set("tsx.aborts_per_op.capacity", per_op(o.abort_capacity));
  m->set("tsx.aborts_per_op.pause", per_op(o.abort_pause));
  m->set("tsx.aborts_per_op.spurious", per_op(o.abort_spurious));
  m->set("tsx.aborts_per_op.explicit", per_op(o.abort_explicit));
  m->set("tsx.load_ns_fresh", loops[2]);
  m->set("tsx.load_ns_repeat", loops[3]);

  m->set("locks.self_ns_per_op", traced([&](const Buckets& b) {
           return self(b, SpanName::kRegion) / ops;
         }));
  m->set("locks.wasted_share", traced([&](const Buckets& b) {
           double ds = 0;
           for (const SpanName n : kDs) ds += self(b, n);
           return ratio(static_cast<double>(b.wasted_ns), ds);
         }));
  m->set("ds.lookup_ns", traced([&](const Buckets& b) {
           return ratio(self(b, SpanName::kDsLookup), calls(b, SpanName::kDsLookup));
         }));
  m->set("ds.update_ns", traced([&](const Buckets& b) {
           return ratio(self(b, SpanName::kDsInsert) + self(b, SpanName::kDsErase),
                        calls(b, SpanName::kDsInsert) + calls(b, SpanName::kDsErase));
         }));

  m->set("service.request_ns", traced([&](const Buckets& b) {
           double ns = 0;
           for (const SpanName n : kKv) ns += self(b, n);
           return ns / ops;
         }));
  m->set("service.traffic_ns", traced([&](const Buckets& b) {
           return (self(b, SpanName::kZipf) + self(b, SpanName::kClock)) / ops;
         }));
  m->set("service.queue_p999_cycles", static_cast<double>(o.queue_p999));
  m->set("service.service_p999_cycles", static_cast<double>(o.service_p999));
  m->set("service.hot_shard_share", o.hot_shard_share);

  std::vector<double> build, start;
  for (const HostTimes& h : run.setups) {
    build.push_back(h.build_s);
    start.push_back(h.start_s);
  }
  m->set("harness.build_s", median(build));
  m->set("harness.start_s", median(start));
  m->set("harness.loop_share", traced([&](const Buckets& b) { return share(b, b.loop_ns); }));

  std::vector<double> u, t;
  for (const auto& b : run.untraced) u.push_back(ops_per_s(b));
  for (const auto& b : run.traced) t.push_back(ops_per_s(b));
  m->set("trace.speed_ratio", ratio(median(t), median(u)));
}

// Every bucket's share of the traced wall time, medians over batches.
NumberMap bucket_shares(const Run& run) {
  NumberMap m;
  const auto med = [&](auto&& f) {
    std::vector<double> v;
    for (const Buckets& b : run.buckets) {
      v.push_back(ratio(static_cast<double>(f(b)), static_cast<double>(b.wall_ns)));
    }
    return median(v);
  };
  m.set("harness.start", med([](const Buckets& b) { return b.start_ns; }));
  m.set("harness.loop", med([](const Buckets& b) { return b.loop_ns; }));
  m.set("sim.gap", med([](const Buckets& b) { return b.gap_ns; }));
  for (std::size_t k = 0; k < Buckets::kNames; ++k) {
    if (static_cast<SpanName>(k) == SpanName::kRun) continue;
    m.set(span_name(static_cast<SpanName>(k)),
          med([k](const Buckets& b) { return b.self_ns[k]; }));
  }
  m.set("sum", med([](const Buckets& b) { return b.sum_ns(); }));
  return m;
}

// Set-up is timed on runs of its own: the structure is built and
// run_workload started for a few simulated cycles, many times, so setup_s
// is a median over warm repetitions rather than over a few full batches
// (the first set-ups of a process also pay for fresh memory).
constexpr int kSetupReps = 21;
constexpr double kSetupProbeSeconds = 1e-9;

int run_main(const Args& a) {
  const Workload& w = *find_workload(a.workload);
  const Budget budget(a.seconds);
  const double calibration = calibration_mops(3);
  Run run;
  double loops[4] = {0, 0, 0, 0};
  if (a.trace) {
    loops[0] = switch_ns(8, 5);
    loops[1] = switch_ns(64, 5);
    loops[2] = tx_load_ns(true, 5);
    loops[3] = tx_load_ns(false, 5);
  }
  Workload probe = w;
  probe.duration_sec = kSetupProbeSeconds;
  for (int i = 0; i < kSetupReps; ++i) {
    const BatchResult p = run_batch(probe, a.seed, nullptr);
    run.setups.push_back(p.host);
    for (const auto& e : p.errors) run.note("set-up run: " + e);
  }
  Tracer tracer;
  double last_s = 0;
  // Untraced and traced batches alternate in a traced run, so both see the
  // same host conditions.
  do {
    BatchResult u = run_batch(w, a.seed, nullptr);
    last_s = u.host.setup_s() + u.host.measured_s;
    const std::uint64_t ops = u.out.ops;
    run.add(std::move(u), false);
    if (run.untraced.size() == 1) run.peak_rss_mb = peak_rss_mb();
    if (!a.trace) continue;
    tracer.clear();
    tracer.reserve(static_cast<std::size_t>(ops) * 16 + 1024);
    BatchResult t = run_batch(w, a.seed, &tracer);
    last_s += t.host.setup_s() + t.host.measured_s;
    Buckets b;
    std::string why;
    if (!attribute(tracer.events(), &b, &why)) {
      t.errors.push_back("trace: " + why);
    } else if (b.sum_ns() != b.wall_ns) {
      t.errors.push_back("trace: buckets do not sum to the traced wall time");
    } else {
      run.buckets.push_back(b);
    }
    run.add(std::move(t), true);
  } while (budget.room_for(last_s));

  if (a.trace && !a.spans_path.empty() &&
      !write_spans(tracer.events(), a.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 a.spans_path.c_str());
  }

  NumberMap metrics;
  if (a.trace) {
    per_layer(run, loops, &metrics);
  } else {
    end_to_end(run, &metrics);
  }
  std::vector<std::string> rates, setups, errors;
  for (const auto& b : run.untraced) rates.push_back(std::to_string(ops_per_s(b)));
  for (const HostTimes& h : run.setups) setups.push_back(std::to_string(h.setup_s()));
  for (const auto& e : run.errors) errors.push_back(json_string(e));
  NumberMap host;
  host.set("nproc", host_cpus());
  host.set("calibration_mops", calibration);
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"cpu_model\":%s,"
      "\"host\":%s,\"batches\":%zu,\"traced_batches\":%zu,"
      "\"attempted\":%llu,\"failed\":%llu,\"errors\":%s,\"outputs\":%s,"
      "\"metrics\":%s,\"bucket_shares\":%s,\"batch_ops_per_s\":%s,\"batch_setup_s\":%s}\n",
      json_string(w.name).c_str(), static_cast<unsigned long long>(a.seed),
      a.trace ? 1 : 0, json_string(cpu_model()).c_str(), host.json().c_str(),
      run.untraced.size(), run.traced.size(),
      static_cast<unsigned long long>(run.attempted),
      static_cast<unsigned long long>(run.failed), json_list(errors).c_str(),
      outputs_json(run.out()).json().c_str(), metrics.json().c_str(),
      bucket_shares(run).json().c_str(), json_list(rates).c_str(),
      json_list(setups).c_str());
  return run.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Fixed glibc thresholds: every allocation comes from the heap, which is
  // never trimmed, so repeated set-ups reuse already-faulted memory the same
  // way each time. Under the default dynamic thresholds, set-up time flips
  // between two modes (fresh mmap pages or recycled heap) from one
  // repetition to the next.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  // Base pages only: with transparent huge pages the resident set grows in
  // 2 MiB steps whenever the kernel happens to back or collapse a region,
  // which makes peak_rss_mb differ between identical runs.
  prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0);
  return perfbench::run_main(perfbench::parse_args(argc, argv));
}

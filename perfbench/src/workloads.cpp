#include "workloads.hpp"

#include <algorithm>

#include "ds/rbtree.hpp"
#include "harness/metrics.hpp"
#include "harness/runner.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/policy.hpp"
#include "locks/schemes.hpp"
#include "locks/ttas_lock.hpp"
#include "service/sharded_kv.hpp"
#include "service/traffic.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using elision::harness::BenchConfig;
using elision::harness::QuantileHistogram;
using elision::harness::RunStats;
using elision::locks::RegionResult;
using elision::tsx::Ctx;

// Why each workload exists is recorded in perfbench/README.md.
const Workload kWorkloads[] = {
    {.name = "rb-avalanche", .kv = false, .threads = 8, .n_cores = 4,
     .smt_per_core = 2, .lock = "mcs", .policy = "hle",
     .duration_sec = 0.004, .tree_size = 64, .update_pct = 20},
    {.name = "rb-wide", .kv = false, .threads = 64, .n_cores = 32,
     .smt_per_core = 2, .lock = "ttas", .policy = "hle-scm",
     .duration_sec = 0.001, .tree_size = 8192, .update_pct = 20},
    {.name = "kv-zipf", .kv = true, .threads = 8, .n_cores = 4,
     .smt_per_core = 2, .lock = "ttas", .policy = "hle",
     .duration_sec = 0.15, .shards = 8, .keys = 8192, .zipf_theta = 0.99,
     .requests_per_sec = 2e6, .put_pct = 20, .multi_put_pct = 5,
     .transfer_pct = 5, .multi_put_keys = 4},
};

double seconds_between(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

BenchConfig bench_config(const Workload& w, std::uint64_t seed,
                         const elision::locks::ElisionPolicy& policy) {
  BenchConfig cfg;
  cfg.threads = w.threads;
  cfg.duration_sec = w.duration_sec;
  cfg.machine.n_cores = w.n_cores;
  cfg.machine.smt_per_core = w.smt_per_core;
  cfg.machine.seed = seed;
  cfg.policy = policy;
  return cfg;
}

// Copies the core RunStats fields every workload reports.
void take_run_stats(const RunStats& s, Outputs* o) {
  using elision::tsx::AbortCause;
  const auto cause = [&](AbortCause c) {
    return s.tx.aborts_by_cause[static_cast<std::size_t>(c)];
  };
  o->ops = s.ops;
  o->spec_ops = s.spec_ops;
  o->nonspec_ops = s.nonspec_ops;
  o->attempts = s.attempts;
  o->elapsed_cycles = s.elapsed_cycles;
  o->ghz = s.ghz;
  o->tx_begins = s.tx.begins;
  o->tx_commits = s.tx.commits;
  o->tx_aborts = s.tx.aborts;
  o->abort_conflict = cause(AbortCause::kConflict);
  o->abort_capacity = cause(AbortCause::kCapacity);
  o->abort_pause = cause(AbortCause::kPause);
  o->abort_spurious = cause(AbortCause::kSpurious);
  o->abort_explicit = cause(AbortCause::kExplicit);
  o->abort_other = s.tx.aborts - o->abort_conflict - o->abort_capacity -
                   o->abort_pause - o->abort_spurious - o->abort_explicit;
}

void take_latency(const QuantileHistogram& h, Outputs* o) {
  o->latency_samples = h.samples();
  o->latency_p50 = h.quantile(0.5);
  o->latency_p99 = h.quantile(0.99);
  o->latency_p999 = h.quantile(0.999);
}

// Consistency checks every run must pass, whatever the workload.
void check_counters(const Outputs& o, std::vector<std::string>* errors) {
  const auto fail = [&](const char* what) { errors->push_back(what); };
  if (o.ops == 0) fail("no operation completed");
  if (o.spec_ops + o.nonspec_ops != o.ops) fail("spec + nonspec != ops");
  if (o.attempts < o.ops) fail("fewer attempts than ops");
  if (o.tx_commits + o.tx_aborts != o.tx_begins) {
    fail("tx commits + aborts != begins");
  }
  if (o.spec_ops > o.tx_commits) fail("more speculative ops than commits");
  if (o.latency_samples != o.ops) fail("latency sample count != ops");
}

// Host timestamps of one batch.
struct Clock {
  std::uint64_t build_begin = host_ns();
  std::uint64_t run_call = 0;
  std::uint64_t first_op = 0;
  std::uint64_t run_return = 0;

  void op_started() {
    if (first_op == 0) first_op = host_ns();
  }
  HostTimes times() const {
    return {seconds_between(build_begin, run_call),
            seconds_between(run_call, first_op),
            seconds_between(first_op, run_return)};
  }
};

// run_workload between the clock's timestamps, framed by the run span.
RunStats timed_run(const BenchConfig& cfg, const elision::harness::OpFn& op,
                   Tracer* tr, Clock* clock) {
  clock->run_call = host_ns();
  RunStats s;
  {
    Span run(tr, SpanName::kRun, kHostThread);
    s = elision::harness::run_workload(cfg, op);
    run.close();
  }
  clock->run_return = host_ns();
  return s;
}

// ---------------------------------------------------------------- RB tree

struct RbTally {
  std::uint64_t inserted = 0, erased = 0;
  QuantileHistogram latency;  // cycles, issue -> completion
};

template <typename Lock>
BatchResult run_rb(const Workload& w, std::uint64_t seed,
                   const elision::locks::ElisionPolicy& policy, Tracer* tr) {
  BatchResult res;
  Clock clock;
  const std::uint64_t domain = w.tree_size * 2;
  elision::ds::RbTree tree(
      w.tree_size * 4 + 256,
      std::max(w.threads, elision::tsx::kDefaultPoolThreads));
  elision::support::Xoshiro256 fill(seed);
  std::size_t filled = 0;
  while (filled < w.tree_size) {
    if (tree.unsafe_insert(fill.next_below(domain))) ++filled;
  }
  tree.unsafe_distribute_free_lists(w.threads);
  Lock lock;
  elision::locks::CriticalSection<Lock> cs(policy, lock);
  const int half_updates = w.update_pct / 2;
  std::vector<RbTally> tallies(static_cast<std::size_t>(w.threads));
  std::uint64_t switches = 0;

  const auto op = [&](Ctx& ctx) -> RegionResult {
    clock.op_started();
    const int id = ctx.id();
    Span op_span(tr, SpanName::kOp, id);
    auto& st = ctx.thread();
    auto& rng = st.rng();
    const std::uint64_t key = rng.next_below(domain);
    const auto dice = static_cast<int>(rng.next_below(100));
    const std::uint64_t issued = st.now();
    // Assigned by every attempt, so it holds the completing attempt's value.
    bool changed = false;
    RegionResult r;
    {
      Span region(tr, SpanName::kRegion, id);
      r = cs.run(ctx, [&] {
        if (dice < half_updates) {
          Span s(tr, SpanName::kDsInsert, id);
          changed = tree.insert(ctx, key);
          s.close();
        } else if (dice < w.update_pct) {
          Span s(tr, SpanName::kDsErase, id);
          changed = tree.erase(ctx, key);
          s.close();
        } else {
          Span s(tr, SpanName::kDsLookup, id);
          tree.contains(ctx, key);
          s.close();
        }
      });
      region.close();
    }
    RbTally& t = tallies[static_cast<std::size_t>(id)];
    if (changed) ++(dice < half_updates ? t.inserted : t.erased);
    t.latency.add(st.now() - issued);
    switches = st.scheduler().switch_count();
    op_span.close();
    return r;
  };
  const RunStats stats = timed_run(bench_config(w, seed, policy), op, tr, &clock);

  take_run_stats(stats, &res.out);
  std::uint64_t inserted = 0, erased = 0;
  QuantileHistogram latency;
  for (const RbTally& t : tallies) {
    inserted += t.inserted;
    erased += t.erased;
    latency.merge(t.latency);
  }
  take_latency(latency, &res.out);
  res.out.switches = switches;
  res.out.final_size = tree.unsafe_size();
  for (const std::uint64_t k : tree.unsafe_keys()) res.out.final_checksum += k;
  res.host = clock.times();

  check_counters(res.out, &res.errors);
  std::string why;
  if (!tree.unsafe_validate(&why)) res.errors.push_back("rbtree invalid: " + why);
  if (res.out.final_size != w.tree_size + inserted - erased) {
    res.errors.push_back("rbtree size != prefill + inserts - erases");
  }
  for (const std::uint64_t k : tree.unsafe_keys()) {
    if (k >= domain) {
      res.errors.push_back("rbtree holds a key outside the domain");
      break;
    }
  }
  return res;
}

// ------------------------------------------------------------ KV service

struct KvWorker {
  elision::service::OpenLoopClock clock;
  // Cycles: arrival -> completion, arrival -> start, start -> completion.
  QuantileHistogram latency, queue, service;
  std::vector<std::uint64_t> shard_visits;
  std::int64_t value_delta = 0;  // committed change of the summed values
};

BatchResult run_kv(const Workload& w, std::uint64_t seed,
                   const elision::locks::ElisionPolicy& policy, Tracer* tr) {
  using elision::service::KvPair;
  using elision::service::ShardedKv;
  BatchResult res;
  Clock clock;
  ShardedKv::Config kc;
  kc.shards = w.shards;
  kc.keys = w.keys;
  kc.threads = w.threads;
  kc.policy = policy;
  ShardedKv kv(kc);
  constexpr std::uint64_t kStake = 100;
  elision::support::Xoshiro256 fill(seed);
  const std::size_t prefill = w.keys / 2;
  std::size_t filled = 0;
  while (filled < prefill) {
    if (kv.unsafe_put(fill.next_below(w.keys), kStake)) ++filled;
  }
  kv.unsafe_distribute_free_lists(w.threads);
  const elision::service::ZipfGenerator zipf(w.keys, w.zipf_theta);
  const BenchConfig cfg = bench_config(w, seed, policy);
  // Each worker drains one Poisson stream of rate requests_per_sec / threads.
  const double mean_cycles = cfg.machine.ghz * 1e9 *
                             static_cast<double>(w.threads) / w.requests_per_sec;
  const int batch = std::clamp(w.multi_put_keys, 1, ShardedKv::kMaxOpShards);
  std::vector<KvWorker> workers(static_cast<std::size_t>(w.threads));
  for (auto& k : workers) k.shard_visits.assign(static_cast<std::size_t>(w.shards), 0);
  std::uint64_t switches = 0;

  const auto op = [&](Ctx& ctx) -> RegionResult {
    clock.op_started();
    const int id = ctx.id();
    Span op_span(tr, SpanName::kOp, id);
    auto& st = ctx.thread();
    auto& rng = st.rng();
    KvWorker& wk = workers[static_cast<std::size_t>(id)];
    if (!wk.clock.primed()) wk.clock.prime(rng, st.now(), mean_cycles);
    std::uint64_t arrival;
    {
      Span s(tr, SpanName::kClock, id);
      arrival = wk.clock.pop(rng, mean_cycles);
      s.close();
    }
    // Open loop: idle until the request is due; a late start is queueing.
    if (st.now() < arrival) st.tick(arrival - st.now());
    const std::uint64_t start = st.now();
    const auto next_key = [&] {
      Span s(tr, SpanName::kZipf, id);
      const std::uint64_t k = zipf.next(rng);
      s.close();
      return k;
    };
    const auto visit = [&](std::uint64_t key) {
      ++wk.shard_visits[static_cast<std::size_t>(kv.shard_of(key))];
    };
    const auto dice = static_cast<int>(rng.next_below(100));
    RegionResult r;
    if (dice < w.put_pct) {
      const std::uint64_t key = next_key();
      const std::uint64_t value = 1 + rng.next_below(1000);
      std::uint64_t old = 0;
      {
        Span s(tr, SpanName::kKvPut, id);
        r = kv.put(ctx, key, value, nullptr, &old);
        s.close();
      }
      wk.value_delta += static_cast<std::int64_t>(value) -
                        static_cast<std::int64_t>(old);
      visit(key);
    } else if (dice < w.put_pct + w.multi_put_pct) {
      KvPair pairs[ShardedKv::kMaxOpShards];
      for (int i = 0; i < batch; ++i) {
        pairs[i].key = next_key();
        pairs[i].value = 1 + rng.next_below(1000);
      }
      std::int64_t delta = 0;
      {
        Span s(tr, SpanName::kKvMultiPut, id);
        r = kv.multi_put(ctx, pairs, batch, &delta);
        s.close();
      }
      wk.value_delta += delta;
      for (int i = 0; i < batch; ++i) visit(pairs[i].key);
    } else if (dice < w.put_pct + w.multi_put_pct + w.transfer_pct) {
      const std::uint64_t from = next_key();
      const std::uint64_t to = next_key();
      const std::uint64_t amount = 1 + rng.next_below(50);
      {
        Span s(tr, SpanName::kKvTransfer, id);
        r = kv.transfer(ctx, from, to, amount);
        s.close();
      }
      visit(from);
      visit(to);
    } else {
      const std::uint64_t key = next_key();
      std::uint64_t value = 0;
      {
        Span s(tr, SpanName::kKvGet, id);
        r = kv.get(ctx, key, &value);
        s.close();
      }
      visit(key);
    }
    const std::uint64_t done = st.now();
    wk.latency.add(done - arrival);
    wk.queue.add(start - arrival);
    wk.service.add(done - start);
    switches = st.scheduler().switch_count();
    op_span.close();
    return r;
  };
  const RunStats stats = timed_run(cfg, op, tr, &clock);

  take_run_stats(stats, &res.out);
  std::vector<std::uint64_t> visits(static_cast<std::size_t>(w.shards), 0);
  std::int64_t delta = 0;
  for (const KvWorker& k : workers) {
    for (std::size_t s = 0; s < visits.size(); ++s) visits[s] += k.shard_visits[s];
    delta += k.value_delta;
  }
  QuantileHistogram latency, queue, service;
  for (const KvWorker& k : workers) {
    latency.merge(k.latency);
    queue.merge(k.queue);
    service.merge(k.service);
  }
  take_latency(latency, &res.out);
  res.out.queue_p999 = queue.quantile(0.999);
  res.out.service_p999 = service.quantile(0.999);
  std::uint64_t total_visits = 0, busiest = 0;
  for (const std::uint64_t v : visits) {
    total_visits += v;
    busiest = std::max(busiest, v);
  }
  res.out.hot_shard_share =
      total_visits > 0 ? static_cast<double>(busiest) / total_visits : 0.0;
  res.out.switches = switches;
  res.out.final_size = kv.unsafe_size();
  res.out.final_checksum = kv.unsafe_total_value();
  res.host = clock.times();

  check_counters(res.out, &res.errors);
  std::string why;
  if (!kv.unsafe_validate(&why)) res.errors.push_back("kv invalid: " + why);
  if (res.out.final_size < prefill || res.out.final_size > w.keys) {
    res.errors.push_back("kv size outside [prefill, key domain]");
  }
  // Puts and multi_puts change the summed value by their committed deltas;
  // transfers conserve it.
  const auto expected = static_cast<std::int64_t>(prefill * kStake) + delta;
  if (static_cast<std::int64_t>(res.out.final_checksum) != expected) {
    res.errors.push_back("kv summed value != prefill + committed deltas");
  }
  return res;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : kWorkloads) names.emplace_back(w.name);
  return names;
}

BatchResult run_batch(const Workload& w, std::uint64_t seed, Tracer* tracer) {
  const auto policy = elision::locks::ElisionPolicy::parse(w.policy);
  if (!policy) {
    BatchResult bad;
    bad.errors.push_back(std::string("unknown policy ") + w.policy);
    return bad;
  }
  if (w.kv) return run_kv(w, seed, *policy, tracer);
  if (std::string(w.lock) == "mcs") {
    return run_rb<elision::locks::McsLock>(w, seed, *policy, tracer);
  }
  return run_rb<elision::locks::TtasLock>(w, seed, *policy, tracer);
}

}  // namespace perfbench

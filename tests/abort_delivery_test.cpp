// Abort delivery: region drivers take the aborts that land in lock code
// through an abort checkpoint (Engine::checkpoint, a longjmp) and the
// aborts that land in a critical-section body by unwinding. This test pins
// the simulated outcome of every lock x scheme shape at 8 threads, plus a
// KV run with cross-shard operations, so the way an abort is delivered can
// never change what the simulation computes. It also counts the
// TxAbortException throws, so it can tell where each abort went.
//
// The test is linked with -Wl,--wrap=__cxa_throw: every throw from the
// statically linked simulator libraries passes through the counting
// wrapper below.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <typeinfo>

#include "ds/rbtree.hpp"
#include "harness/runner.hpp"
#include "locks/clh_lock.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "locks/ticket_lock.hpp"
#include "locks/ttas_lock.hpp"
#include "service/sharded_kv.hpp"
#include "support/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_tx_throws{0};
}  // namespace

extern "C" {
[[noreturn]] void __real___cxa_throw(void* obj, std::type_info* type,
                                     void (*dtor)(void*));

[[noreturn]] void __wrap___cxa_throw(void* obj, std::type_info* type,
                                     void (*dtor)(void*)) {
  if (*type == typeid(elision::tsx::TxAbortException)) {
    g_tx_throws.fetch_add(1, std::memory_order_relaxed);
  }
  __real___cxa_throw(obj, type, dtor);
}
}

namespace elision {
namespace {

using harness::RunStats;
using locks::ElisionPolicy;

constexpr int kThreads = 8;
constexpr std::size_t kCauses =
    static_cast<std::size_t>(tsx::AbortCause::kCauseCount);

// Everything a shape's run computes that abort delivery could disturb.
struct Outcome {
  std::uint64_t ops = 0;
  std::uint64_t attempts = 0;
  std::uint64_t elapsed_cycles = 0;
  std::uint64_t begins = 0;
  std::uint64_t commits = 0;
  std::array<std::uint64_t, kCauses> aborts_by_cause{};
  std::uint64_t checksum = 0;  // RB: sum of the keys; KV: sum of the values

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

std::string to_string(const Outcome& o) {
  std::ostringstream s;
  s << '{' << o.ops << ", " << o.attempts << ", " << o.elapsed_cycles << ", "
    << o.begins << ", " << o.commits << ", {";
  for (std::size_t i = 0; i < kCauses; ++i) {
    s << (i == 0 ? "" : ", ") << o.aborts_by_cause[i];
  }
  s << "}, " << o.checksum << '}';
  return s.str();
}

std::uint64_t total_aborts(const Outcome& o) {
  std::uint64_t n = 0;
  for (const std::uint64_t a : o.aborts_by_cause) n += a;
  return n;
}

Outcome outcome_of(const RunStats& s, std::uint64_t checksum) {
  Outcome o;
  o.ops = s.ops;
  o.attempts = s.attempts;
  o.elapsed_cycles = s.elapsed_cycles;
  o.begins = s.tx.begins;
  o.commits = s.tx.commits;
  o.aborts_by_cause = s.tx.aborts_by_cause;
  o.checksum = checksum;
  return o;
}

// Virtual seconds per pinned shape.
constexpr double kShapeSeconds = 0.0002;

harness::BenchConfig bench_config(const ElisionPolicy& policy,
                                  bool allow_hle_in_rtm, double seconds) {
  harness::BenchConfig cfg;
  cfg.threads = kThreads;
  cfg.duration_sec = seconds;
  cfg.machine.seed = 7;
  cfg.policy = policy;
  cfg.tsx.allow_hle_in_rtm = allow_hle_in_rtm;
  return cfg;
}

// A 64-key red-black tree, 20% updates: the avalanche shape of Ch. 3.
constexpr std::size_t kTreeSize = 64;
constexpr std::uint64_t kDomain = kTreeSize * 2;

void fill_tree(ds::RbTree& tree) {
  support::Xoshiro256 fill(11);
  std::size_t filled = 0;
  while (filled < kTreeSize) {
    if (tree.unsafe_insert(fill.next_below(kDomain))) ++filled;
  }
  tree.unsafe_distribute_free_lists(kThreads);
}

std::uint64_t key_sum(const ds::RbTree& tree) {
  std::uint64_t sum = 0;
  for (const std::uint64_t k : tree.unsafe_keys()) sum += k;
  return sum;
}

constexpr auto kPlainBody = [](tsx::Ctx&, auto&& op) { op(); };

// Runs the tree shape under `policy`. Every execution of the
// critical-section body is `around(ctx, op)`, where op is the tree
// operation.
template <typename Lock, typename Around>
Outcome run_rb(const ElisionPolicy& policy, bool allow_hle_in_rtm,
               Around&& around, double seconds = kShapeSeconds) {
  ds::RbTree tree(kTreeSize * 4 + 256);
  fill_tree(tree);
  Lock lock;
  locks::CriticalSection<Lock> cs(policy, lock);
  const RunStats stats = harness::run_workload(
      bench_config(policy, allow_hle_in_rtm, seconds), [&](tsx::Ctx& ctx) {
        auto& rng = ctx.thread().rng();
        const std::uint64_t key = rng.next_below(kDomain);
        const auto dice = static_cast<int>(rng.next_below(100));
        return cs.run(ctx, [&] {
          around(ctx, [&] {
            if (dice < 10) {
              tree.insert(ctx, key);
            } else if (dice < 20) {
              tree.erase(ctx, key);
            } else {
              tree.contains(ctx, key);
            }
          });
        });
      });
  std::string why;
  EXPECT_TRUE(tree.unsafe_validate(&why)) << why;
  return outcome_of(stats, key_sum(tree));
}

template <typename Lock>
Outcome run_rb(const ElisionPolicy& policy, bool allow_hle_in_rtm = false) {
  return run_rb<Lock>(policy, allow_hle_in_rtm, kPlainBody);
}

// Puts, gets, multi_puts and transfers over an 8-shard store under HLE:
// single-shard regions go through hle_region, cross-shard ones through
// the service's own region driver.
Outcome run_kv() {
  service::ShardedKv::Config kc;
  kc.shards = 8;
  kc.keys = 512;
  kc.threads = kThreads;
  kc.policy = ElisionPolicy::hle();
  service::ShardedKv kv(kc);
  support::Xoshiro256 fill(5);
  for (std::size_t filled = 0; filled < kc.keys / 2;) {
    if (kv.unsafe_put(fill.next_below(kc.keys), 100)) ++filled;
  }
  kv.unsafe_distribute_free_lists(kThreads);
  const RunStats stats = harness::run_workload(
      bench_config(kc.policy, false, kShapeSeconds), [&](tsx::Ctx& ctx) {
        auto& rng = ctx.thread().rng();
        const auto dice = static_cast<int>(rng.next_below(100));
        const std::uint64_t a = rng.next_below(kc.keys);
        const std::uint64_t b = rng.next_below(kc.keys);
        if (dice < 20) return kv.put(ctx, a, 1 + rng.next_below(1000));
        if (dice < 40) {
          const service::KvPair pairs[2] = {{a, 1 + rng.next_below(1000)},
                                            {b, 1 + rng.next_below(1000)}};
          return kv.multi_put(ctx, pairs, 2);
        }
        if (dice < 60) return kv.transfer(ctx, a, b, 1 + rng.next_below(50));
        std::uint64_t v = 0;
        return kv.get(ctx, a, &v);
      });
  std::string why;
  EXPECT_TRUE(kv.unsafe_validate(&why)) << why;
  return outcome_of(stats, kv.unsafe_total_value());
}

enum class LockKind { kTtas, kMcs, kTicketAdj, kClhAdj };

const char* lock_name(LockKind k) {
  switch (k) {
    case LockKind::kTtas: return "ttas";
    case LockKind::kMcs: return "mcs";
    case LockKind::kTicketAdj: return "ticket-adj";
    case LockKind::kClhAdj: return "clh-adj";
  }
  return "?";
}

Outcome run_rb_shape(LockKind lock, const ElisionPolicy& policy,
                     bool allow_hle_in_rtm) {
  switch (lock) {
    case LockKind::kTtas:
      return run_rb<locks::TtasLock>(policy, allow_hle_in_rtm);
    case LockKind::kMcs:
      return run_rb<locks::McsLock>(policy, allow_hle_in_rtm);
    case LockKind::kTicketAdj:
      return run_rb<locks::TicketLockAdjusted>(policy, allow_hle_in_rtm);
    case LockKind::kClhAdj:
      return run_rb<locks::ClhLockAdjusted>(policy, allow_hle_in_rtm);
  }
  return {};
}

struct Golden {
  LockKind lock;
  const char* policy;
  bool allow_hle_in_rtm;
  Outcome expected;
};

// Recorded with the simulator as it was before abort checkpoints existed,
// when every abort was a thrown TxAbortException. Outcome fields: ops,
// attempts, elapsed cycles, tx begins, tx commits, aborts by cause (in
// AbortCause order), checksum.
const Golden kGolden[] = {
    {LockKind::kTtas, "hle", false,
     {7732, 12113, 680197, 11534, 7153, {0, 0, 3896, 0, 0, 485, 0, 0}, 4293}},
    {LockKind::kTtas, "hle-scm", false,
     {9490, 10630, 682950, 10630, 9490, {0, 0, 1140, 0, 0, 0, 0, 0}, 3887}},
    {LockKind::kTtas, "hle-scm-nested", true,
     {9344, 10486, 682829, 10485, 9343, {0, 0, 1141, 0, 1, 0, 0, 0}, 4626}},
    {LockKind::kTtas, "hle-gscm", false,
     {8942, 11448, 680213, 11361, 8855, {0, 557, 1948, 0, 1, 0, 0, 0}, 3897}},
    {LockKind::kTtas, "rtm-elide", false,
     {6997, 11816, 684580, 11185, 6366, {0, 409, 4409, 0, 1, 0, 0, 0}, 3476}},
    {LockKind::kTtas, "opt-slr", false,
     {9771, 16053, 686080, 15795, 9513, {0, 1944, 4337, 0, 1, 0, 0, 0}, 4561}},
    {LockKind::kTtas, "pes-slr", false,
     {2605, 5200, 681708, 2605, 10, {0, 1986, 609, 0, 0, 0, 0, 0}, 3416}},
    {LockKind::kTtas, "adaptive", false,
     {7739, 12099, 680788, 11527, 7167, {0, 7, 3893, 0, 0, 460, 0, 0}, 3978}},
    {LockKind::kMcs, "hle", false,
     {2475, 4940, 681521, 2475, 10, {0, 0, 1707, 0, 0, 758, 0, 0}, 4703}},
    {LockKind::kMcs, "hle-scm", false,
     {9490, 10630, 682950, 10630, 9490, {0, 0, 1140, 0, 0, 0, 0, 0}, 3887}},
    {LockKind::kMcs, "hle-scm-nested", true,
     {8600, 9653, 680295, 9652, 8599, {0, 0, 1051, 0, 1, 1, 0, 0}, 4352}},
    {LockKind::kMcs, "hle-gscm", false,
     {8253, 11014, 682885, 10918, 8157, {0, 583, 2178, 0, 0, 0, 0, 0}, 4312}},
    {LockKind::kMcs, "rtm-elide", false,
     {2551, 5092, 681595, 2551, 10, {0, 2534, 7, 0, 0, 0, 0, 0}, 3841}},
    {LockKind::kMcs, "opt-slr", false,
     {9341, 15728, 683548, 15464, 9077, {0, 2007, 4378, 0, 2, 0, 0, 0}, 3972}},
    {LockKind::kMcs, "pes-slr", false,
     {2592, 5174, 681591, 2592, 10, {0, 2506, 76, 0, 0, 0, 0, 0}, 4015}},
    {LockKind::kMcs, "adaptive", false,
     {2475, 4940, 681521, 2475, 10, {0, 0, 1707, 0, 0, 758, 0, 0}, 4703}},
    {LockKind::kTicketAdj, "hle", false,
     {2312, 4615, 682171, 2312, 9, {0, 0, 48, 0, 0, 2255, 0, 0}, 4282}},
    {LockKind::kTicketAdj, "hle-scm", false,
     {8738, 9865, 681268, 9864, 8737, {0, 1, 1124, 0, 2, 0, 0, 0}, 4010}},
    {LockKind::kTicketAdj, "hle-scm-nested", true,
     {9233, 10338, 682171, 10336, 9231, {0, 0, 1103, 0, 1, 1, 0, 0}, 3550}},
    {LockKind::kTicketAdj, "hle-gscm", false,
     {8204, 11040, 681910, 10937, 8101, {0, 710, 2126, 0, 0, 0, 0, 0}, 4220}},
    {LockKind::kTicketAdj, "rtm-elide", false,
     {2296, 4581, 681745, 2296, 11, {0, 2227, 58, 0, 0, 0, 0, 0}, 4150}},
    {LockKind::kTicketAdj, "opt-slr", false,
     {9257, 15632, 680717, 15366, 8991, {0, 1896, 4479, 0, 0, 0, 0, 0}, 3808}},
    {LockKind::kTicketAdj, "pes-slr", false,
     {2419, 4827, 681642, 2419, 11, {0, 1677, 731, 0, 0, 0, 0, 0}, 4509}},
    {LockKind::kTicketAdj, "adaptive", false,
     {2312, 4615, 682171, 2312, 9, {0, 0, 48, 0, 0, 2255, 0, 0}, 4282}},
    {LockKind::kClhAdj, "hle", false,
     {2308, 4606, 681736, 2308, 10, {0, 0, 141, 0, 0, 2157, 0, 0}, 4114}},
    {LockKind::kClhAdj, "hle-scm", false,
     {9184, 10317, 680983, 10314, 9181, {0, 2, 1130, 0, 1, 0, 0, 0}, 4426}},
    {LockKind::kClhAdj, "hle-scm-nested", true,
     {8996, 10055, 684920, 10055, 8996, {0, 0, 1059, 0, 0, 0, 0, 0}, 3796}},
    {LockKind::kClhAdj, "hle-gscm", false,
     {8083, 10547, 682008, 10462, 7998, {0, 536, 1927, 0, 1, 0, 0, 0}, 4224}},
    {LockKind::kClhAdj, "rtm-elide", false,
     {2362, 4712, 682254, 2362, 12, {0, 2164, 186, 0, 0, 0, 0, 0}, 4337}},
    {LockKind::kClhAdj, "opt-slr", false,
     {8637, 15301, 680537, 15018, 8354, {0, 1979, 4685, 0, 0, 0, 0, 0}, 3573}},
    {LockKind::kClhAdj, "pes-slr", false,
     {2421, 4831, 681988, 2421, 11, {0, 1759, 651, 0, 0, 0, 0, 0}, 3593}},
    {LockKind::kClhAdj, "adaptive", false,
     {2308, 4606, 681736, 2308, 10, {0, 0, 141, 0, 0, 2157, 0, 0}, 4114}},
};

const Outcome kGoldenKv = {13343, 14374, 680526, 14273, 13242, {0, 341, 676, 0, 2, 12, 0, 0}, 260800};

TEST(AbortDelivery, OutcomesMatchTheThrowingEngine) {
  for (const Golden& g : kGolden) {
    const auto policy = ElisionPolicy::parse(g.policy);
    ASSERT_TRUE(policy.has_value()) << g.policy;
    const Outcome got = run_rb_shape(g.lock, *policy, g.allow_hle_in_rtm);
    EXPECT_EQ(got, g.expected)
        << lock_name(g.lock) << " / " << g.policy
        << (g.allow_hle_in_rtm ? " (allow_hle_in_rtm)" : "")
        << "\n  got: " << to_string(got)
        << "\n  expected: " << to_string(g.expected);
  }
}

TEST(AbortDelivery, KvOutcomeMatchesTheThrowingEngine) {
  const Outcome got = run_kv();
  EXPECT_EQ(got, kGoldenKv) << "got: " << to_string(got)
                            << "\nexpected: " << to_string(kGoldenKv);
}

// MCS under plain HLE: speculators reach the held queue lock, spin in
// lock() and are aborted there, so almost every abort is taken by the
// lock-phase checkpoint. Only the few aborts that land in a body before
// the avalanche sets in unwind, so the run is long enough to reach it.
TEST(AbortDelivery, AvalancheAbortsDoNotUnwind) {
  const std::uint64_t before = g_tx_throws.load();
  const Outcome o = run_rb<locks::McsLock>(
      ElisionPolicy::hle(), false, kPlainBody, 10 * kShapeSeconds);
  const std::uint64_t throws = g_tx_throws.load() - before;
  const std::uint64_t aborts = total_aborts(o);
  ASSERT_GT(aborts, 10000u);
  EXPECT_LE(throws * 1000, aborts) << throws << " throws, " << aborts
                                   << " aborts";
}

// TTAS under plain HLE: arrivals spin outside the transaction, so aborts
// land in the body and still unwind through it.
TEST(AbortDelivery, BodyAbortsStillUnwind) {
  const std::uint64_t before = g_tx_throws.load();
  const Outcome o = run_rb<locks::TtasLock>(ElisionPolicy::hle());
  const std::uint64_t throws = g_tx_throws.load() - before;
  ASSERT_GT(total_aborts(o), 0u);
  EXPECT_GT(throws, 0u);
}

struct Counts {
  std::uint64_t made = 0;
  std::uint64_t destroyed = 0;
};

struct Counted {
  explicit Counted(Counts& c) : c_(c) { ++c_.made; }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  ~Counted() { ++c_.destroyed; }
  Counts& c_;
};

// A body-scoped RAII object is destroyed on every exit from the body:
// normal completion, or an abort unwinding through it.
TEST(AbortDelivery, BodyDestructorsRunOnAbort) {
  Counts n;
  const std::uint64_t before = g_tx_throws.load();
  const Outcome o = run_rb<locks::TtasLock>(
      ElisionPolicy::hle(), false, [&](tsx::Ctx&, auto&& op) {
        Counted c(n);
        op();
      });
  EXPECT_GT(g_tx_throws.load() - before, 0u);
  EXPECT_GT(n.made, o.ops);  // some bodies were abandoned by an abort
  EXPECT_EQ(n.made, n.destroyed);
}

}  // namespace
}  // namespace elision

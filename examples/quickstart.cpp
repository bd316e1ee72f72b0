// Quickstart: protect a shared map with one global lock, then turn on lock
// elision and conflict management by changing ONE line — the scheme — and
// watch the concurrency come back.
//
//   $ ./examples/quickstart
//
// This is the paper's premise end-to-end: coarse-grained locking with the
// performance of fine-grained locking.
#include <cstdio>

#include "ds/hashtable.hpp"
#include "harness/runner.hpp"
#include "locks/schemes.hpp"
#include "locks/ttas_lock.hpp"

using namespace elision;

namespace {

double run_with_policy(locks::ElisionPolicy policy) {
  // A shared hash table protected by ONE global TTAS lock.
  ds::HashTable table(256, 4096);
  locks::TtasLock lock;
  locks::CriticalSection<locks::TtasLock> cs(policy, lock);

  harness::BenchConfig cfg;
  cfg.threads = 8;             // 8 hyperthreads, like the paper's i7-4770
  cfg.duration_sec = 0.002;    // 2 simulated milliseconds

  const auto stats = harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
    auto& rng = ctx.thread().rng();
    const std::uint64_t key = rng.next_below(512);
    // The critical section: a coarse-grained locked map update.
    return cs.run(ctx, [&] { table.upsert_add(ctx, key, 1); });
  });
  std::printf("  %-12s %8.2f Mops/s   attempts/op %.2f   non-speculative %4.1f%%\n",
              policy.name(), stats.throughput() / 1e6,
              stats.attempts_per_op(), 100 * stats.nonspec_fraction());
  return stats.throughput();
}

}  // namespace

int main() {
  std::printf("One global lock, 8 threads, same workload:\n\n");
  const double standard = run_with_policy(locks::ElisionPolicy::standard());
  const double hle = run_with_policy(locks::ElisionPolicy::hle());
  const double scm = run_with_policy(locks::ElisionPolicy::hle_scm());
  std::printf(
      "\nHardware lock elision alone:        %.2fx over the plain lock\n"
      "With software conflict management:  %.2fx over the plain lock\n",
      hle / standard, scm / standard);
  return 0;
}

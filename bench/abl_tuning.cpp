// Ablation — the paper's tuning claims (Sec. 5.1 "Conflict management
// tuning"): the SCM MAX_RETRIES sweep ("we have verified that using other
// tuning options only degrade the schemes' performance"), the avalanche's
// sensitivity to the spurious-abort rate (Sec. 2.2: spurious aborts alone
// can trigger serialization), and the backoff mitigation vs the SCM fix
// (Ch. 8, Dice et al.).
#include <cstdio>

#include "ds/rbtree.hpp"
#include "harness/rb_workload.hpp"
#include "harness/report.hpp"
#include "locks/backoff_lock.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "locks/ttas_lock.hpp"
#include "support/rng.hpp"

int main() {
  using namespace elision;
  using namespace elision::harness;

  harness::banner("Ablation: SCM MAX_RETRIES (Sec 5.1 tuning)",
                  "128-node tree, 50i/50d, 8 threads, MCS main lock.\n"
                  "Expect: a plateau around the paper's value of 10; very "
                  "small values give up (and avalanche) too early.");
  {
    harness::Table table({"max-retries", "Mops/s"});
    for (const int r : {0, 1, 2, 5, 10, 20, 50}) {
      RbPoint p;
      p.size = 128;
      p.update_pct = 100;
      p.lock = LockSel::kMcs;
      p.scheme = locks::ElisionPolicy::hle_scm().with_scm_retries(r);
      p.duration_sec = 0.002;
      p.seeds = 1;
      table.add_row({harness::fmt_int(r),
                     harness::fmt(run_rb_point(p).throughput() / 1e6, 2)});
    }
    table.print();
  }

  harness::banner("Ablation: spurious-abort sensitivity (Sec 2.2)",
                  "HLE-MCS on a lookup-only 2K tree: even pure-read "
                  "workloads serialize when spurious aborts rise.\n"
                  "Expect: non-spec fraction grows with the spurious rate.");
  {
    harness::Table table({"spurious-per-begin", "Mops/s", "nonspec-frac"});
    // Not an RbPoint: this lookup-only loop draws no dice, so each thread
    // sees a different key stream than RbPoint's 0%-update mix would give.
    constexpr std::size_t kSize = 2048;
    for (const double p : {0.0, 1e-5, 1e-4, 1e-3, 1e-2}) {
      ds::RbTree tree(kSize * 4 + 256);
      support::Xoshiro256 fill(42);
      std::size_t filled = 0;
      while (filled < kSize) {
        if (tree.unsafe_insert(fill.next_below(kSize * 2))) ++filled;
      }
      tree.unsafe_distribute_free_lists(8);
      locks::McsLock lock;
      locks::CriticalSection<locks::McsLock> cs(locks::ElisionPolicy::hle(), lock);
      harness::BenchConfig cfg;
      cfg.duration_scale = harness::env_duration_scale();
      cfg.tsx.spurious_per_begin = p;
      cfg.tsx.spurious_per_access = p / 50;  // scale both spurious knobs
      const auto stats = harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
        const std::uint64_t key = ctx.thread().rng().next_below(kSize * 2);
        return cs.run(ctx, [&] { tree.contains(ctx, key); });
      });
      table.add_row({harness::fmt(p, 5),
                     harness::fmt(stats.throughput() / 1e6, 2),
                     harness::fmt(stats.nonspec_fraction(), 3)});
    }
    table.print();
  }

  harness::banner("Ablation: backoff mitigation vs SCM fix (Ch. 8)",
                  "128-node tree, 50i/50d, 8 threads: TTAS vs "
                  "backoff-TTAS vs TTAS+SCM under HLE.\n"
                  "Expect: backoff softens the avalanche; SCM removes it.");
  {
    harness::Table table({"lock/scheme", "Mops/s", "att/op", "nonspec"});
    // Not an RbPoint: BackoffTtasLock is no LockSel, and this loop flips a
    // coin per op instead of rolling RbPoint's dice.
    auto run_one = [&](const char* name, auto&& runner) {
      ds::RbTree tree(128 * 4 + 256);
      support::Xoshiro256 fill(42);
      std::size_t filled = 0;
      while (filled < 128) {
        if (tree.unsafe_insert(fill.next_below(256))) ++filled;
      }
      tree.unsafe_distribute_free_lists(8);
      harness::BenchConfig cfg;
      cfg.duration_scale = harness::env_duration_scale();
      const auto stats = harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
        auto& rng = ctx.thread().rng();
        const std::uint64_t key = rng.next_below(256);
        const bool ins = rng.next_below(2) == 0;
        return runner(ctx, [&] {
          if (ins) {
            tree.insert(ctx, key);
          } else {
            tree.erase(ctx, key);
          }
        });
      });
      table.add_row({name, harness::fmt(stats.throughput() / 1e6, 2),
                     harness::fmt(stats.attempts_per_op(), 2),
                     harness::fmt(stats.nonspec_fraction(), 3)});
    };
    locks::TtasLock plain;
    run_one("TTAS HLE", [&](tsx::Ctx& ctx, auto body) {
      return locks::hle_region(ctx, plain, body);
    });
    locks::BackoffTtasLock backoff;
    run_one("TTAS-backoff HLE", [&](tsx::Ctx& ctx, auto body) {
      return locks::hle_region(ctx, backoff, body);
    });
    locks::TtasLock scm_main;
    locks::McsLock scm_aux;
    run_one("TTAS HLE-SCM", [&](tsx::Ctx& ctx, auto body) {
      return locks::scm_region(ctx, scm_main, scm_aux, locks::ScmParams{},
                               body);
    });
    table.print();
  }
  return 0;
}

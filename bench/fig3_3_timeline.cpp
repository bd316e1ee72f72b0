// Figure 3.3 — serialization dynamics over time: per-slot throughput
// (normalized to the whole-run average) and the per-slot fraction of
// non-speculative completions. Tree size 64, 8 threads, 10i/10d/80l.
//
// Expected shape: MCS runs (almost) fully non-speculatively in every slot;
// TTAS fluctuates, with throughput dips correlated with slots in which more
// operations complete non-speculatively.
#include <cstdio>

#include "harness/rb_workload.hpp"
#include "harness/report.hpp"

namespace {

void timeline_for(elision::harness::LockSel lock) {
  using namespace elision;
  using namespace elision::harness;
  RbPoint p;
  p.size = 64;
  p.update_pct = 20;
  p.lock = lock;
  p.scheme = locks::ElisionPolicy::hle();
  p.duration_sec = 0.004;
  // 1 ms slots in the paper; use 100 us so the short run has ~40 slots.
  p.timeline_slot_cycles = 340000;
  const auto stats = run_rb_point(p);

  // The timeline merges all seed runs slot-wise, so normalize against the
  // average over populated slots (elapsed_cycles spans seeds sequentially
  // and would overstate the slot count by the seed multiplier).
  std::uint64_t timeline_ops = 0;
  std::size_t populated = 0;
  for (const auto& slot : stats.timeline) {
    if (slot.ops == 0) continue;
    timeline_ops += slot.ops;
    ++populated;
  }
  if (populated == 0) return;
  const double avg_ops =
      static_cast<double>(timeline_ops) / static_cast<double>(populated);
  std::printf("\n-- %s lock (HLE), 100us slots --\n", lock_sel_name(lock));
  harness::Table table({"slot", "normalized-throughput", "nonspec-frac"});
  for (std::size_t s = 0; s < stats.timeline.size(); ++s) {
    const auto& slot = stats.timeline[s];
    if (slot.ops == 0) continue;
    table.add_row(
        {harness::fmt_int(s),
         harness::fmt(static_cast<double>(slot.ops) / avg_ops, 3),
         harness::fmt(static_cast<double>(slot.nonspec_ops) /
                      static_cast<double>(slot.ops), 3)});
  }
  table.print();
}

}  // namespace

int main() {
  using namespace elision;
  harness::banner("Figure 3.3",
                  "Serialization dynamics of an HLE execution over time "
                  "(size 64, 8 threads, 10i/10d/80l).\n"
                  "Expect: MCS non-spec fraction ~1 in every slot; TTAS "
                  "fluctuating throughput correlated with non-spec bursts.");
  timeline_for(harness::LockSel::kMcs);
  timeline_for(harness::LockSel::kTtas);
  return 0;
}

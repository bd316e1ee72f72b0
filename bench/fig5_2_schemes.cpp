// Figure 5.2 — speedup of the software-assisted schemes over the plain HLE
// version of the same lock, across tree sizes and contention levels.
//
// Expected shape: large gains on the MCS lock everywhere (the avalanche is
// eliminated); on TTAS the gains appear once there is contention;
// pessimistic SLR fails to scale on TTAS.
#include <cstdio>

#include "harness/rb_workload.hpp"
#include "harness/report.hpp"

int main() {
  using namespace elision;
  using namespace elision::harness;
  harness::banner("Figure 5.2",
                  "Speedup of HLE-SCM / pes-SLR / opt-SLR / opt-SLR-SCM "
                  "over the plain-HLE lock (8 threads).\n"
                  "Expect: MCS gains 2-10x everywhere; TTAS gains grow "
                  "with contention; pes-SLR poor on TTAS.");
  for (const auto& mix : kMixes) {
    std::printf("\n-- %s --\n", mix.name);
    harness::Table table({"lock", "tree-size", "HLE-SCM", "pes-SLR",
                          "opt-SLR", "opt-SLR-SCM"});
    for (const LockSel lock : {LockSel::kTtas, LockSel::kMcs}) {
      for (const std::size_t size : kTreeSizesSmall) {
        RbPoint p;
        p.size = size;
        p.update_pct = mix.update_pct;
        p.lock = lock;
        p.scheme = locks::ElisionPolicy::hle();
        const double hle = run_rb_point(p).throughput();
        std::vector<std::string> row{lock_sel_name(lock),
                                     harness::fmt_int(size)};
        for (const auto& policy :
             {locks::ElisionPolicy::hle_scm(), locks::ElisionPolicy::pes_slr(),
              locks::ElisionPolicy::opt_slr(),
              locks::ElisionPolicy::opt_slr_scm()}) {
          p.scheme = policy;
          row.push_back(harness::fmt(run_rb_point(p).throughput() / hle, 2));
        }
        table.add_row(std::move(row));
      }
    }
    table.print();
  }
  return 0;
}

// Chapter 7 — the proposed hardware extension: distinguishing lock-line
// conflicts from data conflicts lets speculative threads survive a
// non-speculative lock acquisition (continuing within their cache
// footprint, suspending on growth).
//
// Expected shape: with the extension, plain HLE recovers much of the
// concurrency that the avalanche destroys — fewer attempts/op, a lower
// non-speculative fraction, and higher throughput, approaching SCM without
// any software assistance.
#include <cstdio>

#include "harness/rb_workload.hpp"
#include "harness/report.hpp"

int main() {
  using namespace elision;
  using namespace elision::harness;
  harness::banner("Chapter 7 hardware extension",
                  "HLE vs HLE+extension (8 threads).\n"
                  "Expect: the extension reduces attempts/op and the "
                  "non-speculative fraction, recovering throughput lost "
                  "to the avalanche.");
  for (const auto& mix : kMixes) {
    std::printf("\n-- %s --\n", mix.name);
    harness::Table table({"lock", "tree-size", "HLE Mops/s", "ext Mops/s",
                          "ext-speedup", "HLE att/op", "ext att/op",
                          "HLE nonspec", "ext nonspec"});
    for (const LockSel lock : {LockSel::kTtas, LockSel::kMcs}) {
      for (const std::size_t size : {8ULL, 128ULL, 2048ULL, 32768ULL}) {
        RbPoint p;
        p.size = size;
        p.update_pct = mix.update_pct;
        p.lock = lock;
        p.scheme = locks::ElisionPolicy::hle();
        p.tsx.hardware_extension = false;
        const auto plain = run_rb_point(p);
        p.tsx.hardware_extension = true;
        const auto ext = run_rb_point(p);
        table.add_row({lock_sel_name(lock), harness::fmt_int(size),
                       harness::fmt(plain.throughput() / 1e6, 2),
                       harness::fmt(ext.throughput() / 1e6, 2),
                       harness::fmt(ext.throughput() / plain.throughput(), 2),
                       harness::fmt(plain.attempts_per_op(), 2),
                       harness::fmt(ext.attempts_per_op(), 2),
                       harness::fmt(plain.nonspec_fraction(), 3),
                       harness::fmt(ext.nonspec_fraction(), 3)});
      }
    }
    table.print();
  }
  return 0;
}

// Runs one STAMP application (default: intruder) under every scheme and
// prints the normalized run times — a one-binary tour of Figure 5.4.
//
//   usage: stamp_demo [genome|intruder|kmeans_high|kmeans_low|ssca2|
//                      vacation_high|vacation_low]
#include <cstdio>
#include <cstring>
#include <string>

#include "stamp/common.hpp"

using namespace elision;

int main(int argc, char** argv) {
  const std::string app = argc > 1 ? argv[1] : "intruder";
  bool known = false;
  for (const char* name : stamp::kAppNames) {
    if (app == name) known = true;
  }
  if (!known) {
    std::fprintf(stderr, "unknown app '%s'\n", app.c_str());
    return 1;
  }

  std::printf("STAMP '%s', 8 threads, TTAS and MCS locks:\n\n", app.c_str());
  for (const auto lock : {stamp::LockKind::kTtas, stamp::LockKind::kMcs}) {
    stamp::StampConfig cfg;
    cfg.lock = lock;
    cfg.scale = 0.5;
    const auto base = stamp::run_app(app, cfg);
    std::printf("%s lock (standard run: %.2f simulated ms)\n",
                stamp::lock_name(lock),
                1e3 * base.seconds(cfg.machine.ghz));
    for (const auto& policy : locks::kAllSixPolicies) {
      cfg.policy = policy;
      const auto r = stamp::run_app(app, cfg);
      std::printf("  %-12s normalized time %.3f   attempts/op %.2f   %s\n",
                  policy.name(),
                  static_cast<double>(r.elapsed_cycles) / base.elapsed_cycles,
                  r.attempts_per_op(),
                  r.invariants_ok ? "ok" : "INVARIANTS VIOLATED");
    }
    std::printf("\n");
  }
  return 0;
}

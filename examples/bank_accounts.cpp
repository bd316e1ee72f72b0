// Bank-account transfers: the classic critical-section workload, and a
// live demonstration of the avalanche effect.
//
// All transfers lock ONE global (fair MCS) lock. Most transfers touch
// distinct accounts, so nearly all could run concurrently — but under
// plain HLE, the occasional conflicting pair serializes *everyone* (the
// avalanche). SCM serializes only the conflicting pair.
//
// The example also verifies the ground truth: money is conserved under
// every scheme.
#include <cstdio>
#include <vector>

#include "harness/runner.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "support/align.hpp"
#include "tsx/shared.hpp"

using namespace elision;

namespace {

constexpr int kAccounts = 1024;
constexpr std::int64_t kInitialBalance = 1000;

struct Bank {
  std::vector<support::CacheAligned<tsx::Shared<std::int64_t>>> accounts;
  Bank() : accounts(kAccounts) {
    for (auto& a : accounts) a.value.unsafe_set(kInitialBalance);
  }
  std::int64_t total() const {
    std::int64_t sum = 0;
    for (const auto& a : accounts) sum += a.value.unsafe_get();
    return sum;
  }
};

void run_with_policy(locks::ElisionPolicy policy) {
  Bank bank;
  locks::McsLock lock;  // a fair lock, as a real bank would want
  locks::CriticalSection<locks::McsLock> cs(policy, lock);

  harness::BenchConfig cfg;
  cfg.threads = 8;
  cfg.duration_sec = 0.002;

  const auto stats = harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
    auto& rng = ctx.thread().rng();
    const auto from = static_cast<std::size_t>(rng.next_below(kAccounts));
    const auto to = static_cast<std::size_t>(rng.next_below(kAccounts));
    const auto amount = static_cast<std::int64_t>(rng.next_below(100));
    return cs.run(ctx, [&] {
      auto& a = bank.accounts[from].value;
      auto& b = bank.accounts[to].value;
      if (a.load(ctx) >= amount) {
        a.store(ctx, a.load(ctx) - amount);
        b.store(ctx, b.load(ctx) + amount);
      }
    });
  });

  const bool conserved = bank.total() == kAccounts * kInitialBalance;
  std::printf("  %-12s %8.2f Mtransfers/s   non-speculative %5.1f%%   money %s\n",
              policy.name(), stats.throughput() / 1e6,
              100 * stats.nonspec_fraction(),
              conserved ? "conserved" : "LOST — BUG!");
}

}  // namespace

int main() {
  std::printf("Bank transfers over one global fair (MCS) lock, 8 threads:\n\n");
  for (const auto& policy :
       {locks::ElisionPolicy::standard(), locks::ElisionPolicy::hle(),
        locks::ElisionPolicy::hle_scm(), locks::ElisionPolicy::opt_slr_scm()}) {
    run_with_policy(policy);
  }
  std::printf(
      "\nPlain HLE on a fair lock collapses to a serial run after the first\n"
      "conflict (the avalanche). SCM keeps the non-conflicting transfers\n"
      "speculative, restoring the concurrency the workload always had.\n");
  return 0;
}

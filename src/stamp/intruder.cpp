// STAMP intruder: network intrusion detection via packet-flow reassembly.
//
// Fragments of many flows arrive interleaved on a shared queue. Each worker
// transactionally pops a fragment (a tiny, highly contended transaction on
// the queue cursor) and transactionally folds it into the per-flow
// reassembly state (a moderate transaction on the flow map); completed flows
// are scanned for "attack" signatures outside any transaction. The queue
// makes intruder the most contended STAMP application here, which is why the
// paper sees the largest plain-HLE gain on it (up to 2x with TTAS).
#include <cstdint>
#include <vector>

#include "ds/hashtable.hpp"
#include "stamp/detail.hpp"
#include "support/rng.hpp"
#include "tsx/shared.hpp"

namespace elision::stamp {

namespace {

struct Fragment {
  std::uint32_t flow;
  std::uint16_t index;
  std::uint16_t count;  // fragments in this flow
  std::uint64_t payload;
};

}  // namespace

StampResult run_intruder(const StampConfig& cfg) {
  const auto n_flows = static_cast<std::size_t>(1024 * cfg.scale);

  // Build fragments and shuffle them (host side).
  support::Xoshiro256 rng(cfg.seed);
  std::vector<Fragment> fragments;
  std::vector<std::uint64_t> flow_sum(n_flows, 0);
  for (std::size_t f = 0; f < n_flows; ++f) {
    const auto count = static_cast<std::uint16_t>(2 + rng.next_below(5));
    for (std::uint16_t i = 0; i < count; ++i) {
      const std::uint64_t payload = rng.next();
      fragments.push_back({static_cast<std::uint32_t>(f), i, count, payload});
      flow_sum[f] += payload;
    }
  }
  for (std::size_t i = fragments.size(); i > 1; --i) {
    std::swap(fragments[i - 1], fragments[rng.next_below(i)]);
  }

  // Shared state: the arrival queue cursor and the reassembly map
  // flow -> (fragments seen, payload accumulator).
  support::CacheAligned<tsx::Shared<std::uint64_t>> cursor;
  ds::HashTable seen_count(2048, n_flows + 64);
  ds::HashTable payload_acc(2048, n_flows + 64);

  return detail::dispatch_lock(cfg, [&](auto& lock) {
    using Lock = std::remove_reference_t<decltype(lock)>;
    sim::Scheduler sched(cfg.machine);
    tsx::Engine eng(sched, cfg.tsx);
    locks::CriticalSection<Lock> cs(cfg.policy, lock);
    std::vector<OpTally> tallies(cfg.threads);
    std::vector<std::uint64_t> attacks(cfg.threads, 0);

    for (int t = 0; t < cfg.threads; ++t) {
      sched.spawn([&, t](sim::SimThread& st) {
        auto& ctx = eng.context(st);
        for (;;) {
          // Pop a fragment: a tiny transaction on the shared cursor.
          std::size_t idx = fragments.size();
          tallies[t].add(cs.run(ctx, [&] {
            const std::uint64_t c = cursor.value.load(ctx);
            if (c < fragments.size()) {
              cursor.value.store(ctx, c + 1);
              idx = static_cast<std::size_t>(c);
            } else {
              idx = fragments.size();
            }
          }));
          if (idx >= fragments.size()) break;
          const Fragment frag = fragments[idx];
          // Reassemble: fold the fragment into the flow state.
          bool complete = false;
          std::uint64_t total = 0;
          tallies[t].add(cs.run(ctx, [&] {
            const std::uint64_t seen =
                seen_count.upsert_add(ctx, frag.flow + 1, 1);
            total = payload_acc.upsert_add(ctx, frag.flow + 1, frag.payload);
            complete = (seen == frag.count);
          }));
          if (complete) {
            // Detection phase: pure compute outside any critical section.
            ctx.engine().compute(ctx, 64 * frag.count);
            if (total % 16 == 0) ++attacks[t];
          }
        }
      });
    }
    sched.run();

    std::uint64_t total_attacks = 0;
    for (const auto a : attacks) total_attacks += a;
    // Oracle: recompute expected attacks from the host-side flow sums.
    std::uint64_t expected = 0;
    for (std::size_t f = 0; f < n_flows; ++f) {
      if (flow_sum[f] % 16 == 0) ++expected;
    }
    auto r = detail::collect("intruder", total_attacks * 100000 + expected,
                             sched.elapsed_cycles(), tallies);
    r.invariants_ok = (total_attacks == expected);
    return r;
  });
}

}  // namespace elision::stamp

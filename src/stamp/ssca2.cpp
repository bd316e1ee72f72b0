// STAMP ssca2 (kernel 1): parallel construction of a graph's adjacency
// lists from an edge list.
//
// Transactional character: very short transactions (prepend one node to a
// vertex's list) with low contention (random vertices rarely collide), which
// is why ssca2 benefits little from any scheme in the paper's Fig 5.4.
#include <cstdint>
#include <vector>

#include "stamp/detail.hpp"
#include "support/rng.hpp"
#include "tsx/shared.hpp"

namespace elision::stamp {

namespace {

struct alignas(support::kCacheLineBytes) AdjNode {
  tsx::Shared<std::uint64_t> to;
  tsx::Shared<AdjNode*> next;
};

}  // namespace

StampResult run_ssca2(const StampConfig& cfg) {
  const auto n_vertices = static_cast<std::size_t>(1024 * cfg.scale);
  const std::size_t n_edges = n_vertices * 8;

  // Host-generated edge list with a skewed (R-MAT-like) source distribution.
  support::Xoshiro256 rng(cfg.seed);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges(n_edges);
  for (auto& e : edges) {
    std::uint64_t u = rng.next_below(n_vertices);
    if (rng.next_below(4) == 0) u = rng.next_below(n_vertices / 16 + 1);
    e = {u, rng.next_below(n_vertices)};
  }

  tsx::SharedArray<AdjNode*> heads(n_vertices);
  // Per-thread node arenas: no allocator sharing (cf. jemalloc in the paper).
  std::vector<AdjNode> arena(n_edges);

  return detail::dispatch_lock(cfg, [&](auto& lock) {
    using Lock = std::remove_reference_t<decltype(lock)>;
    sim::Scheduler sched(cfg.machine);
    tsx::Engine eng(sched, cfg.tsx);
    locks::CriticalSection<Lock> cs(cfg.policy, lock);
    std::vector<OpTally> tallies(cfg.threads);

    for (int t = 0; t < cfg.threads; ++t) {
      sched.spawn([&, t](sim::SimThread& st) {
        auto& ctx = eng.context(st);
        const auto [lo, hi] = detail::partition(n_edges, t, cfg.threads);
        for (std::size_t i = lo; i < hi; ++i) {
          AdjNode* node = &arena[i];
          const auto [u, v] = edges[i];
          tallies[t].add(cs.run(ctx, [&] {
            node->to.store(ctx, v);
            node->next.store(ctx, heads[u].load(ctx));
            heads[u].store(ctx, node);
          }));
        }
      });
    }
    sched.run();

    std::uint64_t checksum = 0;
    for (std::size_t v = 0; v < n_vertices; ++v) {
      std::uint64_t degree = 0, sum = 0;
      for (const AdjNode* n = heads[v].unsafe_get(); n != nullptr;
           n = n->next.unsafe_get()) {
        ++degree;
        sum += n->to.unsafe_get();
      }
      checksum = checksum * 31 + degree * 7 + sum;
    }
    return detail::collect("ssca2", checksum, sched.elapsed_cycles(),
                           tallies);
  });
}

}  // namespace elision::stamp

// STAMP genome: gene sequencing by segment deduplication and overlap
// matching.
//
// Phase 1 deduplicates the sampled segments into a shared hash set (insert
// transactions of moderate length). Phase 2 searches, for every unique
// segment, candidate successors by overlap hash and records the matches
// (lookup-dominated transactions). Contention is low-to-moderate, and the
// transactions are long enough that genome is the one application where
// HLE-SCM clearly beats plain HLE on TTAS in the paper (up to 1.5x).
#include <cstdint>
#include <vector>

#include "ds/hashtable.hpp"
#include "stamp/detail.hpp"
#include "support/rng.hpp"

namespace elision::stamp {

namespace {

// Overlap-candidate key: shift out `overlap` low bits and mix in a probe.
std::uint64_t successor_candidate(std::uint64_t segment, int overlap,
                                  std::uint64_t probe) {
  std::uint64_t x = (segment >> overlap) ^ (probe * 0x9E3779B97F4A7C15ULL);
  x ^= x >> 29;
  return x;
}

}  // namespace

StampResult run_genome(const StampConfig& cfg) {
  const auto n_segments = static_cast<std::size_t>(8192 * cfg.scale);
  const std::size_t gene_length = n_segments / 2;

  // The "gene": segments sampled with duplicates from a synthetic genome.
  support::Xoshiro256 rng(cfg.seed);
  std::vector<std::uint64_t> gene(gene_length);
  for (auto& g : gene) g = rng.next() | 1;  // non-zero keys
  std::vector<std::uint64_t> segments(n_segments);
  for (auto& s : segments) s = gene[rng.next_below(gene_length)];

  ds::HashTable table(4096, gene_length + n_segments / 4 + 64);

  return detail::dispatch_lock(cfg, [&](auto& lock) {
    using Lock = std::remove_reference_t<decltype(lock)>;
    sim::Scheduler sched(cfg.machine);
    tsx::Engine eng(sched, cfg.tsx);
    locks::CriticalSection<Lock> cs(cfg.policy, lock);
    SimBarrier barrier(cfg.threads);
    std::vector<OpTally> tallies(cfg.threads);
    std::vector<std::uint64_t> matches(cfg.threads, 0);

    for (int t = 0; t < cfg.threads; ++t) {
      sched.spawn([&, t](sim::SimThread& st) {
        auto& ctx = eng.context(st);
        const auto [lo, hi] = detail::partition(n_segments, t, cfg.threads);
        // Phase 1: deduplicate segments into the shared hash set.
        for (std::size_t i = lo; i < hi; ++i) {
          tallies[t].add(cs.run(ctx, [&] {
            table.insert(ctx, segments[i], 0);
          }));
        }
        barrier.wait(ctx);
        // Phase 2: overlap matching — look up candidate successors of each
        // of this thread's segments and record matches.
        for (std::size_t i = lo; i < hi; ++i) {
          const std::uint64_t seg = segments[i];
          std::uint64_t local_matches = 0;
          tallies[t].add(cs.run(ctx, [&] {
            local_matches = 0;
            for (int overlap = 8; overlap <= 24; overlap += 8) {
              const std::uint64_t cand =
                  successor_candidate(seg, overlap, seg & 0xFF);
              std::uint64_t v;
              if (table.lookup(ctx, cand, &v)) {
                table.upsert_add(ctx, cand, 1);  // link strength
                ++local_matches;
              }
            }
          }));
          matches[t] += local_matches;
        }
      });
    }
    sched.run();

    std::uint64_t total_matches = 0;
    for (const auto m : matches) total_matches += m;
    const std::uint64_t checksum =
        table.unsafe_size() * 1000003ULL + total_matches;
    return detail::collect("genome", checksum, sched.elapsed_cycles(),
                           tallies);
  });
}

}  // namespace elision::stamp

// The sharded key-value service: the repo's "production" workload (ROADMAP
// item 1 — the millions-of-users scenario the paper's coarse-grained-plus-
// elision pitch is aimed at).
//
// Layout follows the paper's advice and the allocator findings of Dice et
// al.: each shard is a coarse critical section — an rbtree key index plus a
// hashtable value store — behind its *own* lock with its own
// CriticalSection (so an independent ElisionPolicy, and under
// Scheme::kAdaptive an independent per-shard controller). Shards are
// placement-new'ed into a LineAlignedAllocator buffer so no two shards'
// lock words or headers share a cache line; false sharing between shards
// would otherwise manufacture cross-shard aborts the real service would
// never see.
//
// Cross-shard operations (multi_put / transfer) are a single elision region
// over *all* involved shard locks: one transaction subscribes every
// involved lock word (aborting with kAbortCodeLockBusy if any is held), so
// a commit is atomic across shards without any global lock. Conflict
// management is grouped-SCM (locks/grouped_scm.hpp): an aborted thread
// serializes on the aux group of the conflicting cache line. The
// non-speculative fallback acquires the involved shard locks in ascending
// shard-index order — the canonical deadlock-free total order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "ds/hashtable.hpp"
#include "ds/rbtree.hpp"
#include "locks/grouped_scm.hpp"
#include "locks/schemes.hpp"
#include "locks/ttas_lock.hpp"
#include "support/align.hpp"
#include "support/check.hpp"

namespace elision::service {

struct KvPair {
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

template <typename Lock>
class ShardedKvT {
 public:
  // Cross-shard ops touch at most this many distinct shards.
  static constexpr int kMaxOpShards = 8;

  struct Config {
    int shards = 8;
    // Key domain [0, keys): sizes the per-shard node pools.
    std::size_t keys = 8192;
    // 0 = derive from keys (2x the expected per-shard population).
    std::size_t capacity_per_shard = 0;
    // Simulated threads the per-shard free lists are distributed over.
    int threads = 8;
    // Policy for every shard; shard i overrides with
    // shard_policies[i % shard_policies.size()] when non-empty.
    locks::ElisionPolicy policy = locks::ElisionPolicy::hle();
    std::vector<locks::ElisionPolicy> shard_policies;
    // Retries before a cross-shard region gives up speculation.
    locks::GroupedScmParams cross_shard;
    // Maintain a per-shard running total of stored values inside the same
    // critical regions that mutate the shard. Costs one extra shared word
    // in every mutating write set; the stress checkers key on it (a lost
    // cross-shard update shows up as audit drift).
    bool track_totals = false;
  };

  explicit ShardedKvT(const Config& cfg)
      : cfg_(cfg), n_shards_(cfg.shards) {
    ELISION_CHECK(cfg.shards >= 1);
    const std::size_t cap =
        cfg.capacity_per_shard != 0
            ? cfg.capacity_per_shard
            : cfg.keys / static_cast<std::size_t>(cfg.shards) * 2 + 128;
    shards_ = alloc_.allocate(static_cast<std::size_t>(n_shards_));
    for (int i = 0; i < n_shards_; ++i) {
      const auto& pol =
          cfg.shard_policies.empty()
              ? cfg.policy
              : cfg.shard_policies[static_cast<std::size_t>(i) %
                                   cfg.shard_policies.size()];
      new (&shards_[i]) Shard(cap, cfg.threads, pol);
    }
  }

  ShardedKvT(const ShardedKvT&) = delete;
  ShardedKvT& operator=(const ShardedKvT&) = delete;

  ~ShardedKvT() {
    for (int i = 0; i < n_shards_; ++i) shards_[i].~Shard();
    alloc_.deallocate(shards_, static_cast<std::size_t>(n_shards_));
  }

  int n_shards() const { return n_shards_; }

  // Deterministic key -> shard routing (splitmix-style mix so dense key
  // ranges spread; a Zipf-hot key still pins one shard, which is the
  // hot-shard scenario the benchmarks study).
  int shard_of(std::uint64_t key) const {
    std::uint64_t x = key;
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    return static_cast<int>(x % static_cast<std::uint64_t>(n_shards_));
  }

  // --- single-shard operations ---

  // Sets key -> value. *inserted (optional) reports whether the key was
  // new; *old_value (optional) the replaced value (0 when fresh). Out-params
  // reflect the committed attempt, so callers can maintain exact ledgers.
  locks::RegionResult put(tsx::Ctx& ctx, std::uint64_t key,
                          std::uint64_t value, bool* inserted = nullptr,
                          std::uint64_t* old_value = nullptr) {
    Shard& sh = shards_[shard_of(key)];
    bool fresh = false;
    std::uint64_t old = 0;
    const auto r = sh.cs.run(ctx, [&] {
      old = 0;  // reset per attempt: aborts roll back shared state only
      sh.index.insert(ctx, key);
      sh.values.lookup(ctx, key, &old);
      fresh = sh.values.insert_or_assign(ctx, key, value);
      if (cfg_.track_totals) {
        sh.total.value.store(ctx, sh.total.value.load(ctx) + value - old);
      }
    });
    if (inserted != nullptr) *inserted = fresh;
    if (old_value != nullptr) *old_value = old;
    return r;
  }

  locks::RegionResult get(tsx::Ctx& ctx, std::uint64_t key,
                          std::uint64_t* value, bool* found = nullptr) {
    Shard& sh = shards_[shard_of(key)];
    bool hit = false;
    const auto r = sh.cs.run(ctx, [&] {
      hit = sh.values.lookup(ctx, key, value);
    });
    if (found != nullptr) *found = hit;
    return r;
  }

  locks::RegionResult erase(tsx::Ctx& ctx, std::uint64_t key,
                            bool* erased = nullptr,
                            std::uint64_t* old_value = nullptr) {
    Shard& sh = shards_[shard_of(key)];
    bool hit = false;
    std::uint64_t old = 0;
    const auto r = sh.cs.run(ctx, [&] {
      old = 0;
      hit = sh.index.erase(ctx, key);
      if (hit) {
        sh.values.lookup(ctx, key, &old);
        sh.values.erase(ctx, key);
        if (cfg_.track_totals) {
          sh.total.value.store(ctx, sh.total.value.load(ctx) - old);
        }
      }
    });
    if (erased != nullptr) *erased = hit;
    if (old_value != nullptr) *old_value = old;
    return r;
  }

  // --- cross-shard transactions ---

  // Atomically sets every pair (at most kMaxOpShards distinct shards; later
  // duplicates of a key win, like sequential puts). *delta (optional)
  // reports the committed net change of the summed stored values.
  locks::RegionResult multi_put(tsx::Ctx& ctx, const KvPair* pairs,
                                int n_pairs, std::int64_t* delta = nullptr) {
    Shard* involved[kMaxOpShards];
    const int n = collect_shards(pairs, n_pairs, involved);
    std::int64_t d = 0;
    const auto r = cross_shard_region(ctx, involved, n, [&] {
      d = 0;  // reset per attempt: aborts roll back shared state, not locals
      for (int i = 0; i < n_pairs; ++i) {
        Shard& sh = shards_[shard_of(pairs[i].key)];
        sh.index.insert(ctx, pairs[i].key);
        std::uint64_t old = 0;
        sh.values.lookup(ctx, pairs[i].key, &old);
        sh.values.insert_or_assign(ctx, pairs[i].key, pairs[i].value);
        d += static_cast<std::int64_t>(pairs[i].value) -
             static_cast<std::int64_t>(old);
        if (cfg_.track_totals) {
          sh.total.value.store(ctx,
                               sh.total.value.load(ctx) + pairs[i].value - old);
        }
      }
    });
    if (delta != nullptr) *delta = d;
    return r;
  }

  // Atomically moves up to `amount` from `from`'s value to `to`'s
  // (inserting `to` if absent; a no-op when `from` is absent or empty).
  // Conserves the summed value across shards — the cross-shard lost-update
  // invariant the stress checker audits. *moved (optional) reports the
  // amount actually transferred.
  locks::RegionResult transfer(tsx::Ctx& ctx, std::uint64_t from,
                               std::uint64_t to, std::uint64_t amount,
                               std::uint64_t* moved = nullptr) {
    Shard& sf = shards_[shard_of(from)];
    Shard& st = shards_[shard_of(to)];
    Shard* involved[2] = {&sf, &st};
    const int n = &sf == &st ? 1 : 2;
    if (n == 2 && shard_of(from) > shard_of(to)) {
      std::swap(involved[0], involved[1]);
    }
    std::uint64_t m = 0;
    const auto r = cross_shard_region(ctx, involved, n, [&] {
      m = 0;  // reset per attempt: aborts roll back shared state, not locals
      if (from == to) return;  // self-transfer: nothing moves
      std::uint64_t v = 0;
      if (!sf.values.lookup(ctx, from, &v)) return;
      m = amount < v ? amount : v;
      if (m == 0) return;
      sf.values.insert_or_assign(ctx, from, v - m);
      st.index.insert(ctx, to);
      st.values.upsert_add(ctx, to, m);
      if (cfg_.track_totals) {
        sf.total.value.store(ctx, sf.total.value.load(ctx) - m);
        st.total.value.store(ctx, st.total.value.load(ctx) + m);
      }
    });
    if (moved != nullptr) *moved = m;
    return r;
  }

  // --- setup / verification (no simulated threads running) ---

  bool unsafe_put(std::uint64_t key, std::uint64_t value) {
    Shard& sh = shards_[shard_of(key)];
    sh.index.unsafe_insert(key);
    const bool fresh = sh.values.unsafe_insert(key, value);
    if (fresh && cfg_.track_totals) {
      sh.total.value.unsafe_set(sh.total.value.unsafe_get() + value);
    }
    return fresh;
  }

  // Call once after prefilling (see RbTree::unsafe_distribute_free_lists).
  void unsafe_distribute_free_lists(int n_threads) {
    for (int i = 0; i < n_shards_; ++i) {
      shards_[i].index.unsafe_distribute_free_lists(n_threads);
    }
  }

  std::size_t unsafe_size() const {
    std::size_t n = 0;
    for (int i = 0; i < n_shards_; ++i) n += shards_[i].index.unsafe_size();
    return n;
  }

  std::size_t unsafe_shard_size(int shard) const {
    return shards_[shard].index.unsafe_size();
  }

  // Sum of all stored values across all shards (what transfer conserves).
  std::uint64_t unsafe_total_value() const {
    std::uint64_t total = 0;
    for (int i = 0; i < n_shards_; ++i) {
      for (const std::uint64_t key : shards_[i].index.unsafe_keys()) {
        std::uint64_t v = 0;
        if (shards_[i].values.unsafe_lookup(key, &v)) total += v;
      }
    }
    return total;
  }

  // Structural + accounting invariants: both per-shard structures validate,
  // index and value store agree key-for-key, every key routes to the shard
  // holding it, and (when track_totals) the stored values sum to the
  // audited per-shard total — a torn cross-shard update breaks the last one.
  bool unsafe_validate(std::string* why = nullptr) const {
    const auto fail = [why](const std::string& what) {
      if (why != nullptr) *why = what;
      return false;
    };
    for (int i = 0; i < n_shards_; ++i) {
      const Shard& sh = shards_[i];
      std::string sub;
      if (!sh.index.unsafe_validate(&sub)) {
        return fail("shard " + std::to_string(i) + " index: " + sub);
      }
      if (!sh.values.unsafe_validate(&sub)) {
        return fail("shard " + std::to_string(i) + " values: " + sub);
      }
      const auto keys = sh.index.unsafe_keys();
      if (keys.size() != sh.values.unsafe_size()) {
        return fail("shard " + std::to_string(i) +
                    ": index/value-store size mismatch");
      }
      std::uint64_t sum = 0;
      for (const std::uint64_t key : keys) {
        if (shard_of(key) != i) {
          return fail("shard " + std::to_string(i) +
                      " holds a key routed elsewhere");
        }
        std::uint64_t v = 0;
        if (!sh.values.unsafe_lookup(key, &v)) {
          return fail("shard " + std::to_string(i) +
                      ": indexed key missing from the value store");
        }
        sum += v;
      }
      if (cfg_.track_totals && sum != sh.total.value.unsafe_get()) {
        return fail("shard " + std::to_string(i) +
                    ": audited total drifted from stored values "
                    "(lost or torn update)");
      }
    }
    return true;
  }

  const locks::AdaptiveController& shard_adaptive(int shard) const {
    return shards_[shard].cs.adaptive();
  }

 private:
  struct alignas(support::kCacheLineBytes) Shard {
    ds::RbTree index;
    ds::HashTable values;
    Lock lock;
    locks::CriticalSection<Lock> cs;
    // Audited running total of stored values (track_totals).
    support::CacheAligned<tsx::Shared<std::uint64_t>> total;

    Shard(std::size_t cap, int n_threads, const locks::ElisionPolicy& pol)
        : index(cap),
          values(std::max<std::size_t>(cap / 4, 16), cap, n_threads),
          cs(pol, lock) {}
  };

  // Dedup + sort the involved shards by index: the fallback's lock
  // acquisition order. Returns the number of distinct shards.
  int collect_shards(const KvPair* pairs, int n_pairs,
                     Shard** out) {
    ELISION_CHECK(n_pairs >= 1);
    int idx[kMaxOpShards];
    int n = 0;
    for (int i = 0; i < n_pairs; ++i) {
      const int s = shard_of(pairs[i].key);
      bool seen = false;
      for (int j = 0; j < n; ++j) seen = seen || idx[j] == s;
      if (!seen) {
        ELISION_CHECK_MSG(n < kMaxOpShards,
                          "multi_put spans more than kMaxOpShards shards");
        idx[n++] = s;
      }
    }
    // Tiny insertion sort (n <= kMaxOpShards).
    for (int i = 1; i < n; ++i) {
      const int v = idx[i];
      int j = i - 1;
      while (j >= 0 && idx[j] > v) {
        idx[j + 1] = idx[j];
        --j;
      }
      idx[j + 1] = v;
    }
    for (int i = 0; i < n; ++i) out[i] = &shards_[idx[i]];
    return n;
  }

  // One elision region over `n` shard locks (ascending shard index).
  // Mirrors locks::grouped_scm_region with the single lock-busy
  // subscription generalized to every involved lock word.
  template <typename Body>
  locks::RegionResult cross_shard_region(tsx::Ctx& ctx, Shard* const* sh,
                                         int n, Body&& body) {
    auto& eng = ctx.engine();
    locks::RegionResult r;
    if (cfg_.policy.scheme == locks::Scheme::kStandard) {
      // The service is configured non-speculative: take the locks directly,
      // like every single-shard region under the Standard scheme.
      complete_all_locked(ctx, sh, n, r, body);
      return r;
    }
    int retries = 0;
    locks::McsLock* aux = nullptr;
    for (;;) {
      ++r.attempts;
      const unsigned st = eng.run_transaction(ctx, [&] {
        for (int i = 0; i < n; ++i) {
          if (!locks::detail::subscribe_lock(ctx, sh[i]->lock,
                                             locks::AccessMode::kExclusive)) {
            return;
          }
        }
        body();
      });
      if (st == tsx::kCommitted) {
        r.speculative = true;
        if (aux != nullptr) eng.note_event(ctx, tsx::EventKind::kAuxRejoin);
        break;
      }
      r.last_abort = ctx.last_abort_cause();
      if ((st & tsx::status::kRetry) == 0) {
        complete_all_locked(ctx, sh, n, r, body);
        break;
      }
      if (aux == nullptr) {
        eng.note_event(ctx, tsx::EventKind::kAuxEnter,
                       ctx.last_conflict_line());
        aux = &aux_bank_.group_for(eng.line_seq(ctx.last_conflict_line()));
        aux->lock(ctx);
      } else {
        ++retries;
      }
      if (retries >= cfg_.cross_shard.max_retries) {
        complete_all_locked(ctx, sh, n, r, body);
        break;
      }
    }
    if (aux != nullptr) {
      aux->unlock(ctx);
      eng.note_event(ctx, tsx::EventKind::kAuxExit);
    }
    return r;
  }

  // Non-speculative cross-shard completion: take every involved lock in
  // ascending shard-index order (total order -> no deadlock against any
  // other multi-shard fallback), run for real, release in reverse.
  template <typename Body>
  void complete_all_locked(tsx::Ctx& ctx, Shard* const* sh, int n,
                           locks::RegionResult& r, Body& body) {
    auto& eng = ctx.engine();
    for (int i = 0; i < n; ++i) {
      eng.note_event(ctx, tsx::EventKind::kLockAcquire,
                     locks::detail::lock_line_of(sh[i]->lock));
      sh[i]->lock.lock(ctx);
    }
    ++r.attempts;
    body();
    for (int i = n - 1; i >= 0; --i) {
      sh[i]->lock.unlock(ctx);
      eng.note_event(ctx, tsx::EventKind::kLockRelease,
                     locks::detail::lock_line_of(sh[i]->lock));
    }
    r.speculative = false;
  }

  Config cfg_;
  int n_shards_;
  support::LineAlignedAllocator<Shard> alloc_;
  Shard* shards_;
  // Aux groups for cross-shard conflict serialization (service-wide: a
  // conflicting line identifies the data, not the shard).
  locks::AuxLockBank<locks::McsLock, 8> aux_bank_;
};

using ShardedKv = ShardedKvT<locks::TtasLock>;

}  // namespace elision::service

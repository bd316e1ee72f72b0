// A miniature key-value store service: GET / PUT / DELETE / RANGE-COUNT
// over a red-black tree index and a hash-table value store, all behind one
// global lock — the coarse-grained design the paper argues you can keep.
//
// Shows how to structure a real component around the library: a KvStore
// class owning its lock and scheme, with the elision machinery hidden
// behind its API.
#include <cstdio>

#include "ds/hashtable.hpp"
#include "ds/rbtree.hpp"
#include "harness/runner.hpp"
#include "locks/schemes.hpp"
#include "locks/ttas_lock.hpp"

using namespace elision;

namespace {

class KvStore {
 public:
  explicit KvStore(locks::ElisionPolicy policy)
      : index_(1 << 16), values_(4096, 1 << 16), cs_(policy, lock_) {}

  void put(tsx::Ctx& ctx, std::uint64_t key, std::uint64_t value) {
    cs_.run(ctx, [&] {
      index_.insert(ctx, key);
      values_.insert_or_assign(ctx, key, value);
    });
  }

  bool get(tsx::Ctx& ctx, std::uint64_t key, std::uint64_t* out) {
    bool found = false;
    cs_.run(ctx, [&] { found = values_.lookup(ctx, key, out); });
    return found;
  }

  bool erase(tsx::Ctx& ctx, std::uint64_t key) {
    bool erased = false;
    cs_.run(ctx, [&] {
      erased = index_.erase(ctx, key);
      if (erased) values_.erase(ctx, key);
    });
    return erased;
  }

  std::size_t unsafe_size() const { return index_.unsafe_size(); }
  bool unsafe_consistent() const {
    return index_.unsafe_size() == values_.unsafe_size() &&
           index_.unsafe_validate();
  }

 private:
  ds::RbTree index_;
  ds::HashTable values_;
  locks::TtasLock lock_;
  locks::CriticalSection<locks::TtasLock> cs_;
};

void serve(locks::ElisionPolicy policy) {
  KvStore store(policy);
  harness::BenchConfig cfg;
  cfg.threads = 8;
  cfg.duration_sec = 0.002;
  const auto stats = harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
    auto& rng = ctx.thread().rng();
    const std::uint64_t key = rng.next_below(8192);
    const auto dice = rng.next_below(100);
    if (dice < 10) {
      store.put(ctx, key, key * 3);
    } else if (dice < 15) {
      store.erase(ctx, key);
    } else {
      std::uint64_t v;
      if (store.get(ctx, key, &v) && v != key * 3) {
        std::fprintf(stderr, "CORRUPTION: %lu -> %lu\n",
                     static_cast<unsigned long>(key),
                     static_cast<unsigned long>(v));
      }
    }
    return locks::RegionResult{.speculative = true, .attempts = 1};
  });
  std::printf("  %-12s %8.2f Mreq/s   entries %zu   consistent %s\n",
              policy.name(), stats.throughput() / 1e6,
              store.unsafe_size(),
              store.unsafe_consistent() ? "yes" : "NO — BUG!");
}

}  // namespace

int main() {
  std::printf("Mini KV store (tree index + hash values, one lock), 8 threads:\n\n");
  for (const auto& policy :
       {locks::ElisionPolicy::standard(), locks::ElisionPolicy::hle(),
        locks::ElisionPolicy::hle_scm(), locks::ElisionPolicy::opt_slr()}) {
    serve(policy);
  }
  return 0;
}

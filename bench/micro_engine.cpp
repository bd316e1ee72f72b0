// Micro-benchmarks (google-benchmark) of the simulator's primitive
// operation costs: shared loads/stores, RMWs, transaction begin/commit,
// elision, and the region drivers. These measure *host* time per simulated
// operation — the simulator's own overhead — not simulated latencies.
#include <benchmark/benchmark.h>

#include <chrono>

#include "ds/rbtree.hpp"
#include "locks/region.hpp"
#include "locks/ttas_lock.hpp"
#include "tsx/line_table.hpp"
#include "tsx/shared.hpp"

namespace {

using namespace elision;

// Each iteration spins up one simulated thread performing `ops_per_run`
// operations; we report time per simulated operation.
template <typename Fn>
void run_sim(benchmark::State& state, std::int64_t ops_per_run, Fn&& fn) {
  for (auto _ : state) {
    sim::MachineConfig mcfg;
    mcfg.n_cores = 1;
    sim::Scheduler sched(mcfg);
    tsx::Engine eng(sched);
    sched.spawn([&](sim::SimThread& t) { fn(eng.context(t)); });
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * ops_per_run);
}

void BM_DirectLoad(benchmark::State& state) {
  tsx::Shared<std::uint64_t> x(1);
  run_sim(state, 10000, [&](tsx::Ctx& ctx) {
    std::uint64_t sum = 0;
    for (int i = 0; i < 10000; ++i) sum += x.load(ctx);
    benchmark::DoNotOptimize(sum);
  });
}
BENCHMARK(BM_DirectLoad);

void BM_DirectStore(benchmark::State& state) {
  tsx::Shared<std::uint64_t> x(0);
  run_sim(state, 10000, [&](tsx::Ctx& ctx) {
    for (int i = 0; i < 10000; ++i) x.store(ctx, i);
  });
}
BENCHMARK(BM_DirectStore);

void BM_DirectFetchAdd(benchmark::State& state) {
  tsx::Shared<std::uint64_t> x(0);
  run_sim(state, 10000, [&](tsx::Ctx& ctx) {
    for (int i = 0; i < 10000; ++i) x.fetch_add(ctx, 1);
  });
}
BENCHMARK(BM_DirectFetchAdd);

void BM_EmptyTransaction(benchmark::State& state) {
  run_sim(state, 5000, [&](tsx::Ctx& ctx) {
    for (int i = 0; i < 5000; ++i) {
      ctx.engine().run_transaction(ctx, [] {});
    }
  });
}
BENCHMARK(BM_EmptyTransaction);

void BM_SmallTransaction(benchmark::State& state) {
  tsx::Shared<std::uint64_t> x(0);
  run_sim(state, 5000, [&](tsx::Ctx& ctx) {
    for (int i = 0; i < 5000; ++i) {
      ctx.engine().run_transaction(ctx, [&] {
        x.store(ctx, x.load(ctx) + 1);
      });
    }
  });
}
BENCHMARK(BM_SmallTransaction);

void BM_TransactionWriteSet(benchmark::State& state) {
  const auto lines = static_cast<std::size_t>(state.range(0));
  std::vector<support::CacheAligned<tsx::Shared<std::uint64_t>>> data(lines);
  run_sim(state, 100, [&](tsx::Ctx& ctx) {
    for (int i = 0; i < 100; ++i) {
      ctx.engine().run_transaction(ctx, [&] {
        for (auto& d : data) d.value.store(ctx, i);
      });
    }
  });
}
BENCHMARK(BM_TransactionWriteSet)->Arg(8)->Arg(64)->Arg(256);

void BM_HleRegion(benchmark::State& state) {
  locks::TtasLock lock;
  tsx::Shared<std::uint64_t> x(0);
  run_sim(state, 2000, [&](tsx::Ctx& ctx) {
    for (int i = 0; i < 2000; ++i) {
      locks::hle_region(ctx, lock, [&] {
        x.store(ctx, x.load(ctx) + 1);
      });
    }
  });
}
BENCHMARK(BM_HleRegion);

void BM_RbTreeLookup(benchmark::State& state) {
  ds::RbTree tree(3000);
  for (std::uint64_t k = 0; k < 2048; ++k) tree.unsafe_insert(k * 7);
  run_sim(state, 2000, [&](tsx::Ctx& ctx) {
    for (int i = 0; i < 2000; ++i) {
      benchmark::DoNotOptimize(
          tree.contains(ctx, static_cast<std::uint64_t>(i * 13 % 14336)));
    }
  });
}
BENCHMARK(BM_RbTreeLookup);

// LineTable primitives in isolation (every simulated access pays at least
// one of these). Repeated same-line access through the per-context cache —
// the dominant pattern, since consecutive accesses usually touch the line
// they just touched.
void BM_LineTableRecordCachedHit(benchmark::State& state) {
  tsx::LineTable table;
  tsx::LineTable::Cache cache;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.record(0x1234, cache));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LineTableRecordCachedHit);

// Cycling over a working set defeats the one-entry cache and measures the
// open-addressing probe itself, at footprints spanning "fits easily" to
// "just grew".
void BM_LineTableRecordProbe(benchmark::State& state) {
  const auto lines = static_cast<std::size_t>(state.range(0));
  tsx::LineTable table;
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.record(line * 64));
    line = (line + 1) % lines;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LineTableRecordProbe)->Arg(16)->Arg(512)->Arg(8192);

// clear() is a generation bump: the refill after it must pay no per-slot
// scrubbing cost (this is what made replacing unordered_map worthwhile —
// the engine clears conflict state constantly).
void BM_LineTableClearRefill(benchmark::State& state) {
  const auto lines = static_cast<std::size_t>(state.range(0));
  tsx::LineTable table;
  for (auto _ : state) {
    table.clear();
    for (std::size_t i = 0; i < lines; ++i) {
      benchmark::DoNotOptimize(table.record(i * 64));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lines));
}
BENCHMARK(BM_LineTableClearRefill)->Arg(64)->Arg(1024);

// A transaction re-reading lines already in its read set: every repeat
// access finds its record through the context's LineTable::Cache memo and
// skips the index probe, but still runs the full conflict and read-set
// checks of tx_load_slow.
void BM_TxRepeatRead(benchmark::State& state) {
  std::vector<tsx::Shared<std::uint64_t>> words(16);
  run_sim(state, 20 * 50 * 16, [&](tsx::Ctx& ctx) {
    for (int i = 0; i < 20; ++i) {
      ctx.engine().run_transaction(ctx, [&] {
        std::uint64_t sum = 0;
        for (int rep = 0; rep < 50; ++rep) {
          for (auto& w : words) sum += w.load(ctx);
        }
        benchmark::DoNotOptimize(sum);
      });
    }
  });
}
BENCHMARK(BM_TxRepeatRead);

// An abort round trip: begin, abort, roll back, and deliver the abort to
// the transaction's caller. Reported as host ns per abort.
template <typename Abort>
void abort_round_trips(benchmark::State& state, Abort&& abort) {
  constexpr int kAborts = 2000;
  const auto start = std::chrono::steady_clock::now();
  run_sim(state, kAborts, [&](tsx::Ctx& ctx) {
    for (int i = 0; i < kAborts; ++i) {
      benchmark::DoNotOptimize(
          ctx.engine().run_transaction(ctx, [&] { abort(ctx); }));
    }
  });
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["ns_per_abort"] =
      elapsed.count() / static_cast<double>(state.iterations() * kAborts);
}

// The abort is raised in the transaction body, so it unwinds as a thrown
// TxAbortException (a shallow throw: two frames).
void BM_TxAbortUnwind(benchmark::State& state) {
  abort_round_trips(state,
                    [](tsx::Ctx& ctx) { ctx.engine().xabort(ctx, 1); });
}
BENCHMARK(BM_TxAbortUnwind);

// The abort is raised inside an abort checkpoint, as in a region driver's
// lock phase, so it returns by longjmp.
void BM_TxAbortCheckpoint(benchmark::State& state) {
  abort_round_trips(state, [](tsx::Ctx& ctx) {
    ctx.engine().checkpoint(ctx, [&] { ctx.engine().xabort(ctx, 1); });
  });
}
BENCHMARK(BM_TxAbortCheckpoint);

void BM_FiberSwitch(benchmark::State& state) {
  // Two threads ping-ponging via strict earliest-first scheduling.
  for (auto _ : state) {
    sim::MachineConfig mcfg;
    mcfg.n_cores = 2;
    mcfg.smt_per_core = 1;
    sim::Scheduler sched(mcfg);
    for (int t = 0; t < 2; ++t) {
      sched.spawn([](sim::SimThread& st) {
        for (int i = 0; i < 5000; ++i) st.tick(1);
      });
    }
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_FiberSwitch);

}  // namespace

BENCHMARK_MAIN();

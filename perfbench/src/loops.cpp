#include "loops.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "trace.hpp"
#include "tsx/engine.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

template <typename F>
double median_of(int reps, F&& once) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(once());
  return median(std::move(v));
}

// About this many switches per timed repetition.
constexpr std::uint64_t kSwitchesPerRep = 1u << 20;
constexpr std::uint64_t kTickCycles = 100;

double switch_ns_once(int threads) {
  elision::sim::MachineConfig m;
  m.n_cores = static_cast<unsigned>(std::max(threads / 2, 1));
  m.smt_per_core = threads >= 2 ? 2 : 1;
  elision::sim::Scheduler sched(m);
  for (int t = 0; t < threads; ++t) {
    sched.spawn([](elision::sim::SimThread& st) {
      while (!st.stop_requested()) st.tick(kTickCycles);
    });
  }
  const std::uint64_t deadline =
      kSwitchesPerRep / static_cast<std::uint64_t>(threads) * kTickCycles;
  const std::uint64_t before = sched.switch_count();
  const std::uint64_t t0 = host_ns();
  sched.run_for(deadline);
  const std::uint64_t t1 = host_ns();
  const std::uint64_t switches = sched.switch_count() - before;
  return switches > 0 ? static_cast<double>(t1 - t0) / switches : 0.0;
}

struct alignas(64) Line {
  std::uint64_t word = 1;
};

constexpr int kLoadsPerTx = 64;
constexpr int kTxPerRep = 8192;

double tx_load_ns_once(bool fresh) {
  elision::sim::MachineConfig m;
  m.n_cores = 1;
  m.smt_per_core = 1;
  elision::sim::Scheduler sched(m);
  elision::tsx::Engine eng(sched);
  std::vector<Line> lines(kLoadsPerTx);
  std::uint64_t t0 = 0, t1 = 0;
  volatile std::uint64_t sink = 0;
  sched.spawn([&](elision::sim::SimThread& st) {
    auto& ctx = eng.context(st);
    t0 = host_ns();
    for (int tx = 0; tx < kTxPerRep; ++tx) {
      eng.run_transaction(ctx, [&] {
        for (int i = 0; i < kLoadsPerTx; ++i) {
          sink = eng.load(ctx, &lines[fresh ? i : 0].word);
        }
      });
    }
    t1 = host_ns();
  });
  sched.run();
  return static_cast<double>(t1 - t0) / (kLoadsPerTx * kTxPerRep);
}

}  // namespace

double switch_ns(int threads, int reps) {
  return median_of(reps, [&] { return switch_ns_once(threads); });
}

double tx_load_ns(bool fresh, int reps) {
  return median_of(reps, [&] { return tx_load_ns_once(fresh); });
}

double calibration_mops(int reps) {
  constexpr std::uint64_t kIters = 20'000'000;
  return median_of(reps, [] {
    volatile std::uint64_t seed = 0x9E3779B97F4A7C15ULL;
    std::uint64_t x = seed;
    const std::uint64_t t0 = host_ns();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x *= 0xD6E8FEB86659FD93ULL;
    }
    const std::uint64_t t1 = host_ns();
    seed = x;
    return static_cast<double>(kIters) / static_cast<double>(t1 - t0) * 1e3;
  });
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

int host_cpus() {
  return static_cast<int>(std::thread::hardware_concurrency());
}

}  // namespace perfbench

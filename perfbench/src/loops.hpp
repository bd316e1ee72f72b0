// Layer-isolating loops over public entry points, and the host calibration
// loop. Each returns the median of `reps` timed repetitions.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

// Median of v (0 when empty).
double median(std::vector<double> v);

// Host ns per scheduler context switch: `threads` fibers that only tick,
// on a machine of threads / 2 cores x 2 hyperthreads.
double switch_ns(int threads, int reps);

// Host ns per transactional Engine::load from one fiber, amortising one
// run_transaction per 64 loads. `fresh`: 64 distinct lines per transaction
// (each first touch takes the read-set admission path); otherwise 64 loads
// of one line (the owned-line path after the first).
double tx_load_ns(bool fresh, int reps);

// Millions of iterations per host second of a fixed integer loop. Scores
// are compared only between runs on the same host class.
double calibration_mops(int reps);

// Host fingerprint: CPU model name and online logical CPUs.
std::string cpu_model();
int host_cpus();

}  // namespace perfbench

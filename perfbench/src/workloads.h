// The benchmark's three workloads. Each call runs one repetition from a
// fresh testbed and returns its measurements; the caller repeats them and
// takes medians of the host-clock figures.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct Rep {
  /// Host seconds spent building testbeds, prefilling and loading.
  double setup_s = 0;
  /// The part of setup_s that runs the simulator (the YCSB load).
  double setup_sim_s = 0;
  /// Host seconds spent in the measured simulated phases.
  double run_s = 0;
  /// Deterministic results: virtual-time figures and layer counters. With
  /// one seed they repeat exactly, traced or not.
  std::map<std::string, double> virt;
  /// Host-clock figures (noisy).
  std::map<std::string, double> host;
  /// Device commands received, and commands or operations that failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness-gate violations; empty when the repetition is correct.
  std::vector<std::string> failures;
  /// Per-layer metrics this workload cannot measure, with the reason.
  std::vector<std::string> unmeasured;
};

extern const std::vector<std::string> kWorkloads;

/// Runs one repetition of `workload` (one of kWorkloads). `rec` non-null
/// inserts the tracing decorators and records spans into it.
Rep RunWorkload(const std::string& workload, std::uint64_t seed,
                SpanRecorder* rec);

}  // namespace perfbench

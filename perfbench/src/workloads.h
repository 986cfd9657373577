// The four benchmark workloads. Each drives the repository's public
// entry points from outside and returns its end-to-end figures (untraced)
// or its per-layer figures (traced), plus the outcome of its
// self-checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory (relative to the working directory) for span logs.
  std::string out_dir = ".bench_out";
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;  // self-check violations
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> log;  // human-readable report lines
};

const std::vector<std::string>& WorkloadNames();
RunResult RunWorkload(const RunOptions& opts);

}  // namespace perfbench

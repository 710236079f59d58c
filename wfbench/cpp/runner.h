// One benchmark run: set-up, timed passes over a workload's Spec list (or a
// traced pass plus the per-layer probes), reference check, result JSON.
#pragma once

#include <cstdint>
#include <string>

namespace wfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string reference_path;
  bool setup_only = false;  // stop after set-up and report only setup_s
};

// Runs the benchmark and returns the result line: one JSON object with
// correct, attempted, failed and metrics (end-to-end metrics untraced,
// per-layer metrics traced). Progress and failure reasons go to stderr.
// Throws on a set-up error or a probe parity failure.
std::string run(const Options& options);

// Runs every Spec of `workload` once in canonical order and returns the
// reference text for it. Throws if a run fails or leaks.
std::string record(const std::string& workload);

}  // namespace wfbench

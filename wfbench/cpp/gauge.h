// Host speed gauge: a fixed amount of work that uses nothing from src/, so
// its time moves with the host and never with a change to the simulator.
//
// The work is what the workloads do most: a priority queue churned through
// push and pop, and a chain of dependent loads, both within the per-core
// caches. On a shared host these slow down with the workloads when another
// tenant contends for the core (README.md, "Host speed").
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace wfbench {

class HostGauge {
 public:
  HostGauge();

  // Runs one slice of the fixed work on the calling thread and returns its
  // wall seconds. Safe to call from several threads at once.
  double slice() const;

 private:
  std::vector<std::uint32_t> next_;  // one random cycle through every entry
  mutable std::atomic<std::uint64_t> slices_{0};
  mutable std::atomic<std::uint64_t> sink_{0};
};

}  // namespace wfbench

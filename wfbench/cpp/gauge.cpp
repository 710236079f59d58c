#include "gauge.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>
#include <utility>

namespace wfbench {

namespace {

// 256 KiB of table and a 4 KiB heap: they stay in the per-core caches, so
// a slice measures the core, not the memory behind it.
constexpr std::size_t kEntries = std::size_t{1} << 16;
constexpr int kChaseSteps = 1 << 17;
constexpr std::size_t kHeapSize = 512;
constexpr int kHeapOps = 1 << 15;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

HostGauge::HostGauge() : next_(kEntries) {
  // A random order of every entry, linked into one cycle.
  std::vector<std::uint32_t> order(kEntries);
  std::iota(order.begin(), order.end(), 0u);
  std::uint64_t state = 0;
  for (std::size_t i = kEntries - 1; i > 0; --i) {
    state = mix(state);
    std::swap(order[i], order[state % (i + 1)]);
  }
  for (std::size_t i = 0; i < kEntries; ++i) {
    next_[order[i]] = order[(i + 1) % kEntries];
  }
}

double HostGauge::slice() const {
  std::uint64_t key = mix(slices_.fetch_add(1));
  std::vector<std::uint64_t> heap;
  heap.reserve(kHeapSize + 1);
  // Real time of the host, outside every simulated world.
  // imc-analyze: allow(wall-clock)
  const auto t0 = std::chrono::steady_clock::now();
  auto at = static_cast<std::uint32_t>(key % kEntries);
  for (int i = 0; i < kChaseSteps; ++i) at = next_[at];
  for (int i = 0; i < kHeapOps; ++i) {
    key = mix(key);
    heap.push_back(key);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() > kHeapSize) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      key += heap.back();
      heap.pop_back();
    }
  }
  // imc-analyze: allow(wall-clock)
  const auto t1 = std::chrono::steady_clock::now();
  sink_.store(key + at, std::memory_order_relaxed);
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace wfbench

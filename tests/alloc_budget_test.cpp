// Heap-allocation budget of the per-object staging path.
//
// This binary replaces the global operator new/delete (hence a test
// executable of its own) to count every heap allocation workflow::run makes
// while LAMMPS output is staged through DataSpaces, DIMES or Flexpath, and
// bounds the count per simulated engine event. Unlike wall time the count
// is exact for a given build, so it catches a change that puts heap traffic
// back on the put/commit/get path — a container built per RPC reply, a node
// per index bucket, a frame per fault-layer call, a map node per
// reader-writer pair — even when every digest holds.
//
// Each bound is the measured rate with at least 25% headroom. The cost per
// event is the simulated model (one staged object per server region), so a
// higher rate means more host work per modeled event, not a bigger model.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>

#include "workflow/workflow.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t bytes, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (bytes + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void* operator new(std::size_t bytes, std::align_val_t align) {
  return counted_aligned_alloc(bytes, align);
}
void* operator new[](std::size_t bytes, std::align_val_t align) {
  return counted_aligned_alloc(bytes, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace imc::workflow {
namespace {

// Heap allocations per engine event of one LAMMPS Titan run at nsim x nana
// ranks, measured after a warm-up run has filled the per-thread caches.
double allocations_per_event(MethodSel method, int nsim = 64, int nana = 32) {
  Spec spec;
  spec.app = AppSel::kLammps;
  spec.method = method;
  spec.machine = hpc::titan();
  spec.nsim = nsim;
  spec.nana = nana;
  const RunResult warm = run(spec);
  EXPECT_TRUE(warm.ok) << warm.failure_summary();
  const std::uint64_t before = g_allocations.load();
  const RunResult counted = run(spec);
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_TRUE(counted.ok) << counted.failure_summary();
  EXPECT_EQ(counted.run_digest, warm.run_digest);
  EXPECT_GT(counted.events_processed, 0u);
  const double per_event = static_cast<double>(allocations) /
                           static_cast<double>(counted.events_processed);
  std::cout << to_string(method) << " " << nsim << "x" << nana << ": "
            << allocations << " allocations / "
            << counted.events_processed << " events = " << per_event
            << " per event\n";
  return per_event;
}

TEST(AllocBudget, DataSpacesNativeLammpsTitan) {
  EXPECT_LT(allocations_per_event(MethodSel::kDataspacesNative), 0.55);
}

TEST(AllocBudget, DimesNativeLammpsTitan) {
  EXPECT_LT(allocations_per_event(MethodSel::kDimesNative), 1.05);
}

TEST(AllocBudget, FlexpathLammpsTitan) {
  EXPECT_LT(allocations_per_event(MethodSel::kFlexpath), 0.95);
}

// Every Flexpath reader waits on every writer, so per-pair host state (a
// map node per reader-writer pair, a writer-set copy per read) makes the
// rate grow with nsim x nana. Without it the rate falls with scale.
TEST(AllocBudget, FlexpathRateDoesNotGrowWithScale) {
  const double small = allocations_per_event(MethodSel::kFlexpath, 64, 32);
  const double large = allocations_per_event(MethodSel::kFlexpath, 256, 128);
  EXPECT_LE(large, small);
}

}  // namespace
}  // namespace imc::workflow

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <vector>

#include "common/arena.h"
#include "sim/engine.h"

namespace imc {
namespace {

// ---------------------------------------------------------------------------
// Raw allocate/deallocate mechanics.

TEST(Arena, SmallBlocksArePooledAndRecycled) {
  arena::Arena arena;
  void* a = arena.allocate(64);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(arena.outstanding(), 1u);
  EXPECT_EQ(arena.allocations(), 1u);
  arena.deallocate(a, 64);
  EXPECT_EQ(arena.outstanding(), 0u);

  // The next same-class allocation reuses the freed block, not fresh chunk
  // memory — this is the hot coroutine-frame path.
  void* b = arena.allocate(64);
  EXPECT_EQ(b, a);
  EXPECT_EQ(arena.pool_hits(), 1u);
  arena.deallocate(b, 64);
}

TEST(Arena, DistinctClassesDoNotAlias) {
  arena::Arena arena;
  void* small = arena.allocate(32);
  void* big = arena.allocate(1024);
  ASSERT_NE(small, big);
  std::memset(small, 0xAA, 32);
  std::memset(big, 0xBB, 1024);
  EXPECT_EQ(static_cast<unsigned char*>(small)[31], 0xAA);
  EXPECT_EQ(static_cast<unsigned char*>(big)[0], 0xBB);
  arena.deallocate(small, 32);
  arena.deallocate(big, 1024);
}

TEST(Arena, OversizedBlocksFallThroughToHeapButStayCounted) {
  arena::Arena arena;
  void* p = arena.allocate(arena::Arena::kMaxPooled + 1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(arena.heap_fallbacks(), 1u);
  EXPECT_EQ(arena.outstanding(), 1u);
  arena.deallocate(p, arena::Arena::kMaxPooled + 1);
  EXPECT_EQ(arena.outstanding(), 0u);
}

// ---------------------------------------------------------------------------
// reset(): the between-jobs recycle that makes world reuse safe.

TEST(Arena, ResetRewindsWhenQuiescentAndRetainsChunks) {
  arena::Arena arena;
  std::vector<void*> blocks;
  for (int i = 0; i < 100; ++i) blocks.push_back(arena.allocate(256));
  for (void* p : blocks) arena.deallocate(p, 256);
  const std::size_t reserved = arena.reserved_bytes();
  ASSERT_GT(reserved, 0u);

  arena.reset();
  // Chunks survive the reset (that is the point: job N+1 runs in job N's
  // warm memory) and the cursor rewound, so the first post-reset block
  // lands exactly where the first pre-reset block did.
  EXPECT_EQ(arena.reserved_bytes(), reserved);
  void* again = arena.allocate(256);
  EXPECT_EQ(again, blocks.front());
  arena.deallocate(again, 256);
}

TEST(Arena, ResetWithLiveBlocksKeepsStorageValid) {
  arena::Arena arena;
  void* live = arena.allocate(128);
  std::memset(live, 0xCD, 128);
  arena.reset();  // must NOT rewind: `live` is still out
  EXPECT_EQ(arena.outstanding(), 1u);
  // New allocations must not overlap the live block.
  void* next = arena.allocate(128);
  EXPECT_NE(next, live);
  EXPECT_EQ(static_cast<unsigned char*>(live)[0], 0xCD);
  EXPECT_EQ(static_cast<unsigned char*>(live)[127], 0xCD);
  arena.deallocate(next, 128);
  arena.deallocate(live, 128);
}

// ---------------------------------------------------------------------------
// Coroutine-frame routing: frees are self-describing, so a frame outliving
// its binding still returns to the pool that produced it.

TEST(Arena, FrameFreedAfterBindingMovedOnReturnsToOwner) {
  arena::Arena arena;
  void* frame = nullptr;
  {
    BindWorld scope({.arena = &arena});
    frame = arena::frame_allocate(200);
    ASSERT_NE(frame, nullptr);
    EXPECT_EQ(arena.outstanding(), 1u);
  }
  // Binding is gone; the header routes the free back to `arena`.
  arena::frame_free(frame);
  EXPECT_EQ(arena.outstanding(), 0u);
}

TEST(Arena, FrameAllocatedUnboundUsesHeap) {
  ASSERT_EQ(arena::current(), nullptr);
  void* frame = arena::frame_allocate(200);
  ASSERT_NE(frame, nullptr);
  arena::frame_free(frame);  // must not crash; no arena involved
}

// ---------------------------------------------------------------------------
// Reset-reuse determinism with a real engine: running the same simulation
// in a reused arena yields byte-identical digests to a fresh arena, for
// every tie-break policy. This is the DESIGN.md §13 invariant the sweep
// pool's WorldContext relies on.

std::uint64_t run_world(const sim::Schedule& schedule) {
  sim::Engine engine(schedule);
  for (int p = 0; p < 8; ++p) {
    engine.spawn([](sim::Engine& e, int p) -> sim::Task<> {
      for (int i = 0; i < 50; ++i) co_await e.sleep(1e-6 * (p + 1));
    }(engine, p));
  }
  engine.run();
  return engine.digest();
}

TEST(Arena, ReusedArenaWorldsMatchFreshWorldsUnderEverySchedule) {
  const sim::Schedule schedules[] = {
      {sim::TieBreak::kFifo, 0},
      {sim::TieBreak::kLifo, 0},
      {sim::TieBreak::kSeededShuffle, 0xfeedbeef},
  };
  for (const auto& schedule : schedules) {
    // Fresh arena per run.
    std::uint64_t fresh = 0;
    {
      arena::Arena arena;
      BindWorld scope({.arena = &arena});
      fresh = run_world(schedule);
      EXPECT_EQ(arena.outstanding(), 0u);
    }
    // One arena reused across runs with reset() in between.
    arena::Arena reused;
    std::size_t warm_reserved = 0;
    for (int round = 0; round < 3; ++round) {
      reused.reset();
      BindWorld scope({.arena = &reused});
      EXPECT_EQ(run_world(schedule), fresh)
          << "tie_break=" << static_cast<int>(schedule.tie_break)
          << " round=" << round;
      EXPECT_EQ(reused.outstanding(), 0u);
      // Round 0 warms the chunks; later rounds run entirely inside them —
      // the footprint must not grow again (that is what reuse buys).
      if (round == 0) {
        warm_reserved = reused.reserved_bytes();
        EXPECT_GT(warm_reserved, 0u);
      } else {
        EXPECT_EQ(reused.reserved_bytes(), warm_reserved) << round;
      }
    }
    EXPECT_GT(reused.allocations(), 0u);
  }
}

}  // namespace
}  // namespace imc

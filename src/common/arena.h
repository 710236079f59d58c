// Per-world arena/pool allocator (imc::arena).
//
// A simulated world allocates the same shapes over and over: coroutine
// frames for every co_awaited Task, event-batch buckets, staged-object
// metadata. Under the sweep pool those allocations all hit the global
// heap from several worker threads at once, and the profile showed the
// allocator — not the simulation — absorbing the speedup (BENCH_perf.json
// recorded sweep_speedup 0.76 before this layer existed).
//
// Arena is the fix: a size-class pooled bump allocator owned by one world
// (one thread) at a time.
//
//  * allocate() serves small blocks (<= kMaxPooled) from per-class free
//    lists backed by monotonic chunks; larger blocks fall through to the
//    global heap but stay counted.
//  * deallocate() pushes the block onto its class free list — no global
//    heap traffic, no lock, and the next same-shape allocation (the next
//    coroutine frame of the same function) reuses the hot block.
//  * reset() recycles everything between sweep jobs: when the world tore
//    down cleanly (outstanding() == 0) the chunks are retained and the
//    cursor rewinds, so job N+1 runs entirely inside job N's warm memory.
//    With live blocks still out (a leaky world), reset() keeps the free
//    lists and chunks as they are — reuse degrades gracefully instead of
//    invalidating pointers.
//
// The current World's arena (common/world.h) is current(); a world with
// none bound simply uses the global heap — tests and tools never need an
// arena.
//
// Coroutine frames route through frame_allocate()/frame_free(), which
// prepend a 16-byte header recording the owning arena and block size, so a
// frame destroyed after the binding moved on (engine teardown running
// under a different scope, a parked process reaped late) still returns to
// the pool that produced it — or to the global heap when none did.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/world.h"

namespace imc::arena {

class Arena {
 public:
  // Blocks up to this many bytes are pooled; the granularity of the size
  // classes is kAlign. Coroutine frames in this codebase are a few hundred
  // bytes, so 2 KiB covers them with headroom.
  static constexpr std::size_t kAlign = 16;
  static constexpr std::size_t kMaxPooled = 2048;

  Arena() = default;
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  void* allocate(std::size_t bytes);
  void deallocate(void* p, std::size_t bytes);

  // Recycles the arena between jobs. Quiescent (outstanding() == 0): free
  // lists clear and the bump cursor rewinds over the retained chunks.
  // Otherwise the current state is kept (see header comment).
  void reset();

  // Live blocks served and not yet returned.
  std::uint64_t outstanding() const { return outstanding_; }
  // Total blocks served / blocks served without touching a chunk cursor
  // (free-list hits) / blocks that fell through to the global heap.
  std::uint64_t allocations() const { return allocations_; }
  std::uint64_t pool_hits() const { return pool_hits_; }
  std::uint64_t heap_fallbacks() const { return heap_fallbacks_; }
  // Bytes of chunk memory held (survives reset()).
  std::size_t reserved_bytes() const { return reserved_bytes_; }

 private:
  static constexpr std::size_t kClasses = kMaxPooled / kAlign;
  static constexpr std::size_t kFirstChunkBytes = 64 * 1024;
  static constexpr std::size_t kMaxChunkBytes = 1024 * 1024;

  struct FreeNode {
    FreeNode* next;
  };
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  // Returns a pointer to `bytes` of fresh chunk memory (bytes is a multiple
  // of kAlign and <= kMaxPooled).
  std::byte* bump(std::size_t bytes);

  std::vector<Chunk> chunks_;
  std::size_t cursor_chunk_ = 0;  // chunk currently bump-allocating
  std::size_t cursor_used_ = 0;   // bytes used within it
  FreeNode* free_[kClasses] = {};
  std::uint64_t outstanding_ = 0;
  std::uint64_t allocations_ = 0;
  std::uint64_t pool_hits_ = 0;
  std::uint64_t heap_fallbacks_ = 0;
  std::size_t reserved_bytes_ = 0;
};

// The current world's arena, or nullptr (use the global heap).
inline Arena* current() { return world().arena; }

// Coroutine-frame entry points (used by the promise operator new/delete of
// sim::Task and the engine's detached-root wrapper). The header they
// prepend makes frees self-describing, so they are safe regardless of what
// is bound at destruction time.
void* frame_allocate(std::size_t bytes);
void frame_free(void* p);

}  // namespace imc::arena

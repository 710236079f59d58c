#include "common/arena.h"

#include <cassert>
#include <new>

namespace imc::arena {
namespace {

constexpr std::size_t kHeaderBytes = 16;

// Frame header: owner (nullptr -> global heap) and the total block size
// including the header, so unsized operator delete can route the free.
struct FrameHeader {
  Arena* owner;
  std::uint64_t total_bytes;
};
static_assert(sizeof(FrameHeader) <= kHeaderBytes);

std::size_t size_class(std::size_t bytes) {
  return (bytes + Arena::kAlign - 1) / Arena::kAlign - 1;
}

}  // namespace

Arena::~Arena() = default;

std::byte* Arena::bump(std::size_t bytes) {
  while (cursor_chunk_ < chunks_.size()) {
    Chunk& chunk = chunks_[cursor_chunk_];
    if (chunk.size - cursor_used_ >= bytes) {
      std::byte* p = chunk.data.get() + cursor_used_;
      cursor_used_ += bytes;
      return p;
    }
    ++cursor_chunk_;
    cursor_used_ = 0;
  }
  // Grow: double the last chunk size up to the cap. Every chunk is at least
  // kMaxPooled so a pooled block always fits in a fresh chunk.
  std::size_t size = chunks_.empty() ? kFirstChunkBytes
                                     : chunks_.back().size * 2;
  if (size > kMaxChunkBytes) size = kMaxChunkBytes;
  chunks_.push_back(Chunk{std::make_unique<std::byte[]>(size), size});
  reserved_bytes_ += size;
  cursor_chunk_ = chunks_.size() - 1;
  cursor_used_ = bytes;
  return chunks_.back().data.get();
}

void* Arena::allocate(std::size_t bytes) {
  ++allocations_;
  ++outstanding_;
  if (bytes == 0) bytes = 1;
  const std::size_t cls = size_class(bytes);
  if (cls >= kClasses) {
    ++heap_fallbacks_;
    return ::operator new(bytes);
  }
  if (FreeNode* node = free_[cls]) {
    free_[cls] = node->next;
    ++pool_hits_;
    return node;
  }
  return bump((cls + 1) * kAlign);
}

void Arena::deallocate(void* p, std::size_t bytes) {
  assert(outstanding_ > 0);
  --outstanding_;
  if (bytes == 0) bytes = 1;
  const std::size_t cls = size_class(bytes);
  if (cls >= kClasses) {
    ::operator delete(p);
    return;
  }
  auto* node = static_cast<FreeNode*>(p);
  node->next = free_[cls];
  free_[cls] = node;
}

void Arena::reset() {
  if (outstanding_ != 0) return;  // live blocks out: keep state as-is
  for (FreeNode*& head : free_) head = nullptr;
  cursor_chunk_ = 0;
  cursor_used_ = 0;
}

void* frame_allocate(std::size_t bytes) {
  const std::size_t total = bytes + kHeaderBytes;
  Arena* arena = current();
  void* base = arena != nullptr ? arena->allocate(total)
                                : ::operator new(total);
  auto* header = static_cast<FrameHeader*>(base);
  header->owner = arena;
  header->total_bytes = total;
  return static_cast<std::byte*>(base) + kHeaderBytes;
}

void frame_free(void* p) {
  if (p == nullptr) return;
  void* base = static_cast<std::byte*>(p) - kHeaderBytes;
  auto* header = static_cast<FrameHeader*>(base);
  if (Arena* arena = header->owner) {
    arena->deallocate(base, static_cast<std::size_t>(header->total_bytes));
  } else {
    ::operator delete(base);
  }
}

}  // namespace imc::arena

// Spatial index over a set of axis-aligned boxes.
//
// Every staged-object lookup in the reproduction — DataSpaces region
// resolution, the server object tables, DIMES metadata queries — is "which
// of these n boxes intersect this target box?". The naive answer
// (nda::intersecting) scans all n; this index buckets boxes into a coarse
// grid keyed by the row-major index of the cell, so a query touches only the
// buckets its target overlaps: O(cells + k) instead of O(n).
//
// Grid geometry adapts to the data: per-dimension cell sizes track the
// average box extent, so a 1-D staging-region decomposition gets cells only
// along the cut dimension and a Cartesian grid decomposition gets a matching
// grid. Boxes spanning too many cells land on a small "coarse" list that
// every query scans; queries spanning too many cells fall back to the brute
// scan. Both fallbacks keep worst cases no slower than nda::intersecting.
//
// Storage: one flat open-addressing table (imc::FlatMap) from cell key to
// the head of that cell's chain in a single link array, so building the
// grid makes O(1) allocations and filing a box into a cell makes none
// beyond amortized growth.
//
// Determinism: query() returns exactly what nda::intersecting over the same
// boxes (in insertion order) returns — same pairs, same order — proven by a
// randomized property test. Candidates are sorted by entry and tested with
// an exact intersect before the merge, so the cell key decides only which
// candidates are collected, and buckets are only ever looked up, never
// iterated: address-dependent ordering cannot leak out.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "ndarray/ndarray.h"

namespace imc::nda {

class BoxIndex {
 public:
  BoxIndex() = default;

  // Index over a fixed set; ids are the positions in `boxes`.
  static BoxIndex build(const std::vector<Box>& boxes);

  // Adds one box under the caller's id. Queries return ids in insertion
  // order, so inserting with ascending ids reproduces brute-force order.
  void insert(int id, const Box& box);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // All (id, overlap) pairs of indexed boxes intersecting `target`, in
  // insertion order — element-for-element equal to
  // nda::intersecting(boxes, target) for the same boxes.
  std::vector<std::pair<int, Box>> query(const Box& target) const;

 private:
  struct Entry {
    int id;
    Box box;
  };
  // A cell's chain of filings in links_ (-1 ends a chain).
  struct Chain {
    int head = -1;
  };
  // One (entry, cell) filing; `next` continues the cell's chain.
  struct Link {
    int entry;
    int next;
  };
  using Cells = std::array<std::uint32_t, Dims::kMaxRank>;

  // A box heavier than this many cells is kept on the coarse list instead
  // of being replicated into every bucket it touches.
  static constexpr std::uint64_t kCoarseCellLimit = 64;
  // A query visiting more cells than this scans entries directly instead.
  static constexpr std::uint64_t kQueryCellLimit = 2048;

  void rebuild() const;
  // Files entries_[entry] under every cell it covers, or on the coarse list
  // when it is empty, of another rank, or covers none or too many cells.
  void file(int entry) const;
  // Inclusive per-dimension cell range covered by `box` (clipped to the
  // grid bounds); returns the total cell count, 0 if outside the bounds.
  std::uint64_t cell_range(const Box& box, Cells& lo, Cells& hi) const;
  // Calls visit(key) for the row-major key of every cell in [lo, hi].
  template <typename Visit>
  void for_each_cell(const Cells& lo, const Cells& hi, Visit&& visit) const;
  void brute_query(const Box& target,
                   std::vector<std::pair<int, Box>>& out) const;

  std::vector<Entry> entries_;

  // Grid state, rebuilt lazily on query (mutable: the index is a cache; the
  // simulation substrate is single-threaded by construction).
  mutable bool stale_ = true;
  mutable bool grid_ = false;            // false: queries scan entries_
  mutable std::size_t built_count_ = 0;  // entries_ size at last rebuild
  mutable Box bounds_;                   // union of indexed boxes
  mutable Dims cell_size_;               // per dimension, >= 1
  mutable Dims stride_;                  // row-major key stride per dimension
  mutable FlatMap<Chain> cells_;         // cell key -> chain in links_
  mutable std::vector<Link> links_;
  mutable std::vector<int> coarse_;      // entry indices scanned every query
  mutable std::vector<int> candidates_;  // query scratch
};

}  // namespace imc::nda

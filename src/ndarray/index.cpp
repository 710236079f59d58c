#include "ndarray/index.h"

#include <algorithm>

namespace imc::nda {

namespace {

// Below this many entries a brute scan beats grid bookkeeping.
constexpr std::size_t kBruteThreshold = 16;

// A rank-nd grid has at most 2^min(kMaxCellBits, 64 / nd) cells per
// dimension, so the row-major key of any cell fits 64 bits.
constexpr int kMaxCellBits = 16;
static_assert(kMaxCellBits * Dims::kMaxRank <= 64);

}  // namespace

BoxIndex BoxIndex::build(const std::vector<Box>& boxes) {
  BoxIndex index;
  index.entries_.reserve(boxes.size());
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    index.insert(static_cast<int>(i), boxes[i]);
  }
  return index;
}

void BoxIndex::insert(int id, const Box& box) {
  entries_.push_back({id, box});
  if (stale_) return;
  // Fold into the built grid when possible; otherwise rebuild lazily. A
  // doubling bound keeps bucket occupancy near the geometry the grid was
  // sized for.
  if (entries_.size() > 2 * built_count_) {
    stale_ = true;
    return;
  }
  if (!box.empty() && box.dims() == bounds_.dims() &&
      (!grid_ || !bounds_.contains(box))) {
    stale_ = true;  // grid-less or outside the built bounds: re-tile
    return;
  }
  file(static_cast<int>(entries_.size() - 1));
}

std::uint64_t BoxIndex::cell_range(const Box& box, Cells& lo,
                                   Cells& hi) const {
  auto clipped = intersect(box, bounds_);
  if (!clipped) return 0;
  std::uint64_t cells = 1;
  for (std::size_t d = 0; d < clipped->lb.size(); ++d) {
    lo[d] = static_cast<std::uint32_t>((clipped->lb[d] - bounds_.lb[d]) /
                                       cell_size_[d]);
    hi[d] = static_cast<std::uint32_t>((clipped->ub[d] - 1 - bounds_.lb[d]) /
                                       cell_size_[d]);
    cells *= hi[d] - lo[d] + 1;
  }
  return cells;
}

template <typename Visit>
void BoxIndex::for_each_cell(const Cells& lo, const Cells& hi,
                             Visit&& visit) const {
  // Last dimension fastest; the key follows the cursor incrementally.
  const std::size_t nd = stride_.size();
  Cells cursor = lo;
  std::uint64_t key = 0;
  for (std::size_t d = 0; d < nd; ++d) key += lo[d] * stride_[d];
  for (;;) {
    visit(key);
    std::size_t d = nd;
    for (;;) {
      if (d-- == 0) return;
      if (cursor[d] < hi[d]) {
        ++cursor[d];
        key += stride_[d];
        break;
      }
      key -= std::uint64_t{hi[d] - lo[d]} * stride_[d];
      cursor[d] = lo[d];
    }
  }
}

void BoxIndex::file(int entry) const {
  const Box& box = entries_[static_cast<std::size_t>(entry)].box;
  Cells lo, hi;
  const std::uint64_t cells = box.empty() || box.dims() != bounds_.dims()
                                  ? 0
                                  : cell_range(box, lo, hi);
  if (cells == 0 || cells > kCoarseCellLimit) {
    coarse_.push_back(entry);
    return;
  }
  for_each_cell(lo, hi, [&](std::uint64_t key) {
    Chain& chain = cells_[key];
    links_.push_back(Link{entry, chain.head});
    chain.head = static_cast<int>(links_.size()) - 1;
  });
}

void BoxIndex::rebuild() const {
  coarse_.clear();
  links_.clear();
  bounds_ = Box();
  cell_size_ = Dims();
  stride_ = Dims();
  grid_ = false;
  built_count_ = entries_.size();
  stale_ = false;
  if (entries_.size() < kBruteThreshold) return;  // brute path; no grid

  // Grid geometry comes from the entries that can use it: non-empty boxes of
  // the dominant (first-seen) dimensionality. Everything else — empty boxes,
  // mismatched dims — rides the coarse list with an exact intersect test.
  int grid_dims = -1;
  std::size_t candidates = 0;
  Dims extent_sum;
  for (const Entry& e : entries_) {
    if (e.box.empty()) continue;
    if (grid_dims < 0) {
      grid_dims = e.box.dims();
      bounds_ = e.box;
      extent_sum.assign(e.box.lb.size(), 0);
    }
    if (e.box.dims() != grid_dims) continue;
    ++candidates;
    for (std::size_t d = 0; d < e.box.lb.size(); ++d) {
      bounds_.lb[d] = std::min(bounds_.lb[d], e.box.lb[d]);
      bounds_.ub[d] = std::max(bounds_.ub[d], e.box.ub[d]);
      extent_sum[d] += e.box.extent(static_cast<int>(d));
    }
  }
  if (grid_dims <= 0 || candidates < kBruteThreshold) {
    bounds_ = Box();
    return;
  }
  const std::size_t nd = static_cast<std::size_t>(grid_dims);
  const int max_bits = std::min<int>(kMaxCellBits, 64 / grid_dims);

  // Cell size per dimension tracks the average entry extent, so a typical
  // box lands in O(1) cells and a typical query visits O(results) cells.
  cell_size_.resize(nd);
  stride_.resize(nd);
  Dims counts(nd);
  for (std::size_t d = 0; d < nd; ++d) {
    const std::uint64_t extent = bounds_.extent(static_cast<int>(d));
    const std::uint64_t avg = std::max<std::uint64_t>(
        1, extent_sum[d] / static_cast<std::uint64_t>(candidates));
    const std::uint64_t cells = std::clamp<std::uint64_t>(
        extent / avg, 1, std::uint64_t{1} << max_bits);
    cell_size_[d] = std::max<std::uint64_t>(1, (extent + cells - 1) / cells);
    counts[d] = (extent - 1) / cell_size_[d] + 1;
  }
  stride_[nd - 1] = 1;
  for (std::size_t d = nd - 1; d > 0; --d) {
    stride_[d - 1] = stride_[d] * counts[d];
  }
  grid_ = true;
  // cells_ is read only under a grid, so it is emptied here. A typical box
  // covers a cell or two: sizing for that makes rehashing rare.
  cells_.clear(candidates);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    file(static_cast<int>(i));
  }
}

void BoxIndex::brute_query(const Box& target,
                           std::vector<std::pair<int, Box>>& out) const {
  for (const Entry& e : entries_) {
    if (auto overlap = intersect(e.box, target)) {
      out.emplace_back(e.id, std::move(*overlap));
    }
  }
}

std::vector<std::pair<int, Box>> BoxIndex::query(const Box& target) const {
  std::vector<std::pair<int, Box>> out;
  if (entries_.empty()) return out;
  if (stale_) rebuild();
  if (!grid_ || target.empty() || target.dims() != bounds_.dims()) {
    brute_query(target, out);
    return out;
  }

  Cells lo, hi;
  const std::uint64_t cells = cell_range(target, lo, hi);
  if (cells > kQueryCellLimit) {
    // Huge query (e.g. target containing the whole universe): visiting every
    // cell would cost more than the scan the index exists to avoid.
    brute_query(target, out);
    return out;
  }
  std::vector<int>& candidates = candidates_;
  candidates.clear();
  if (cells > 0) {
    for_each_cell(lo, hi, [&](std::uint64_t key) {
      const Chain* chain = cells_.find(key);
      for (int l = chain != nullptr ? chain->head : -1; l >= 0;
           l = links_[static_cast<std::size_t>(l)].next) {
        candidates.push_back(links_[static_cast<std::size_t>(l)].entry);
      }
    });
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
  }

  // Merge grid candidates with the always-scanned coarse list in ascending
  // entry order so output order matches brute-force insertion order.
  std::size_t ci = 0, gi = 0;
  while (ci < coarse_.size() || gi < candidates.size()) {
    int entry;
    if (gi >= candidates.size()) {
      entry = coarse_[ci++];
    } else if (ci >= coarse_.size()) {
      entry = candidates[gi++];
    } else if (coarse_[ci] < candidates[gi]) {
      entry = coarse_[ci++];
    } else {
      entry = candidates[gi++];
    }
    const Entry& e = entries_[static_cast<std::size_t>(entry)];
    if (auto overlap = intersect(e.box, target)) {
      out.emplace_back(e.id, std::move(*overlap));
    }
  }
  return out;
}

}  // namespace imc::nda

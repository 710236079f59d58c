// N-dimensional global arrays, bounding boxes, decompositions and slabs.
//
// This is the data model every staging library in the study shares: a
// variable is a global n-D array of doubles; each writer puts a rectangular
// slab of it; readers get (possibly different) rectangular slabs. The
// decomposition geometry is exactly what the paper's Finding 3 is about, so
// boxes/decompositions are first-class and unit-tested.
//
// Slabs carry *real* element data so tests can assert that what a reader
// gets equals what writers put under any decomposition. For the paper-scale
// runs (128 MB x 1024 ranks), materializing every element is impossible in a
// test container, so a slab can instead be "synthetic": its content is
// defined by a pure function of (seed, global coordinate). Extraction and
// assembly preserve the definition, so correctness checks (sampled equality,
// checksums) work identically in both modes.
//
// Content rules. A materialized slab holds its elements either densely
// (row-major over its box) or as a period block: a tiled slab's element at
// global coordinate c is block[row-major(c mod period)], so a writer whose
// content repeats a micro-kernel's state stages that state, not its
// expansion. A reader's slab is built only by assemble(): pieces that all
// carry one definition (one synthetic seed, or one period with bitwise
// equal blocks) assemble to a slab of that definition at any size (its
// at() returns the bits a dense copy would hold), so the materialize caps
// bound only mixed or dense content. The elements live in one shared,
// reference-counted buffer that also carries the period: copying a slab,
// extracting its whole box, or extracting any part of a tiled slab shares
// it, and the first write through set(), fill_from() or non-const data()
// makes it this slab's own dense buffer, cloned or expanded over the box.
// A buffer is shared only within one simulated world, whose single thread
// is the only one that copies, writes or drops its slabs.
//
// Rank limit. A coordinate or extent list (Dims) holds at most kMaxRank = 4
// values inline, enough for every array in the study (at most 3-D), so a
// Box is two such lists and never touches the heap: copying, comparing and
// intersecting boxes allocates nothing. Growing a Dims past the limit throws
// std::length_error; it never truncates.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <compare>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace imc::nda {

// A coordinate or extent per dimension, stored inline: the part of the
// std::vector<std::uint64_t> interface the data model uses, with equality
// and lexicographic ordering as std::vector defines them.
class Dims {
 public:
  static constexpr std::size_t kMaxRank = 4;
  using iterator = std::uint64_t*;
  using const_iterator = const std::uint64_t*;

  Dims() = default;
  explicit Dims(std::size_t n, std::uint64_t value = 0) { resize(n, value); }
  Dims(std::initializer_list<std::uint64_t> values) {
    check_rank(values.size());
    std::copy(values.begin(), values.end(), v_.begin());
    n_ = values.size();
  }

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  std::uint64_t& operator[](std::size_t d) {
    assert(d < n_);
    return v_[d];
  }
  std::uint64_t operator[](std::size_t d) const {
    assert(d < n_);
    return v_[d];
  }
  iterator begin() { return v_.data(); }
  iterator end() { return v_.data() + n_; }
  const_iterator begin() const { return v_.data(); }
  const_iterator end() const { return v_.data() + n_; }

  void push_back(std::uint64_t value) {
    check_rank(n_ + 1);
    v_[n_++] = value;
  }
  void resize(std::size_t n, std::uint64_t value = 0) {
    check_rank(n);
    if (n > n_) std::fill(v_.begin() + n_, v_.begin() + n, value);
    n_ = n;
  }
  void assign(std::size_t n, std::uint64_t value) {
    n_ = 0;
    resize(n, value);
  }

  friend bool operator==(const Dims& a, const Dims& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend std::strong_ordering operator<=>(const Dims& a, const Dims& b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  static void check_rank(std::size_t n) {
    if (n > kMaxRank) {
      throw std::length_error("nda::Dims rank " + std::to_string(n) +
                              " exceeds the limit of " +
                              std::to_string(kMaxRank));
    }
  }

  std::array<std::uint64_t, kMaxRank> v_{};
  std::size_t n_ = 0;
};

// Half-open axis-aligned box: [lb[d], ub[d]) per dimension.
struct Box {
  Dims lb;
  Dims ub;

  Box() = default;
  Box(Dims lower, Dims upper);
  static Box whole(const Dims& global);

  int dims() const { return static_cast<int>(lb.size()); }
  std::uint64_t extent(int d) const {
    return ub[static_cast<std::size_t>(d)] - lb[static_cast<std::size_t>(d)];
  }
  std::uint64_t volume() const {
    std::uint64_t v = 1;
    for (std::size_t d = 0; d < lb.size(); ++d) v *= ub[d] - lb[d];
    return lb.empty() ? 0 : v;
  }
  bool empty() const { return volume() == 0; }
  bool contains(const Box& other) const;
  bool contains_point(const Dims& p) const;

  std::string to_string() const;
  bool operator==(const Box&) const = default;
};

std::optional<Box> intersect(const Box& a, const Box& b);

// Whether intersect(a, b) has a value, without building the intersection.
inline bool overlaps(const Box& a, const Box& b) {
  if (a.dims() != b.dims()) return false;
  for (std::size_t d = 0; d < a.lb.size(); ++d) {
    if (std::max(a.lb[d], b.lb[d]) >= std::min(a.ub[d], b.ub[d])) {
      return false;
    }
  }
  return true;
}

// The real libraries carried 32-bit dimension arithmetic for years (Table IV
// "data dimension overflow"); this checker reports when a global geometry
// would overflow it, so the compat mode of the libraries can reproduce the
// failure and the fixed mode can prove the 64-bit resolve.
Status check_dims_32bit(const Dims& global);

// --- Decompositions -------------------------------------------------------

// Splits `global` into `parts` equal blocks along dimension `dim`
// (remainder spread over the first blocks). parts must be <= extent.
std::vector<Box> decompose_1d(const Dims& global, int parts, int dim);

// Cartesian block grid: procs_per_dim[d] blocks along dimension d.
std::vector<Box> decompose_grid(const Dims& global,
                                const std::vector<int>& procs_per_dim);

// Index of the longest dimension (ties -> lowest index). DataSpaces cuts
// its staging regions along this dimension (§III-B4).
int longest_dim(const Dims& global);

// All (index, overlap) pairs of `boxes` that intersect `target`.
std::vector<std::pair<int, Box>> intersecting(const std::vector<Box>& boxes,
                                              const Box& target);

// --- Variables & slabs ----------------------------------------------------

inline constexpr std::uint64_t kElementBytes = sizeof(double);

// A named versioned global array (one entry per timestep).
struct VarDesc {
  std::string name;
  Dims global;
  int version = 0;

  std::uint64_t total_bytes() const;
  bool operator==(const VarDesc&) const = default;
};

// Deterministic content function for synthetic slabs.
double synthetic_value(std::uint64_t seed, const Dims& coord);

class Slab {
 public:
  Slab() = default;

  // Real content (row-major over box extents). data.size() must equal the
  // box volume.
  static Slab materialized(Box box, std::vector<double> data);

  // Real content that repeats a period block: the element at global
  // coordinate c is block[row-major(c mod period)]. Throws
  // std::invalid_argument unless period has the box's rank, no zero
  // extent, and exactly as many elements as block.
  static Slab tiled(Box box, Dims period, std::vector<double> block);

  // Content defined by synthetic_value(seed, global coordinate).
  static Slab synthetic(Box box, std::uint64_t seed);

  // Materialized zero-filled slab (assembly target).
  static Slab zeros(Box box);

  const Box& box() const { return box_; }
  // True for dense and tiled content alike: both hold real elements.
  bool is_materialized() const { return materialized_; }
  bool is_tiled() const { return data_ != nullptr && !data_->period.empty(); }
  std::uint64_t seed() const { return seed_; }
  std::uint64_t declared_bytes() const { return box_.volume() * kElementBytes; }

  // Element at a global coordinate (must lie inside the box).
  double at(const Dims& coord) const;
  void set(const Dims& coord, double value);  // materialized only

  // Many at() calls in one: out[s] = at(origin + point s), where `offsets`
  // holds the points one after another, `rank` offsets each, added to the
  // trailing `rank` coordinates of `origin` (the leading ones stay fixed).
  // Every value is bit-identical to at(); every point must lie in the box.
  void read_points(const Dims& origin, std::span<const std::uint64_t> offsets,
                   std::size_t rank, double* out) const;

  // Copies the intersection of `src` into this slab (materialized target;
  // any source). A materialized source covering exactly this box is
  // shared, not copied; a tiled source is copied in wrap-around runs.
  void fill_from(const Slab& src);

  // A new slab covering `sub` (must be inside the box) with the same
  // content. Synthetic and tiled slabs keep their definition, and the
  // whole box of a dense slab shares its buffer (no copy either way).
  Slab extract(const Box& sub) const;

  // Order-independent content fingerprint over the slab: sum of
  // hash(coord) * value over all elements. Equal content <=> equal
  // checksum regardless of how the region was decomposed or stored. For
  // synthetic slabs, computed analytically by sampling is wrong — so it
  // walks all elements; use only on test-sized slabs.
  double checksum() const;

  // Row-major elements of a materialized slab (empty for a synthetic one).
  // The non-const overload first makes the buffer this slab's own and
  // dense over its box, so a reference it returns is invalidated by
  // copying the slab. The const overload throws std::logic_error on a
  // tiled slab, whose buffer holds the period block, not the box.
  std::vector<double>& data();
  const std::vector<double>& data() const;

 private:
  // Elements plus, for a tiled slab, the period they repeat with.
  struct Buffer {
    std::vector<double> values;
    Dims period;  // empty: values is row-major over the slab's box
  };

  std::uint64_t offset_of(const Dims& coord) const;
  // Writes the `len` elements of the row that starts at `coord` to `out`.
  void read_row(const Dims& coord, std::uint64_t len, double* out) const;
  // Copies src's rows of `overlap` into this slab's own dense buffer.
  void copy_rows(const Slab& src, const Box& overlap);
  // Makes the buffer this slab's own and dense before a write: clones it
  // when another slab shares it, and expands a period block over the box.
  void own();
  // One synthetic seed, or one period with bitwise-equal blocks.
  bool same_definition(const Slab& other) const;

  friend Slab assemble(const Box& box, const std::vector<const Slab*>& pieces,
                       std::uint64_t cap);

  Box box_;
  bool materialized_ = false;
  std::uint64_t seed_ = 0;
  std::shared_ptr<Buffer> data_;  // shared between copies
};

// A reader's slab over `box` from the pieces a staging library gathered;
// callers check first that the pieces cover `box`. Pieces sharing one
// definition (one synthetic seed, or one period with bitwise-equal blocks)
// give a slab of that definition at any size. Otherwise the pieces are
// copied into a zero-filled slab of up to `cap` elements; a larger box
// stays synthetic under the first piece's seed.
Slab assemble(const Box& box, const std::vector<const Slab*>& pieces,
              std::uint64_t cap);
Slab assemble(const Box& box, const std::vector<Slab>& pieces,
              std::uint64_t cap);

}  // namespace imc::nda

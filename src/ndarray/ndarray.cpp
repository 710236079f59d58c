#include "ndarray/ndarray.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <sstream>

namespace imc::nda {

Box::Box(Dims lower, Dims upper) : lb(lower), ub(upper) {
  assert(lb.size() == ub.size());
  for (std::size_t d = 0; d < lb.size(); ++d) assert(lb[d] <= ub[d]);
}

Box Box::whole(const Dims& global) {
  return Box(Dims(global.size(), 0), global);
}

bool Box::contains(const Box& other) const {
  if (other.dims() != dims()) return false;
  for (std::size_t d = 0; d < lb.size(); ++d) {
    if (other.lb[d] < lb[d] || other.ub[d] > ub[d]) return false;
  }
  return true;
}

bool Box::contains_point(const Dims& p) const {
  if (p.size() != lb.size()) return false;
  for (std::size_t d = 0; d < lb.size(); ++d) {
    if (p[d] < lb[d] || p[d] >= ub[d]) return false;
  }
  return true;
}

std::string Box::to_string() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t d = 0; d < lb.size(); ++d) {
    if (d != 0) os << ", ";
    os << lb[d] << ".." << ub[d];
  }
  os << ")";
  return os.str();
}

std::optional<Box> intersect(const Box& a, const Box& b) {
  if (a.dims() != b.dims()) return std::nullopt;
  Box out;
  out.lb.resize(a.lb.size());
  out.ub.resize(a.ub.size());
  for (std::size_t d = 0; d < a.lb.size(); ++d) {
    out.lb[d] = std::max(a.lb[d], b.lb[d]);
    out.ub[d] = std::min(a.ub[d], b.ub[d]);
    if (out.lb[d] >= out.ub[d]) return std::nullopt;
  }
  return out;
}

Status check_dims_32bit(const Dims& global) {
  constexpr std::uint64_t kMax32 = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t volume = 1;
  for (std::uint64_t extent : global) {
    if (extent > kMax32) {
      return make_error(ErrorCode::kDimensionOverflow,
                        "dimension extent " + std::to_string(extent) +
                            " exceeds 32-bit range");
    }
    // The libraries also computed element counts in 32-bit.
    if (extent != 0 && volume > kMax32 / extent) {
      return make_error(ErrorCode::kDimensionOverflow,
                        "element count overflows 32-bit arithmetic");
    }
    volume *= extent;
  }
  return Status::ok();
}

std::vector<Box> decompose_1d(const Dims& global, int parts, int dim) {
  assert(parts >= 1);
  assert(dim >= 0 && dim < static_cast<int>(global.size()));
  const std::uint64_t extent = global[static_cast<std::size_t>(dim)];
  assert(static_cast<std::uint64_t>(parts) <= extent);
  std::vector<Box> out;
  out.reserve(static_cast<std::size_t>(parts));
  const std::uint64_t base = extent / static_cast<std::uint64_t>(parts);
  const std::uint64_t rem = extent % static_cast<std::uint64_t>(parts);
  std::uint64_t lo = 0;
  for (int p = 0; p < parts; ++p) {
    const std::uint64_t len =
        base + (static_cast<std::uint64_t>(p) < rem ? 1 : 0);
    Box box = Box::whole(global);
    box.lb[static_cast<std::size_t>(dim)] = lo;
    box.ub[static_cast<std::size_t>(dim)] = lo + len;
    out.push_back(std::move(box));
    lo += len;
  }
  return out;
}

std::vector<Box> decompose_grid(const Dims& global,
                                const std::vector<int>& procs_per_dim) {
  assert(procs_per_dim.size() == global.size());
  // Per-dimension cut points via decompose_1d on each axis.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> cuts(
      global.size());
  for (std::size_t d = 0; d < global.size(); ++d) {
    auto blocks = decompose_1d(global, procs_per_dim[d], static_cast<int>(d));
    for (const auto& b : blocks) cuts[d].push_back({b.lb[d], b.ub[d]});
  }
  // Cartesian product, last dimension fastest (row-major rank order).
  std::vector<Box> out;
  std::size_t total = 1;
  for (int p : procs_per_dim) total *= static_cast<std::size_t>(p);
  out.reserve(total);
  std::vector<std::size_t> idx(global.size(), 0);
  for (std::size_t i = 0; i < total; ++i) {
    Box box;
    box.lb.resize(global.size());
    box.ub.resize(global.size());
    for (std::size_t d = 0; d < global.size(); ++d) {
      box.lb[d] = cuts[d][idx[d]].first;
      box.ub[d] = cuts[d][idx[d]].second;
    }
    out.push_back(std::move(box));
    for (std::size_t d = global.size(); d-- > 0;) {
      if (++idx[d] < cuts[d].size()) break;
      idx[d] = 0;
    }
  }
  return out;
}

int longest_dim(const Dims& global) {
  int best = 0;
  for (std::size_t d = 1; d < global.size(); ++d) {
    if (global[d] > global[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(d);
    }
  }
  return best;
}

std::vector<std::pair<int, Box>> intersecting(const std::vector<Box>& boxes,
                                              const Box& target) {
  std::vector<std::pair<int, Box>> out;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    if (auto overlap = intersect(boxes[i], target)) {
      out.emplace_back(static_cast<int>(i), std::move(*overlap));
    }
  }
  return out;
}

std::uint64_t VarDesc::total_bytes() const {
  std::uint64_t v = global.empty() ? 0 : 1;
  for (std::uint64_t e : global) v *= e;
  return v * kElementBytes;
}

namespace {

// Maps a chained hash to synthetic_value's (-1, 1) range.
double unit_from_hash(std::uint64_t h) {
  // Map to (-1, 1) with full mantissa use.
  return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;
}

// Advances all but the innermost dimension of `coord` through `within`
// (row-major: the innermost dimension is the contiguous run the bulk
// kernels below copy in one go). Returns false once every row is visited.
bool next_row(Dims& coord, const Box& within) {
  std::size_t d = coord.size() - 1;
  while (d-- > 0) {
    if (++coord[d] < within.ub[d]) return true;
    coord[d] = within.lb[d];
  }
  return false;
}

// Hash prefix over the outer coordinates: synthetic_value / checksum chain
// their per-coordinate hashes left to right, so one prefix per row covers
// everything but the innermost coordinate.
std::uint64_t row_prefix(std::uint64_t h, const Dims& coord) {
  for (std::size_t d = 0; d + 1 < coord.size(); ++d) {
    h = splitmix64(h ^ coord[d]);
  }
  return h;
}

// Offset of `coord` mod `period` in a row-major period block.
std::uint64_t block_offset(const Dims& coord, const Dims& period) {
  std::uint64_t off = 0;
  for (std::size_t d = 0; d < coord.size(); ++d) {
    off = off * period[d] + coord[d] % period[d];
  }
  return off;
}

// Reports a bad Slab::tiled argument, in every build.
[[noreturn]] void reject_tiling(const std::string& why) {
  throw std::invalid_argument("nda::Slab::tiled: " + why);
}

}  // namespace

double synthetic_value(std::uint64_t seed, const Dims& coord) {
  std::uint64_t h = splitmix64(seed);
  for (std::uint64_t c : coord) h = splitmix64(h ^ c);
  return unit_from_hash(h);
}

Slab Slab::materialized(Box box, std::vector<double> data) {
  assert(data.size() == box.volume());
  Slab s;
  s.box_ = std::move(box);
  s.materialized_ = true;
  s.data_ = std::make_shared<Buffer>(Buffer{std::move(data), {}});
  return s;
}

Slab Slab::tiled(Box box, Dims period, std::vector<double> block) {
  if (period.empty() || period.size() != box.lb.size()) {
    reject_tiling("period rank " + std::to_string(period.size()) +
                  " differs from box rank " + std::to_string(box.lb.size()));
  }
  if (std::find(period.begin(), period.end(), std::uint64_t{0}) !=
      period.end()) {
    reject_tiling("zero period extent");
  }
  const auto not_one_period = [&] {
    return "block of " + std::to_string(block.size()) +
           " elements is not one period";
  };
  std::uint64_t volume = 1;
  for (std::uint64_t extent : period) {
    // Compared before multiplying, so the product cannot wrap.
    if (extent > block.size() / volume) reject_tiling(not_one_period());
    volume *= extent;
  }
  if (volume != block.size()) reject_tiling(not_one_period());
  Slab s;
  s.box_ = std::move(box);
  s.materialized_ = true;
  s.data_ = std::make_shared<Buffer>(Buffer{std::move(block), period});
  return s;
}

Slab Slab::synthetic(Box box, std::uint64_t seed) {
  Slab s;
  s.box_ = std::move(box);
  s.materialized_ = false;
  s.seed_ = seed;
  return s;
}

Slab Slab::zeros(Box box) {
  std::vector<double> data(box.volume(), 0.0);
  return materialized(std::move(box), std::move(data));
}

std::uint64_t Slab::offset_of(const Dims& coord) const {
  std::uint64_t off = 0;
  for (std::size_t d = 0; d < coord.size(); ++d) {
    assert(coord[d] >= box_.lb[d] && coord[d] < box_.ub[d]);
    off = off * box_.extent(static_cast<int>(d)) + (coord[d] - box_.lb[d]);
  }
  return off;
}

void Slab::read_row(const Dims& coord, std::uint64_t len, double* out) const {
  const std::size_t last = coord.size() - 1;
  if (!materialized_) {
    // One hash prefix per row, finished per element.
    const std::uint64_t prefix = row_prefix(splitmix64(seed_), coord);
    for (std::uint64_t i = 0; i < len; ++i) {
      out[i] = unit_from_hash(splitmix64(prefix ^ (coord[last] + i)));
    }
    return;
  }
  if (!is_tiled()) {
    std::copy_n(data_->values.data() + offset_of(coord), len, out);
    return;
  }
  // The block row that holds coord, read from coord's phase in it: whole
  // runs up to the end of the period, then wrap to its start.
  const Dims& period = data_->period;
  std::uint64_t phase = coord[last] % period[last];
  const double* row =
      data_->values.data() + block_offset(coord, period) - phase;
  while (len > 0) {
    const std::uint64_t run = std::min(len, period[last] - phase);
    out = std::copy_n(row + phase, run, out);
    len -= run;
    phase = 0;
  }
}

void Slab::copy_rows(const Slab& src, const Box& overlap) {
  const std::uint64_t row_len = overlap.extent(overlap.dims() - 1);
  double* dst = data_->values.data();
  Dims coord = overlap.lb;
  do {
    src.read_row(coord, row_len, dst + offset_of(coord));
  } while (next_row(coord, overlap));
}

void Slab::own() {
  if (data_ == nullptr) {
    data_ = std::make_shared<Buffer>();
  } else if (is_tiled()) {
    Slab dense = zeros(box_);
    if (!box_.empty()) dense.copy_rows(*this, box_);
    data_ = std::move(dense.data_);
  } else if (data_.use_count() > 1) {
    data_ = std::make_shared<Buffer>(*data_);
  }
}

std::vector<double>& Slab::data() {
  own();
  return data_->values;
}

const std::vector<double>& Slab::data() const {
  static const std::vector<double> kNone;
  if (is_tiled()) {
    throw std::logic_error(
        "nda::Slab::data: a tiled slab holds its period block, not the "
        "elements of its box");
  }
  return data_ != nullptr ? data_->values : kNone;
}

double Slab::at(const Dims& coord) const {
  if (!materialized_) return synthetic_value(seed_, coord);
  if (!is_tiled()) return data_->values[offset_of(coord)];
  assert(box_.contains_point(coord));
  return data_->values[block_offset(coord, data_->period)];
}

void Slab::read_points(const Dims& origin,
                       std::span<const std::uint64_t> offsets,
                       std::size_t rank, double* out) const {
  const std::size_t nd = box_.lb.size();
  assert(origin.size() == nd && rank >= 1 && rank <= nd);
  assert(offsets.size() % rank == 0);
  const std::size_t lead = nd - rank;
  for (std::size_t d = 0; d < lead; ++d) {
    assert(origin[d] >= box_.lb[d] && origin[d] < box_.ub[d]);
  }
  const std::uint64_t* const end = offsets.data() + offsets.size();
  // Global coordinate `lead + k` of the point whose offsets start at p.
  const auto coord = [&](const std::uint64_t* p, std::size_t k) {
    const std::size_t d = lead + k;
    const std::uint64_t c = origin[d] + p[k];
    assert(c >= box_.lb[d] && c < box_.ub[d]);
    return c;
  };
  if (!materialized_) {
    // synthetic_value's hash chain: the seed and the leading coordinates
    // are hashed once for every point.
    std::uint64_t prefix = splitmix64(seed_);
    for (std::size_t d = 0; d < lead; ++d) {
      prefix = splitmix64(prefix ^ origin[d]);
    }
    for (const std::uint64_t* p = offsets.data(); p != end; p += rank) {
      std::uint64_t h = prefix;
      for (std::size_t k = 0; k < rank; ++k) h = splitmix64(h ^ coord(p, k));
      *out++ = unit_from_hash(h);
    }
    return;
  }
  // The row-major offset at() computes: over the box for dense content,
  // over the period for tiled content, whose coordinates wrap modulo it.
  const std::vector<double>& values = data_->values;
  const auto gather = [&](const Dims& shape, auto index) {
    Dims stride(nd);
    std::uint64_t step = 1;
    for (std::size_t d = nd; d-- > 0;) {
      stride[d] = step;
      step *= shape[d];
    }
    std::uint64_t base = 0;
    for (std::size_t d = 0; d < lead; ++d) {
      base += index(origin[d], d) * stride[d];
    }
    for (const std::uint64_t* p = offsets.data(); p != end; p += rank) {
      std::uint64_t off = base;
      for (std::size_t k = 0; k < rank; ++k) {
        off += index(coord(p, k), lead + k) * stride[lead + k];
      }
      *out++ = values[off];
    }
  };
  if (!is_tiled()) {
    Dims extents(nd);
    for (std::size_t d = 0; d < nd; ++d) extents[d] = box_.ub[d] - box_.lb[d];
    gather(extents, [&](std::uint64_t c, std::size_t d) {
      return c - box_.lb[d];
    });
  } else {
    const Dims& period = data_->period;
    gather(period, [&](std::uint64_t c, std::size_t d) {
      return c % period[d];
    });
  }
}

void Slab::set(const Dims& coord, double value) {
  assert(materialized_);
  own();
  data_->values[offset_of(coord)] = value;
}

void Slab::fill_from(const Slab& src) {
  assert(materialized_);
  auto overlap = intersect(box_, src.box());
  if (!overlap || overlap->volume() == 0) return;
  if (src.materialized_ && box_ == src.box_) {
    // The whole content is replaced by src's: share its buffer.
    data_ = src.data_;
    return;
  }
  own();
  copy_rows(src, *overlap);
}

Slab Slab::extract(const Box& sub) const {
  assert(box_.contains(sub));
  if (!materialized_) return synthetic(sub, seed_);
  if (sub == box_ || is_tiled()) {
    // The buffer defines every element of the sub-box too: share it.
    Slab out = *this;
    out.box_ = sub;
    return out;
  }
  // Gather rows straight into the new buffer — no zero-fill of memory that
  // is overwritten on the next line anyway.
  std::vector<double> data;
  data.reserve(sub.volume());
  if (sub.volume() > 0) {
    const std::size_t nd = sub.lb.size();
    const std::uint64_t row_len = sub.extent(static_cast<int>(nd) - 1);
    Dims coord = sub.lb;
    do {
      const double* row = data_->values.data() + offset_of(coord);
      data.insert(data.end(), row, row + row_len);
    } while (next_row(coord, sub));
  }
  return materialized(sub, std::move(data));
}

double Slab::checksum() const {
  double sum = 0;
  if (box_.volume() == 0) return sum;
  const std::size_t nd = box_.lb.size();
  const std::uint64_t row_len = box_.extent(static_cast<int>(nd) - 1);
  const std::uint64_t c0 = box_.lb[nd - 1];
  std::vector<double> row(row_len);
  Dims coord = box_.lb;
  // Row-major accumulation in the exact per-element formula (coordinate
  // hash times value), so the sum stays bit-identical across rewrites and
  // across the dense, tiled and synthetic forms of one content.
  do {
    const std::uint64_t hash_prefix = row_prefix(0x9e3779b9, coord);
    read_row(coord, row_len, row.data());
    for (std::uint64_t i = 0; i < row_len; ++i) {
      sum += static_cast<double>(splitmix64(hash_prefix ^ (c0 + i)) >> 40) *
             row[i];
    }
  } while (next_row(coord, box_));
  return sum;
}

bool Slab::same_definition(const Slab& other) const {
  if (!materialized_ || !other.materialized_) {
    return !materialized_ && !other.materialized_ && seed_ == other.seed_;
  }
  if (!is_tiled() || !other.is_tiled()) return false;
  if (data_ == other.data_) return true;
  const std::vector<double>& a = data_->values;
  const std::vector<double>& b = other.data_->values;
  // Bitwise, not numeric, equality: +0.0 and -0.0 are two definitions.
  return data_->period == other.data_->period &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

Slab assemble(const Box& box, const std::vector<const Slab*>& pieces,
              std::uint64_t cap) {
  const bool one_definition =
      !pieces.empty() &&
      std::all_of(pieces.begin(), pieces.end(), [&](const Slab* p) {
        return p->same_definition(*pieces.front());
      });
  if (one_definition && pieces.front()->is_materialized()) {
    // One tiling: the reader's slab shares the first piece's block.
    Slab out = *pieces.front();
    out.box_ = box;
    return out;
  }
  if (one_definition || box.volume() > cap) {
    assert(!pieces.empty());
    return Slab::synthetic(box, pieces.front()->seed());
  }
  Slab out = Slab::zeros(box);
  for (const Slab* p : pieces) out.fill_from(*p);
  return out;
}

Slab assemble(const Box& box, const std::vector<Slab>& pieces,
              std::uint64_t cap) {
  std::vector<const Slab*> refs;
  refs.reserve(pieces.size());
  for (const Slab& p : pieces) refs.push_back(&p);
  return assemble(box, refs, cap);
}

}  // namespace imc::nda

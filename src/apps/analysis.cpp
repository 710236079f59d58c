#include "apps/analysis.h"

#include <cassert>
#include <cmath>

#include "common/rng.h"

namespace imc::apps {
namespace {

// Deterministic coordinate sampler over a box (excluding given leading-axis
// handling; callers build full coordinates).
std::vector<nda::Dims> sample_coords(const nda::Box& box, int max_samples,
                                     std::uint64_t seed) {
  std::vector<nda::Dims> out;
  const std::uint64_t volume = box.volume();
  if (volume == 0) return out;
  Rng rng(seed);
  const std::uint64_t n =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(max_samples), volume);
  out.reserve(n);
  for (std::uint64_t s = 0; s < n; ++s) {
    nda::Dims coord(box.lb.size());
    for (std::size_t d = 0; d < coord.size(); ++d) {
      coord[d] = box.lb[d] + rng.next_below(box.extent(static_cast<int>(d)));
    }
    out.push_back(std::move(coord));
  }
  return out;
}

}  // namespace

double mean_squared_displacement(const nda::Slab& reference,
                                 const nda::Slab& current, int max_samples) {
  assert(reference.box() == current.box());
  const nda::Box& box = reference.box();
  assert(box.dims() == 3 && box.lb[0] == 0 && box.ub[0] >= 3);
  if (!reference.is_materialized() && !current.is_materialized() &&
      reference.seed() == current.seed()) {
    return 0.0;  // every sampled delta would be x - x
  }

  // Sample (proc, atom) pairs; read x/y/z from axis 0.
  nda::Box particle_box;
  particle_box.lb = {box.lb[1], box.lb[2]};
  particle_box.ub = {box.ub[1], box.ub[2]};
  auto samples = sample_coords(particle_box, max_samples, /*seed=*/0xD15ul);
  if (samples.empty()) return 0.0;

  double sum = 0;
  for (const auto& pa : samples) {
    double d2 = 0;
    for (std::uint64_t axis = 0; axis < 3; ++axis) {
      const nda::Dims coord = {axis, pa[0], pa[1]};
      const double delta = current.at(coord) - reference.at(coord);
      d2 += delta * delta;
    }
    sum += d2;
  }
  return sum / static_cast<double>(samples.size());
}

std::vector<double> moment_analysis(const nda::Slab& field, int max_order,
                                    int max_samples) {
  auto samples = sample_coords(field.box(), max_samples, /*seed=*/0x47aul);
  std::vector<double> moments(static_cast<std::size_t>(max_order) - 1, 0.0);
  if (samples.empty()) return moments;

  double mean = 0;
  std::vector<double> values;
  values.reserve(samples.size());
  for (const auto& coord : samples) {
    values.push_back(field.at(coord));
    mean += values.back();
  }
  mean /= static_cast<double>(values.size());

  for (double v : values) {
    double power = (v - mean) * (v - mean);
    for (int order = 2; order <= max_order; ++order) {
      moments[static_cast<std::size_t>(order - 2)] += power;
      power *= (v - mean);
    }
  }
  for (auto& m : moments) m /= static_cast<double>(values.size());
  return moments;
}

}  // namespace imc::apps

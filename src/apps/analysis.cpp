#include "apps/analysis.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "common/rng.h"

namespace imc::apps {
namespace {

// Each analysis draws its points from its own fixed seed.
constexpr std::uint64_t kMsdSeed = 0xD15;
constexpr std::uint64_t kMtaSeed = 0x47a;

}  // namespace

SamplePlan::SamplePlan(const nda::Dims& extents, int max_samples,
                       std::uint64_t seed)
    : extents_(extents), max_samples_(max_samples), seed_(seed) {
  if (max_samples < 0) {
    throw std::invalid_argument("apps::SamplePlan: negative sample count " +
                                std::to_string(max_samples));
  }
  std::uint64_t volume = 1;
  for (std::uint64_t extent : extents) volume *= extent;
  if (extents.empty() || volume == 0) return;
  size_ = std::min(static_cast<std::uint64_t>(max_samples), volume);
  offsets_.reserve(size_ * extents.size());
  Rng rng(seed);
  for (std::size_t s = 0; s < size_; ++s) {
    for (std::uint64_t extent : extents) {
      offsets_.push_back(rng.next_below(extent));
    }
  }
}

const SamplePlan& SamplePlans::get(const nda::Dims& extents, int max_samples,
                                   std::uint64_t seed) {
  for (const auto& plan : plans_) {
    if (plan->matches(extents, max_samples, seed)) return *plan;
  }
  return *plans_.emplace_back(
      std::make_unique<const SamplePlan>(extents, max_samples, seed));
}

double mean_squared_displacement(const nda::Slab& reference,
                                 const nda::Slab& current, int max_samples,
                                 SamplePlans& plans) {
  assert(reference.box() == current.box());
  const nda::Box& box = reference.box();
  assert(box.dims() == 3 && box.lb[0] == 0 && box.ub[0] >= 3);
  if (!reference.is_materialized() && !current.is_materialized() &&
      reference.seed() == current.seed()) {
    return 0.0;  // every sampled delta would be x - x
  }

  // Sample (proc, atom) pairs; read x/y/z from axis 0.
  const SamplePlan& plan =
      plans.get({box.extent(1), box.extent(2)}, max_samples, kMsdSeed);
  const std::size_t n = plan.size();
  if (n == 0) return 0.0;
  // d2[s] adds pair s's squared x, y, z deltas in axis order, then the
  // pairs are summed in plan order: every addition a loop over the pairs
  // makes, in the same order.
  std::vector<double> buffer(3 * n, 0.0);
  double* const d2 = buffer.data();
  double* const cur = d2 + n;
  double* const ref = cur + n;
  for (std::uint64_t axis = 0; axis < 3; ++axis) {
    const nda::Dims origin = {axis, box.lb[1], box.lb[2]};
    current.read_points(origin, plan.offsets(), 2, cur);
    reference.read_points(origin, plan.offsets(), 2, ref);
    for (std::size_t s = 0; s < n; ++s) {
      const double delta = cur[s] - ref[s];
      d2[s] += delta * delta;
    }
  }
  double sum = 0;
  for (std::size_t s = 0; s < n; ++s) sum += d2[s];
  return sum / static_cast<double>(n);
}

std::vector<double> moment_analysis(const nda::Slab& field, int max_order,
                                    int max_samples, SamplePlans& plans) {
  const nda::Box& box = field.box();
  nda::Dims extents(box.lb.size());
  for (std::size_t d = 0; d < extents.size(); ++d) {
    extents[d] = box.ub[d] - box.lb[d];
  }
  const SamplePlan& plan = plans.get(extents, max_samples, kMtaSeed);
  std::vector<double> moments(static_cast<std::size_t>(max_order) - 1, 0.0);
  const std::size_t n = plan.size();
  if (n == 0) return moments;

  std::vector<double> values(n);
  field.read_points(box.lb, plan.offsets(), extents.size(), values.data());
  double mean = 0;
  for (double v : values) mean += v;
  mean /= static_cast<double>(n);

  for (double v : values) {
    double power = (v - mean) * (v - mean);
    for (int order = 2; order <= max_order; ++order) {
      moments[static_cast<std::size_t>(order - 2)] += power;
      power *= (v - mean);
    }
  }
  for (auto& m : moments) m /= static_cast<double>(n);
  return moments;
}

double mean_squared_displacement(const nda::Slab& reference,
                                 const nda::Slab& current, int max_samples) {
  SamplePlans plans;
  return mean_squared_displacement(reference, current, max_samples, plans);
}

std::vector<double> moment_analysis(const nda::Slab& field, int max_order,
                                    int max_samples) {
  SamplePlans plans;
  return moment_analysis(field, max_order, max_samples, plans);
}

}  // namespace imc::apps

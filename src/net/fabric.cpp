#include "net/fabric.h"
#include <cmath>
#include <cstdlib>

#include "fault/fault.h"

namespace imc::net {
namespace {

// Link degradation (fault plan window): bandwidth shrinks by the plan's
// factor while the window is open; 1.0 otherwise or with no plan bound.
double degrade_factor(double now) {
  fault::Injector* injector = fault::active();
  return injector != nullptr ? injector->link_factor(now) : 1.0;
}

}  // namespace

int Fabric::hop_count(const hpc::Node& src, const hpc::Node& dst) const {
  if (&src == &dst) return 0;
  switch (config_->fabric) {
    case hpc::FabricType::kGemini: {
      // 3-D torus: per-dimension wraparound distance summed.
      const int dims[3] = {config_->torus_x, config_->torus_y,
                           config_->torus_z};
      int a = src.id(), b = dst.id(), hops = 0;
      for (int d = 0; d < 3; ++d) {
        const int ca = a % dims[d], cb = b % dims[d];
        a /= dims[d];
        b /= dims[d];
        const int direct = std::abs(ca - cb);
        hops += std::min(direct, dims[d] - direct);
      }
      return std::max(1, hops);
    }
    case hpc::FabricType::kAries: {
      // Dragonfly: 2 hops inside a group, 3 across groups.
      const int group_a = src.id() / config_->dragonfly_group_nodes;
      const int group_b = dst.id() / config_->dragonfly_group_nodes;
      return group_a == group_b ? 2 : 3;
    }
    case hpc::FabricType::kGeneric:
      return 1;
  }
  return 1;
}

double Fabric::reserve_transfer(hpc::Node& src, hpc::Node& dst,
                                std::uint64_t bytes, double bandwidth_cap) {
  const double now = engine_->now();
  ++transfers_;
  bytes_total_ += static_cast<double>(bytes);

  if (&src == &dst) {
    // Node-local move: a memory copy, no NIC involvement.
    return now + static_cast<double>(bytes) / config_->shm_bandwidth +
           config_->shm_latency;
  }

  const double bw = effective_bandwidth(bandwidth_cap) * degrade_factor(now);
  const double lat = latency(src, dst);

  const double egress_end = src.egress().reserve(now, bytes, bw);
  const double egress_start = egress_end - static_cast<double>(bytes) / bw;
  const double ingress_end =
      dst.ingress().reserve(egress_start + lat, bytes, bw);
  return std::max(ingress_end, egress_end + lat);
}

Fabric::Transfer Fabric::transfer(hpc::Node& src, hpc::Node& dst,
                                  std::uint64_t bytes, double bandwidth_cap) {
  const double now = engine_->now();
  const double done_at = reserve_transfer(src, dst, bytes, bandwidth_cap);
  trace::Span span = trace::span("fabric.transfer", trace::Track{src.id(), 0});
  if (span.active()) {
    // Contention-wait: delay beyond the uncontended latency + serialization
    // time, i.e. what NIC queueing added.
    const bool local = &src == &dst;
    const double ideal =
        local ? static_cast<double>(bytes) / config_->shm_bandwidth +
                    config_->shm_latency
              : latency(src, dst) +
                    static_cast<double>(bytes) /
                        (effective_bandwidth(bandwidth_cap) *
                         degrade_factor(now));
    span.arg("bytes", static_cast<double>(bytes));
    span.arg("hops", hop_count(src, dst));
    span.arg("contention_wait", std::max(0.0, (done_at - now) - ideal));
  }
  return Transfer(engine_->sleep(done_at - now), std::move(span));
}

}  // namespace imc::net

// Interconnect timing model.
//
// Transfers use cut-through reservations on two NIC links: the sender's
// egress and the receiver's ingress horizon (hpc::LinkState). A transfer of
// S bytes at bandwidth B:
//   egress:  starts at max(now, egress.busy_until), occupies S/B
//   ingress: starts at max(egress_start + latency, ingress.busy_until),
//            occupies S/B
//   completion = max(ingress_end, egress_end + latency)
//
// This O(1) model reproduces the contention effects the paper's findings
// hinge on: N senders targeting one staging node serialize on that node's
// ingress link (the N-to-1 pathology of Finding 3), one server feeding N
// readers serializes on its egress, and spread N-to-N traffic proceeds in
// parallel. Uncontended transfers cost latency + S/B.
//
// Gemini (Titan, 3D torus) and Aries (Cori, dragonfly) differ in injection
// bandwidth and latency; both values come from the paper (5.5 vs 15.6 GB/s).
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <utility>

#include "hpc/cluster.h"
#include "hpc/machine.h"
#include "sim/engine.h"
#include "trace/trace.h"

namespace imc::net {

class Fabric {
 public:
  Fabric(sim::Engine& engine, const hpc::MachineConfig& config)
      : engine_(&engine), config_(&config) {}

  const hpc::MachineConfig& config() const { return *config_; }

  // Awaiter of transfer(): the engine sleep until the last byte arrives and
  // the "fabric.transfer" trace span, which ends on resumption. An awaiter
  // rather than a coroutine, so a transfer costs its caller no frame.
  class [[nodiscard]] Transfer {
   public:
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { sleep_.await_suspend(h); }
    void await_resume() { span_.end(); }

   private:
    friend class Fabric;
    Transfer(sim::Engine::Sleep sleep, trace::Span span)
        : sleep_(sleep), span_(std::move(span)) {}

    sim::Engine::Sleep sleep_;
    trace::Span span_;
  };

  // co_await transfer(...) completes when the last byte arrives; the link
  // reservations are made when transfer() is called. `bandwidth_cap`
  // (bytes/s) lowers the stream rate below the NIC injection bandwidth
  // (used by the socket transport's copy ceiling); 0 means NIC-limited.
  Transfer transfer(hpc::Node& src, hpc::Node& dst, std::uint64_t bytes,
                    double bandwidth_cap = 0);

  // Timing-only variant returning the completion instant without suspending;
  // transfer() is implemented on top of it.
  double reserve_transfer(hpc::Node& src, hpc::Node& dst, std::uint64_t bytes,
                          double bandwidth_cap = 0);

  double effective_bandwidth(double bandwidth_cap) const {
    const double nic = config_->injection_bandwidth;
    return bandwidth_cap > 0 ? std::min(nic, bandwidth_cap) : nic;
  }

  // Router hops between two nodes under the machine's topology: torus
  // Manhattan distance with wraparound (Gemini), <=3 for dragonfly (Aries,
  // 2 within a group), 1 for the generic fabric.
  int hop_count(const hpc::Node& src, const hpc::Node& dst) const;

  // Message latency between two nodes: base + hops * hop_latency.
  double latency(const hpc::Node& src, const hpc::Node& dst) const {
    return config_->link_latency +
           hop_count(src, dst) * config_->hop_latency;
  }

  std::uint64_t transfers_started() const { return transfers_; }
  double bytes_transferred() const { return bytes_total_; }

 private:
  sim::Engine* engine_;
  const hpc::MachineConfig* config_;
  std::uint64_t transfers_ = 0;
  double bytes_total_ = 0;
};

}  // namespace imc::net

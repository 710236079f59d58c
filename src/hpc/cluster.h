// Nodes and clusters.
//
// A Node carries the per-node resources whose exhaustion drives the paper's
// robustness findings (Table IV): DRAM, registered-RDMA memory and memory
// handlers, and TCP socket descriptors. It also carries the two NIC "links"
// (egress/ingress busy horizons) used by the fabric's cut-through transfer
// model in src/net.
//
// A Cluster owns the nodes of one machine and assigns MPI ranks and staging
// servers to them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/audit.h"
#include "common/status.h"
#include "hpc/machine.h"
#include "mem/memory.h"

namespace imc::hpc {

// Registered-RDMA resource pool of one node.
//
// The paper (Fig. 4) measured on Titan: every registration consumes one
// memory handler (cap 3675) and `size` bytes of registered memory (cap
// 1843 MB). The observed 512 KB crossover emerges from the two caps
// (1843 MB / 3675 ~= 513 KB), so no special-casing is needed.
// Registration is synchronous uGNI-style: it fails immediately rather than
// waiting (which is why applications crash, §III-B1).
class RdmaPool {
 public:
  RdmaPool(std::uint64_t byte_capacity, std::uint64_t handler_capacity)
      : byte_capacity_(byte_capacity), handler_capacity_(handler_capacity) {}

  // `owner` tags the registration in the leak auditor; acquire/release pairs
  // must use the same tag.
  Status register_memory(std::uint64_t size, audit::Owner& owner) {
    if (handlers_used_ + 1 > handler_capacity_) {
      return make_error(ErrorCode::kOutOfRdmaHandlers,
                        "RDMA memory-handler cap reached (" +
                            std::to_string(handler_capacity_) + ")");
    }
    if (bytes_used_ + size > byte_capacity_) {
      return make_error(
          ErrorCode::kOutOfRdmaMemory,
          "registered-memory cap reached: need " + std::to_string(size) +
              " B, free " + std::to_string(byte_capacity_ - bytes_used_) +
              " B");
    }
    handlers_used_ += 1;
    bytes_used_ += size;
    peak_bytes_ = std::max(peak_bytes_, bytes_used_);
    peak_handlers_ = std::max(peak_handlers_, handlers_used_);
    audit::acquire(audit::Resource::kRdmaHandlers, owner, 1);
    audit::acquire(audit::Resource::kRdmaBytes, owner, size);
    return Status::ok();
  }

  void deregister(std::uint64_t size, audit::Owner& owner) {
    const std::uint64_t handlers = std::min<std::uint64_t>(1, handlers_used_);
    const std::uint64_t bytes = std::min(size, bytes_used_);
    handlers_used_ -= handlers;
    bytes_used_ -= bytes;
    audit::release(audit::Resource::kRdmaHandlers, owner, handlers);
    audit::release(audit::Resource::kRdmaBytes, owner, bytes);
  }

  // Untagged registrations, resolved by text on every call.
  Status register_memory(std::uint64_t size) {
    audit::Owner untagged("untagged");
    return register_memory(size, untagged);
  }
  void deregister(std::uint64_t size) {
    audit::Owner untagged("untagged");
    deregister(size, untagged);
  }

  std::uint64_t bytes_used() const { return bytes_used_; }
  std::uint64_t bytes_capacity() const { return byte_capacity_; }
  std::uint64_t handler_capacity() const { return handler_capacity_; }
  std::uint64_t peak_bytes() const { return peak_bytes_; }
  std::uint64_t peak_handlers() const { return peak_handlers_; }

 private:
  std::uint64_t byte_capacity_;
  std::uint64_t handler_capacity_;
  std::uint64_t bytes_used_ = 0;
  std::uint64_t handlers_used_ = 0;
  std::uint64_t peak_bytes_ = 0;
  std::uint64_t peak_handlers_ = 0;
};

// TCP socket-descriptor pool of one node (Table IV "out of sockets").
class SocketPool {
 public:
  explicit SocketPool(int capacity) : capacity_(capacity) {}

  Status open(const std::string& owner = "untagged") {
    if (used_ >= capacity_) {
      return make_error(ErrorCode::kOutOfSockets,
                        "socket descriptors depleted (" +
                            std::to_string(capacity_) + " per node)");
    }
    ++used_;
    peak_ = std::max(peak_, used_);
    audit::acquire(audit::Resource::kSockets, owner, 1);
    return Status::ok();
  }

  void close(const std::string& owner = "untagged") {
    const int n = std::min(1, used_);
    used_ -= n;
    audit::release(audit::Resource::kSockets, owner,
                   static_cast<std::uint64_t>(n));
  }

  int used() const { return used_; }
  int capacity() const { return capacity_; }
  int peak() const { return peak_; }

 private:
  int capacity_;
  int used_ = 0;
  int peak_ = 0;
};

// NIC link horizon: the cut-through transfer model reserves [start, end)
// slots on the sender's egress and receiver's ingress link.
struct LinkState {
  double busy_until = 0;
  double bytes_moved = 0;  // lifetime counter, for utilization reports

  // Reserves service for `bytes` at `bandwidth` starting no earlier than
  // `earliest`; returns the completion time.
  double reserve(double earliest, std::uint64_t bytes, double bandwidth) {
    const double start = std::max(earliest, busy_until);
    busy_until = start + static_cast<double>(bytes) / bandwidth;
    bytes_moved += static_cast<double>(bytes);
    return busy_until;
  }
};

class Node {
 public:
  Node(const MachineConfig& config, int id)
      : id_(id),
        memory_(config.memory_per_node),
        rdma_(config.rdma_memory_per_node, config.rdma_handlers_per_node),
        sockets_(config.socket_descriptors_per_node) {}

  int id() const { return id_; }
  mem::NodeMemory& memory() { return memory_; }
  RdmaPool& rdma() { return rdma_; }
  SocketPool& sockets() { return sockets_; }
  LinkState& egress() { return egress_; }
  LinkState& ingress() { return ingress_; }

 private:
  int id_;
  mem::NodeMemory memory_;
  RdmaPool rdma_;
  SocketPool sockets_;
  LinkState egress_;
  LinkState ingress_;
};

// A set of nodes of one machine plus placement bookkeeping.
class Cluster {
 public:
  explicit Cluster(MachineConfig config) : config_(std::move(config)) {}

  const MachineConfig& config() const { return config_; }

  // Adds `count` fresh nodes and returns their ids.
  std::vector<int> allocate_nodes(int count);

  Node& node(int id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  const Node& node(int id) const {
    return *nodes_.at(static_cast<std::size_t>(id));
  }
  int node_count() const { return static_cast<int>(nodes_.size()); }

  // Places `nprocs` processes round-robin-free (block placement) with
  // `per_node` processes per node (defaults to cores_per_node), allocating
  // fresh nodes. Returns the node id hosting each process.
  std::vector<int> place_block(int nprocs, int per_node = 0);

  // Places processes onto an explicit set of existing nodes, block-wise.
  std::vector<int> place_onto(const std::vector<int>& node_ids, int nprocs);

 private:
  MachineConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace imc::hpc

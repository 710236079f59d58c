// Point-to-point transports used by the in-memory libraries.
//
// The paper compares three transport families (§III-B5, Fig. 10):
//   * proprietary low-level RDMA (Cray uGNI, used by DataSpaces/DIMES) —
//     full injection bandwidth, fail-fast synchronous memory registration;
//   * portable RDMA (Sandia NNTI, used by Flexpath) — near-native bandwidth
//     with a small per-transfer handshake overhead;
//   * TCP sockets — bandwidth capped by the memory-copy cost across the
//     network stack, per-connection descriptors that can run out;
// plus the shared-memory mode of §III-B7 for colocated executables.
//
// Registration semantics: an RDMA transfer transiently registers the message
// buffer on each side unless the caller states that side is already pinned
// (libraries pre-register staging pools and keep staged objects registered;
// that is how the paper's out-of-RDMA-memory and out-of-handler failures
// arise, and our DataSpaces/DIMES layers do the same through
// hpc::RdmaPool).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <utility>

#include "sim/sync.h"

#include "common/status.h"
#include "net/drc.h"
#include "net/endpoint.h"
#include "net/fabric.h"
#include "sim/task.h"

namespace imc::net {

enum class TransportKind {
  kRdmaUgni,
  kRdmaNnti,
  kSockets,
  kSharedMemory,
};

std::string_view to_string(TransportKind kind);

struct TransferOptions {
  // The corresponding side's buffer is already registered by the library
  // (no transient registration is attempted there).
  bool src_pinned = false;
  bool dst_pinned = false;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportKind kind() const = 0;
  std::string_view name() const { return to_string(kind()); }

  // One-time pairwise setup; idempotent. Sockets consume descriptors here;
  // RDMA on a DRC machine obtains credentials here.
  virtual sim::Task<Status> connect(const Endpoint& a, const Endpoint& b) = 0;

  // Moves `bytes` from one process to another. Completes when the last byte
  // has arrived.
  virtual sim::Task<Status> transfer(const Endpoint& from, const Endpoint& to,
                                     std::uint64_t bytes,
                                     TransferOptions opts = {}) = 0;

  // Tears down all connections involving endpoint `e` (releases sockets).
  virtual void disconnect_all(const Endpoint& e) { (void)e; }

  std::uint64_t transfer_count() const { return transfer_count_; }

 protected:
  std::uint64_t transfer_count_ = 0;
};

// Cray uGNI (kRdmaUgni) or Sandia NNTI (kRdmaNnti).
class RdmaTransport final : public Transport {
 public:
  RdmaTransport(sim::Engine& engine, Fabric& fabric, TransportKind kind,
                DrcService* drc = nullptr)
      : engine_(&engine), fabric_(&fabric), kind_(kind), drc_(drc) {}

  TransportKind kind() const override { return kind_; }
  sim::Task<Status> connect(const Endpoint& a, const Endpoint& b) override;
  sim::Task<Status> transfer(const Endpoint& from, const Endpoint& to,
                             std::uint64_t bytes,
                             TransferOptions opts) override;
  // Releases the endpoint's DRC credential (credentials are per-pid; the
  // paper's DRC service otherwise accumulates them for the job's lifetime).
  void disconnect_all(const Endpoint& e) override;

 private:
  sim::Engine* engine_;
  Fabric* fabric_;
  TransportKind kind_;
  DrcService* drc_;
  // Audit owner of transient registrations. They pair up within one
  // transfer, so one tag per transport suffices.
  audit::Owner transient_owner_{"rdma-transient"};
};

// TCP sockets (EVPath "sockets" CM transport / DataSpaces socket build).
//
// Two modes:
//  * per-connection (default, what the paper's libraries do): one socket
//    pair per endpoint pair — descriptors deplete at scale (Table IV).
//  * pooled (Table IV's suggested resolve): all endpoints sharing a node
//    pair multiplex over kStreamsPerNodePair streams. Descriptors no
//    longer scale with the process count, but concurrent transfers contend
//    for the pool ("this may compromise the data movement efficiency").
class SocketTransport final : public Transport {
 public:
  static constexpr int kStreamsPerNodePair = 2;

  SocketTransport(sim::Engine& engine, Fabric& fabric, bool pooled = false)
      : engine_(&engine), fabric_(&fabric), pooled_(pooled) {}

  TransportKind kind() const override { return TransportKind::kSockets; }
  sim::Task<Status> connect(const Endpoint& a, const Endpoint& b) override;
  sim::Task<Status> transfer(const Endpoint& from, const Endpoint& to,
                             std::uint64_t bytes,
                             TransferOptions opts) override;
  void disconnect_all(const Endpoint& e) override;

  std::size_t open_connections() const { return connections_.size(); }

 private:
  struct Conn {
    hpc::Node* a_node;
    hpc::Node* b_node;
  };
  struct Pool {
    hpc::Node* a_node;
    hpc::Node* b_node;
    int streams = 0;
    std::unique_ptr<sim::Semaphore> slots;
    // Endpoints multiplexed over this pool; the last one to disconnect
    // closes the pool's descriptors.
    std::set<int> users;
  };

  static std::pair<int, int> node_key(const Endpoint& a, const Endpoint& b);

  sim::Engine* engine_;
  Fabric* fabric_;
  bool pooled_;
  std::map<std::pair<int, int>, Conn> connections_;  // keyed by (min,max) pid
  std::map<std::pair<int, int>, Pool> pools_;        // keyed by node pair
};

// Node-local shared-memory segments (§III-B7). Both endpoints must be on
// the same node.
class ShmTransport final : public Transport {
 public:
  explicit ShmTransport(sim::Engine& engine, const hpc::MachineConfig& config)
      : engine_(&engine), config_(&config) {}

  TransportKind kind() const override { return TransportKind::kSharedMemory; }
  sim::Task<Status> connect(const Endpoint& a, const Endpoint& b) override;
  sim::Task<Status> transfer(const Endpoint& from, const Endpoint& to,
                             std::uint64_t bytes,
                             TransferOptions opts) override;

 private:
  sim::Engine* engine_;
  const hpc::MachineConfig* config_;
};

}  // namespace imc::net

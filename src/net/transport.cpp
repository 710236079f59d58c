#include "net/transport.h"

#include <algorithm>

#include "fault/fault.h"
#include "trace/trace.h"

namespace imc::net {
namespace {

// NNTI adds a request/result handshake around each RDMA op and stages
// through its own pinned buffers; modeled as a small fixed overhead plus a
// slightly lower effective rate than raw uGNI.
constexpr double kNntiPerTransferOverhead = 15e-6;  // seconds
constexpr double kNntiEfficiency = 0.97;

// Per-message socket cost beyond the copy-bandwidth cap: syscall + TCP
// bookkeeping on both ends.
constexpr double kSocketPerTransferOverhead = 30e-6;  // seconds

// DART/NNTI move large payloads as a pipeline of bounded fragments, so a
// transfer's *transient* registration footprint is one fragment, not the
// whole payload. (Persistent staging registrations — the paper's capacity
// killer — are made by the libraries through RdmaPool directly.)
constexpr std::uint64_t kRdmaFragmentBytes = 32ull * 1024 * 1024;

std::pair<int, int> pair_key(const Endpoint& a, const Endpoint& b) {
  return {std::min(a.pid, b.pid), std::max(a.pid, b.pid)};
}

// Socket audit owner tags: by connection/pool key, so a leaked descriptor
// names the culprit pair.

std::string conn_owner(std::pair<int, int> key) {
  return "conn:" + std::to_string(key.first) + "-" +
         std::to_string(key.second);
}

std::string pool_owner(std::pair<int, int> key) {
  return "pool:" + std::to_string(key.first) + "-" +
         std::to_string(key.second);
}

// --- Fault hooks (all no-ops when no fault plan is bound) -----------------

// Stable operation identity for this transfer, or 0 when injection is off.
std::uint64_t next_op_key(const Endpoint& from, const Endpoint& to) {
  fault::Injector* injector = fault::active();
  return injector != nullptr ? injector->op_key(from.pid, to.pid) : 0;
}

// Whether the bound plan can fire an RDMA flap / a packet loss at all.
// When it cannot, fault::ride_out returns before its first co_await, so the
// transfers below skip the fault-layer coroutines (and their frames) and
// do the real work directly — same events, same results.
bool may_flap() {
  fault::Injector* injector = fault::active();
  return injector != nullptr && injector->plan().rdma_flap > 0;
}

bool may_lose_packets() {
  fault::Injector* injector = fault::active();
  return injector != nullptr && injector->plan().packet_loss > 0;
}

// A dead node refuses transfers with a typed kConnectionFailed — the
// simulated analogue of a peer vanishing mid-run.
Status check_nodes_alive(sim::Engine& engine, const Endpoint& from,
                         const Endpoint& to) {
  fault::Injector* injector = fault::active();
  if (injector == nullptr) return Status::ok();
  const double now = engine.now();
  for (const Endpoint* e : {&from, &to}) {
    if (injector->node_dead(e->node->id(), now)) {
      injector->note_node_death();
      injector->note_dropped();
      return make_error(
          ErrorCode::kConnectionFailed,
          "node " + std::to_string(e->node->id()) + " is dead");
    }
  }
  return Status::ok();
}

// Transient registration failure (RDMA flap): the injected flap/backoff
// cycle is ridden out in the fault layer before the real registration is
// attempted, so a *real* failure keeps its historical fail-fast semantics —
// wait-and-retry for capacity pressure is the libraries' job
// (DataSpaces::retry_put_prep), not the transport's.
sim::Task<Status> register_with_flaps(sim::Engine& engine, hpc::Node& node,
                                      std::uint64_t bytes, audit::Owner& owner,
                                      std::uint64_t op_key) {
  fault::Injector* injector = fault::active();
  const double p = injector != nullptr ? injector->plan().rdma_flap : 0.0;
  if (Status s = co_await fault::ride_out(
          engine, p, op_key, fault::Kind::kRdmaFlap,
          "transient RDMA registration failure");
      !s.is_ok()) {
    co_return s;
  }
  co_return node.rdma().register_memory(bytes, owner);
}

// Packet loss: each lost attempt costs a retransmit backoff before the
// payload finally moves; loss on every attempt abandons the op as kTimeout.
sim::Task<Status> retransmit_losses(sim::Engine& engine,
                                    std::uint64_t op_key) {
  fault::Injector* injector = fault::active();
  const double p = injector != nullptr ? injector->plan().packet_loss : 0.0;
  co_return co_await fault::ride_out(engine, p, op_key,
                                     fault::Kind::kPacketLoss, "packet loss");
}

}  // namespace

std::string_view to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kRdmaUgni:
      return "ugni";
    case TransportKind::kRdmaNnti:
      return "nnti";
    case TransportKind::kSockets:
      return "sockets";
    case TransportKind::kSharedMemory:
      return "shm";
  }
  return "?";
}

// ---------------------------------------------------------------- RDMA ----

sim::Task<Status> RdmaTransport::connect(const Endpoint& a,
                                         const Endpoint& b) {
  if (drc_ != nullptr) {
    if (Status s = co_await drc_->acquire(a.pid, a.job, a.node->id());
        !s.is_ok()) {
      co_return s;
    }
    if (Status s = co_await drc_->acquire(b.pid, b.job, b.node->id());
        !s.is_ok()) {
      co_return s;
    }
  }
  co_return Status::ok();
}

sim::Task<Status> RdmaTransport::transfer(const Endpoint& from,
                                          const Endpoint& to,
                                          std::uint64_t bytes,
                                          TransferOptions opts) {
  ++transfer_count_;
  if (Status s = check_nodes_alive(*engine_, from, to); !s.is_ok()) {
    co_return s;
  }
  const std::uint64_t op = next_op_key(from, to);

  // Synchronous uGNI-style registration: fails immediately when the node's
  // registered-memory capacity or handler count is exhausted (§III-B1).
  // (if/else rather than `?:` around the co_await: GCC 12 miscompiles a
  // co_await inside a conditional operator.)
  const std::uint64_t reg_bytes = std::min(bytes, kRdmaFragmentBytes);
  audit::Owner& transient = transient_owner_;
  const bool flaps = may_flap();
  bool src_registered = false;
  if (!opts.src_pinned) {
    Status s;
    if (flaps) {
      s = co_await register_with_flaps(*engine_, *from.node, reg_bytes,
                                       transient, op);
    } else {
      s = from.node->rdma().register_memory(reg_bytes, transient);
    }
    if (!s.is_ok()) co_return s;
    src_registered = true;
    trace::count("rdma.transient_registrations");
    trace::count("rdma.transient_reg_bytes", static_cast<double>(reg_bytes));
  }
  if (!opts.dst_pinned) {
    Status s;
    if (flaps) {
      s = co_await register_with_flaps(*engine_, *to.node, reg_bytes,
                                       transient, op);
    } else {
      s = to.node->rdma().register_memory(reg_bytes, transient);
    }
    if (!s.is_ok()) {
      if (src_registered) from.node->rdma().deregister(reg_bytes, transient);
      co_return s;
    }
    trace::count("rdma.transient_registrations");
    trace::count("rdma.transient_reg_bytes", static_cast<double>(reg_bytes));
  }

  if (may_lose_packets()) {
    if (Status s = co_await retransmit_losses(*engine_, op); !s.is_ok()) {
      if (src_registered) from.node->rdma().deregister(reg_bytes, transient);
      if (!opts.dst_pinned) to.node->rdma().deregister(reg_bytes, transient);
      co_return s;
    }
  }

  if (kind_ == TransportKind::kRdmaNnti) {
    co_await engine_->sleep(kNntiPerTransferOverhead);
    co_await fabric_->transfer(
        *from.node, *to.node, bytes,
        fabric_->config().injection_bandwidth * kNntiEfficiency);
  } else {
    co_await fabric_->transfer(*from.node, *to.node, bytes);
  }

  if (src_registered) from.node->rdma().deregister(reg_bytes, transient);
  if (!opts.dst_pinned) to.node->rdma().deregister(reg_bytes, transient);
  co_return Status::ok();
}

void RdmaTransport::disconnect_all(const Endpoint& e) {
  if (drc_ != nullptr) drc_->release(e.pid);
}

// ------------------------------------------------------------- Sockets ----

std::pair<int, int> SocketTransport::node_key(const Endpoint& a,
                                              const Endpoint& b) {
  return {std::min(a.node->id(), b.node->id()),
          std::max(a.node->id(), b.node->id())};
}

sim::Task<Status> SocketTransport::connect(const Endpoint& a,
                                           const Endpoint& b) {
  if (pooled_) {
    auto [it, inserted] = pools_.try_emplace(node_key(a, b));
    it->second.users.insert(a.pid);
    it->second.users.insert(b.pid);
    if (!inserted) co_return Status::ok();  // reuse the node pair's pool
    Pool& pool = it->second;
    pool.a_node = a.node;
    pool.b_node = b.node;
    const std::string owner = pool_owner(it->first);
    // The pool's streams are the only descriptors this node pair uses.
    for (int s = 0; s < kStreamsPerNodePair; ++s) {
      if (Status st = a.node->sockets().open(owner); !st.is_ok()) break;
      if (Status st = b.node->sockets().open(owner); !st.is_ok()) {
        a.node->sockets().close(owner);
        break;
      }
      ++pool.streams;
    }
    if (pool.streams == 0) {
      pools_.erase(it);
      co_return make_error(ErrorCode::kOutOfSockets,
                           "no descriptors left even for a pooled stream");
    }
    pool.slots = std::make_unique<sim::Semaphore>(
        *engine_, static_cast<std::uint64_t>(pool.streams));
    co_await engine_->sleep(fabric_->config().socket_setup_time);
    co_return Status::ok();
  }

  const auto key = pair_key(a, b);
  if (connections_.contains(key)) co_return Status::ok();

  // One descriptor on each endpoint's node.
  const std::string owner = conn_owner(key);
  if (Status s = a.node->sockets().open(owner); !s.is_ok()) co_return s;
  if (Status s = b.node->sockets().open(owner); !s.is_ok()) {
    a.node->sockets().close(owner);
    co_return s;
  }
  connections_.emplace(key, Conn{a.node, b.node});
  co_await engine_->sleep(fabric_->config().socket_setup_time);
  co_return Status::ok();
}

sim::Task<Status> SocketTransport::transfer(const Endpoint& from,
                                            const Endpoint& to,
                                            std::uint64_t bytes,
                                            TransferOptions opts) {
  (void)opts;  // sockets copy regardless of pinning
  ++transfer_count_;
  if (Status s = check_nodes_alive(*engine_, from, to); !s.is_ok()) {
    co_return s;
  }
  const std::uint64_t op = next_op_key(from, to);
  if (pooled_) {
    auto it = pools_.find(node_key(from, to));
    if (it == pools_.end()) {
      co_return make_error(ErrorCode::kConnectionFailed,
                           "no socket pool between nodes " +
                               std::to_string(from.node->id()) + " and " +
                               std::to_string(to.node->id()));
    }
    // Multiplexing: wait for a free stream in the shared pool.
    {
      TRACE_SPAN("socket.pool_wait", from.node->id(), 0);
      co_await it->second.slots->acquire();
    }
    if (may_lose_packets()) {
      if (Status s = co_await retransmit_losses(*engine_, op); !s.is_ok()) {
        it->second.slots->release();
        co_return s;
      }
    }
    co_await engine_->sleep(kSocketPerTransferOverhead);
    co_await fabric_->transfer(*from.node, *to.node, bytes,
                               fabric_->config().socket_copy_bandwidth);
    it->second.slots->release();
    co_return Status::ok();
  }
  if (!connections_.contains(pair_key(from, to))) {
    co_return make_error(ErrorCode::kConnectionFailed,
                         "no socket connection between pid " +
                             std::to_string(from.pid) + " and pid " +
                             std::to_string(to.pid));
  }
  if (may_lose_packets()) {
    if (Status s = co_await retransmit_losses(*engine_, op); !s.is_ok()) {
      co_return s;
    }
  }
  // The stream rate is capped by the memory-copy cost across the network
  // stack (§III-B5, [38]-[41]).
  co_await engine_->sleep(kSocketPerTransferOverhead);
  co_await fabric_->transfer(*from.node, *to.node, bytes,
                             fabric_->config().socket_copy_bandwidth);
  co_return Status::ok();
}

void SocketTransport::disconnect_all(const Endpoint& e) {
  for (auto it = pools_.begin(); it != pools_.end();) {
    Pool& pool = it->second;
    pool.users.erase(e.pid);
    if (pool.users.empty()) {
      const std::string owner = pool_owner(it->first);
      for (int s = 0; s < pool.streams; ++s) {
        pool.a_node->sockets().close(owner);
        pool.b_node->sockets().close(owner);
      }
      it = pools_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->first.first == e.pid || it->first.second == e.pid) {
      const std::string owner = conn_owner(it->first);
      it->second.a_node->sockets().close(owner);
      it->second.b_node->sockets().close(owner);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

// ------------------------------------------------------ Shared memory -----

sim::Task<Status> ShmTransport::connect(const Endpoint& a, const Endpoint& b) {
  if (a.node != b.node) {
    co_return make_error(ErrorCode::kInvalidArgument,
                         "shared-memory transport requires colocated "
                         "endpoints");
  }
  if (!config_->allows_node_sharing && a.job != b.job) {
    co_return make_error(ErrorCode::kPermissionDenied,
                         config_->name +
                             " does not allow multiple jobs on one node");
  }
  co_return Status::ok();
}

sim::Task<Status> ShmTransport::transfer(const Endpoint& from,
                                         const Endpoint& to,
                                         std::uint64_t bytes,
                                         TransferOptions opts) {
  (void)opts;
  ++transfer_count_;
  if (from.node != to.node) {
    co_return make_error(ErrorCode::kInvalidArgument,
                         "shared-memory transfer across nodes");
  }
  co_await engine_->sleep(config_->shm_latency +
                          static_cast<double>(bytes) / config_->shm_bandwidth);
  co_return Status::ok();
}

}  // namespace imc::net

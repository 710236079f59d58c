// Mini-MPI: communicators over the simulated fabric.
//
// Decaf couples workflow components by wrapping them into one MPI
// communicator, and both workflows' simulation/analytics internals are MPI
// programs, so the study needs a real message-passing layer: eager
// point-to-point with (source, tag) matching including wildcards, and a
// dissemination barrier whose traffic goes through the same fabric links as
// everything else (its cost therefore scales O(log n) with real contention,
// not by formula).
//
// Ranks are coroutines spawned by the caller; a Comm is shared state. All
// operations take the calling rank explicitly (there is no thread-local
// "current rank" in a cooperative simulation).
#pragma once

#include <any>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "hpc/cluster.h"
#include "net/endpoint.h"
#include "net/fabric.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace imc::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Message {
  int source = 0;
  int tag = 0;
  std::uint64_t bytes = 0;
  std::any payload;
};

class Comm {
 public:
  // `placement[r]` is the node id hosting rank r. `job` and `pid_base`
  // identify this communicator's processes globally (for transports/DRC).
  Comm(sim::Engine& engine, net::Fabric& fabric, hpc::Cluster& cluster,
       std::vector<int> placement, int job = 0, int pid_base = 0);

  int size() const { return static_cast<int>(placement_.size()); }
  int job() const { return job_; }
  hpc::Node& node_of(int rank) {
    return cluster_->node(placement_[static_cast<std::size_t>(rank)]);
  }
  net::Endpoint endpoint(int rank) {
    return net::Endpoint{pid_base_ + rank, job_, &node_of(rank)};
  }

  // Eager send: completes when the last byte reaches the receiver's node;
  // the message is then available for matching. A small envelope header is
  // added to the wire size.
  sim::Task<> send(int from, int to, int tag, std::uint64_t bytes,
                   std::any payload = {});

  // Blocks until a matching message (wildcards allowed) is available.
  // Returns the message. Matching is FIFO per (source, tag) as in MPI.
  [[nodiscard]] auto recv(int rank, int source = kAnySource,
                          int tag = kAnyTag) {
    struct Awaiter {
      Comm* comm;
      int rank, source, tag;
      Message msg;
      bool await_ready() { return comm->try_match(rank, source, tag, &msg); }
      void await_suspend(std::coroutine_handle<> h) {
        comm->inboxes_[static_cast<std::size_t>(rank)].waiters.push_back(
            {source, tag, &msg, h});
      }
      Message await_resume() { return std::move(msg); }
    };
    return Awaiter{this, rank, source, tag, {}};
  }

  // Number of messages queued (delivered but unreceived) at `rank`.
  std::size_t pending(int rank) const {
    return inboxes_[static_cast<std::size_t>(rank)].pending.size();
  }

  // --- Barrier (dissemination rounds over send/recv, internal tags) ---

  sim::Task<> barrier(int rank);

 private:
  struct Waiter {
    int source;
    int tag;
    Message* out;
    std::coroutine_handle<> handle;
  };
  struct Inbox {
    std::deque<Message> pending;
    std::deque<Waiter> waiters;
  };

  static bool matches(const Message& m, int source, int tag) {
    return (source == kAnySource || m.source == source) &&
           (tag == kAnyTag || m.tag == tag);
  }

  bool try_match(int rank, int source, int tag, Message* out);
  void deliver(int to, Message msg);
  int next_collective_tag(int rank);

  static constexpr std::uint64_t kEnvelopeBytes = 64;
  static constexpr int kCollectiveTagBase = -1000;

  sim::Engine* engine_;
  net::Fabric* fabric_;
  hpc::Cluster* cluster_;
  std::vector<int> placement_;
  int job_;
  int pid_base_;
  std::vector<Inbox> inboxes_;
  std::vector<int> coll_seq_;  // per-rank collective-call sequence numbers
};

}  // namespace imc::mpi

#include "mpi/comm.h"

#include "trace/trace.h"

namespace imc::mpi {

Comm::Comm(sim::Engine& engine, net::Fabric& fabric, hpc::Cluster& cluster,
           std::vector<int> placement, int job, int pid_base)
    : engine_(&engine),
      fabric_(&fabric),
      cluster_(&cluster),
      placement_(std::move(placement)),
      job_(job),
      pid_base_(pid_base) {
  inboxes_.resize(placement_.size());
  coll_seq_.resize(placement_.size(), 0);
}

bool Comm::try_match(int rank, int source, int tag, Message* out) {
  auto& inbox = inboxes_[static_cast<std::size_t>(rank)];
  for (auto it = inbox.pending.begin(); it != inbox.pending.end(); ++it) {
    if (matches(*it, source, tag)) {
      *out = std::move(*it);
      inbox.pending.erase(it);
      return true;
    }
  }
  return false;
}

void Comm::deliver(int to, Message msg) {
  auto& inbox = inboxes_[static_cast<std::size_t>(to)];
  for (auto it = inbox.waiters.begin(); it != inbox.waiters.end(); ++it) {
    if (matches(msg, it->source, it->tag)) {
      *it->out = std::move(msg);
      engine_->schedule_now(it->handle);
      inbox.waiters.erase(it);
      return;
    }
  }
  inbox.pending.push_back(std::move(msg));
}

sim::Task<> Comm::send(int from, int to, int tag, std::uint64_t bytes,
                       std::any payload) {
  assert(from >= 0 && from < size() && to >= 0 && to < size());
  co_await fabric_->transfer(node_of(from), node_of(to),
                             bytes + kEnvelopeBytes);
  deliver(to, Message{from, tag, bytes, std::move(payload)});
}

// Collectives must not cross-match with each other or with application
// traffic, so each call gets a unique tag from a per-rank sequence counter.
// MPI requires every rank to invoke collectives in the same program order,
// so the i-th collective call of each rank lines up across ranks and the
// per-rank counters agree without any shared-state race.

int Comm::next_collective_tag(int rank) {
  const int seq = coll_seq_[static_cast<std::size_t>(rank)]++;
  return kCollectiveTagBase - seq * 64;
}

sim::Task<> Comm::barrier(int rank) {
  // Dissemination barrier: ceil(log2 n) rounds of pairwise messages; when
  // any rank completes, every rank has entered.
  const int n = size();
  const int base = next_collective_tag(rank);
  if (n == 1) co_return;
  TRACE_SPAN("mpi.barrier", node_of(rank).id(), pid_base_ + rank);
  int round = 0;
  for (int dist = 1; dist < n; ++round, dist <<= 1) {
    const int tag = base - round;
    co_await send(rank, (rank + dist) % n, tag, 0);
    // Barrier round: the message is the event; its payload carries no
    // status. imc-analyze: allow(discarded-result)
    (void)co_await recv(rank, (rank - dist + n) % n, tag);
  }
}

}  // namespace imc::mpi

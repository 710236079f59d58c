// Replication policy for staged objects (imc::repl).
//
// PR 5's recovery story — retry, then replay the whole workflow through
// MPI-IO — is correct but lossy and slow: one crashed staging server costs
// every staged object it held. DAOS' "Storage Node Failure and Resilvering"
// use case names the production answer, reproduced here: each staged object
// lands on a primary plus `factor - 1` replica servers, gets transparently
// re-route to surviving replicas (a degraded read, not an error), and a
// background resilver coroutine re-copies under-replicated objects onto
// surviving servers after a crash.
//
//  * Policy — the per-world replication knobs: factor R, sync/async ack
//    mode, ack quorum, and the fault::RetryPolicy resilver copies run
//    under. factor 1 (the default) is byte-identical to the pre-repl
//    behavior: no chain walk, no failover, no resilver.
//  * Coordinator — owns the Policy and the durability Stats for one world;
//    the note_* hooks mirror into `repl.*` trace counters exactly like
//    fault::Injector's do, and workflow::run folds the stats into
//    RunResult::ReplStats.
//  * active() — the current World's coordinator (common/world.h): with
//    none bound it returns nullptr and every replication path degenerates
//    to factor 1.
//
// Determinism contract (DESIGN.md §15): replica placement is a pure
// function of the region id — chain position k of region r on ns servers is
// (r mod ns + k) mod ns — never of the schedule, the clock, or an RNG, so
// the set of servers holding each object is invariant across IMC_THREADS
// and FIFO/LIFO/shuffle tie-breaks. Failover walks the same chain order, so
// degraded reads are deterministic too.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/world.h"
#include "fault/fault.h"

namespace imc::repl {

enum class Mode {
  kSync,   // the put returns after all `factor` replicas acked
  kAsync,  // the put returns after `ack_quorum` acks; a background
           // coroutine (primary-forwarding) writes the remaining replicas
};

struct Policy {
  int factor = 1;  // total copies of each staged object, primary included
  Mode mode = Mode::kSync;
  // Acks required before a put reports success. 0 picks the mode default:
  // `factor` for sync, 1 for async. Clamped to [1, factor].
  int ack_quorum = 0;
  // Background resilver re-copies under-replicated objects after a server
  // crash; each copy retries transients under this policy and gives up
  // (under-replicated, not fatal) on exhaustion.
  bool resilver = true;
  fault::RetryPolicy resilver_retry{.max_attempts = 4,
                                    .initial_backoff = 1e-3};

  bool replicated() const { return factor > 1; }
};

// Durability bookkeeping; workflow::RunResult::ReplStats derives from it.
struct Stats {
  std::uint64_t replica_puts = 0;      // replica copies written beyond the
                                       // first ack (sync, async, resilver)
  std::uint64_t replica_bytes = 0;     // bytes those copies staged
  std::uint64_t degraded_gets = 0;     // gets served after skipping >= 1
                                       // crashed replica
  std::uint64_t under_replicated = 0;  // puts/copies that ended below factor
  std::uint64_t objects_lost = 0;      // reads that exhausted every replica
  std::uint64_t resilver_copies = 0;   // objects re-replicated post-crash
  std::uint64_t resilver_bytes = 0;
  std::uint64_t resilver_failures = 0;  // copies abandoned on exhaustion
  std::uint64_t restores = 0;           // resilver rounds completed
  double time_to_restore = 0;  // max virtual seconds from a crash to its
                               // resilver round completing
};

// Replica chain: position k of the chain anchored at `primary` on
// `num_servers` servers. Pure arithmetic — deterministic, schedule-invariant
// placement is the whole durability contract.
constexpr int chain_position(int primary, int k, int num_servers) {
  return (primary + k) % num_servers;
}

class Coordinator {
 public:
  explicit Coordinator(Policy policy) : policy_(policy) {}
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  const Policy& policy() const { return policy_; }
  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

  // The effective replication factor on a deployment of `num_servers`
  // (never more copies than servers).
  int factor_for(int num_servers) const {
    return std::clamp(policy_.factor, 1, std::max(1, num_servers));
  }
  // Acks a put must gather before reporting success, given the effective
  // factor.
  int quorum_for(int factor) const {
    const int fallback = policy_.mode == Mode::kSync ? factor : 1;
    const int quorum = policy_.ack_quorum > 0 ? policy_.ack_quorum : fallback;
    return std::clamp(quorum, 1, factor);
  }

  // Stats hooks that also mirror into the trace layer (`repl.*` counters).
  void note_replica_put(std::uint64_t bytes);
  void note_degraded_get();
  void note_under_replicated();
  void note_object_lost();
  void note_resilver_copy(std::uint64_t bytes);
  void note_resilver_failure();
  void note_redundancy_restored(double seconds);

 private:
  Policy policy_;
  Stats stats_;
};

// The Coordinator bound to the current world, or nullptr when replication
// is off (the common case — callers must treat nullptr as factor 1).
inline Coordinator* active() { return world().repl; }

}  // namespace imc::repl

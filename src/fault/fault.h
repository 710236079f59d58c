// Deterministic fault injection and recovery policies (imc::fault).
//
// The paper's Table IV catalogues how staging methods *die* when a resource
// runs out; its suggested resolves (wait-and-retry, pooling, metering) are
// recovery machinery. This layer generalizes both sides:
//
//  * Plan — a per-world description of the faults to inject: scheduled
//    events (staging-server crash at time T, compute-node death) and
//    seeded-probabilistic ones (packet loss, transient RDMA registration
//    flaps) plus windowed degradations (link bandwidth, Lustre MDS
//    slowdown) and straggler ranks.
//  * Injector — owns a Plan for one simulated world and answers the
//    instrumentation hooks (fires / link_factor / node_dead / ...), while
//    accumulating recovery statistics (injected, retries, timeouts,
//    dropped ops) that workflow::run folds into RunResult and the trace
//    layer (`fault.*` counters).
//  * RetryPolicy / retry() — the shared bounded-attempt exponential-backoff
//    driver adopted by DataSpaces puts, DIMES metadata ops, Flexpath
//    reconnect, and the transport layer; exhaustion surfaces
//    ErrorCode::kTimeout wrapping the last underlying error.
//
// Determinism contract (see DESIGN.md §11): every probabilistic decision is
// a pure function of (plan seed, stable operation identity, attempt index) —
// hashed with splitmix64 — never of a sequential RNG consumed in event-pop
// order and never of the simulation clock. Operation identity is a per
// ordered (from pid, to pid) pair counter: each pair's operations are issued
// sequentially by one client coroutine, so the counter value is invariant
// under FIFO/LIFO/shuffle schedules and thread counts. Backoff jitter is
// derived the same way, so sleep intervals — and therefore event timestamps
// and trace digests — are byte-identical across schedules.
//
// Each world with a plan binds its Injector as the current World's `fault`
// (common/world.h); with none bound active() returns nullptr and every hook
// is a no-op, so fault-free runs pay one thread-local read on the
// instrumented paths.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/world.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace imc::fault {

// Hash-stream discriminators so distinct fault kinds sampled for the same
// operation draw independent values.
enum class Kind : std::uint64_t {
  kPacketLoss = 0x70616c6f,   // per-transfer loss on the fabric
  kRdmaFlap = 0x72666c70,     // transient registration failure
  kBackoffJitter = 0x6a7474,  // retry sleep jitter
};

// Bounded attempts with exponential backoff, deterministic seeded jitter,
// and an optional per-operation virtual-time budget. backoff(a, key) is the
// sleep before attempt a+1:
//   base   = min(initial_backoff * multiplier^a, max_backoff)
//   result = base * (1 + jitter * u),  u in [-1, 1) from
//            splitmix64(seed ^ key ^ kind ^ a)  — never the sim clock.
struct RetryPolicy {
  int max_attempts = 4;
  double initial_backoff = 5e-4;
  double backoff_multiplier = 2.0;
  double max_backoff = 0.5;
  double jitter = 0.25;      // fraction of the base interval, +/-
  double op_timeout = -1.0;  // virtual seconds; < 0 means attempts-only
  bool delay_first = false;  // sleep before attempt 0 too (DataSpaces
                             // wait-and-retry semantics)
  std::uint64_t seed = 0;

  double backoff(int attempt, std::uint64_t op_key) const;
};

// Per-world fault plan. Times are virtual seconds; negative means the fault
// is disabled. Probabilities are per sampled operation in [0, 1].
struct Plan {
  std::uint64_t seed = 0x5eedfa17u;

  struct ServerCrash {
    double at = -1.0;  // staging server `server` dies at this instant
    int server = 0;
  };
  struct NodeDeath {
    double at = -1.0;  // all endpoints on cluster node `node` become
    int node = -1;     // unreachable from this instant on
  };
  struct Window {
    double from = -1.0;  // [from, until) — factor applies inside the window
    double until = -1.0;
    double factor = 1.0;  // bandwidth multiplier / service-time multiplier
  };
  struct Straggler {
    int every_nth = 0;    // 0 disables; else ranks r with r % every_nth == 0
    double factor = 1.0;  // compute-time multiplier for straggling ranks
  };

  // Scheduled server crashes, in any order (crash_schedule() sorts them).
  // Durability tests against replication factor R >= 3 need two or more
  // distinct crash times.
  std::vector<ServerCrash> server_crashes;
  NodeDeath node_death;
  Window link_degrade;   // net::Fabric bandwidth *= factor inside window
  Window mds_slowdown;   // lustre MDS op time *= factor inside window
  Straggler straggler;   // slowed simulation ranks
  double packet_loss = 0.0;  // transfer retransmit probability
  double rdma_flap = 0.0;    // transient registration-failure probability

  // Policy the transport layer uses to retry injected transients
  // (registration flaps, lost packets). seed 0 defers to the plan seed.
  RetryPolicy transport_retry;

  // The enabled server crashes sorted by (time, server), whatever order
  // the plan listed them in; deploy() spawns one crash watcher per entry.
  std::vector<ServerCrash> crash_schedule() const;

  bool any() const;
};

// Recovery bookkeeping; workflow::RunResult::FaultStats derives from it.
struct Stats {
  std::uint64_t injected = 0;        // probabilistic faults that fired
  std::uint64_t retries = 0;         // backoff sleeps taken
  std::uint64_t timeouts = 0;        // operations that exhausted retries
  std::uint64_t dropped_ops = 0;     // operations abandoned with an error
  std::uint64_t server_crashes = 0;  // scheduled crashes executed
  std::uint64_t node_deaths = 0;     // transfers refused by a dead node
};

// Uniform in [0, 1) from a hash value (same mapping as Rng::next_double).
inline double u01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

class Injector {
 public:
  explicit Injector(Plan plan) : plan_(std::move(plan)) {}
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  const Plan& plan() const { return plan_; }
  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

  // Stable identity for the next operation between two endpoints. Each
  // ordered pid pair's operations are issued sequentially by one coroutine,
  // so the per-pair counter — and hence the key — does not depend on the
  // event schedule or thread count.
  std::uint64_t op_key(int from_pid, int to_pid);

  // True when the fault of kind `kind` with probability p fires for
  // (op_key, attempt). Pure in its arguments and the plan seed; counts the
  // injection and emits a `fault.injected` trace counter when it fires.
  bool fires(double p, std::uint64_t op_key, int attempt, Kind kind);

  // Windowed degradations: multiplier at virtual time `now` (1.0 outside).
  double link_factor(double now) const;
  double mds_factor(double now) const;
  // Compute-time multiplier for simulation rank r (1.0 for non-stragglers).
  double straggler_factor(int rank) const;
  // True when cluster node `node` is dead at virtual time `now`.
  bool node_dead(int node, double now) const;

  // The policy transports use for injected transients; seeds default to the
  // plan seed so one knob steers every deterministic choice.
  RetryPolicy transport_policy() const;

  // Stats hooks that also mirror into the trace layer (`fault.*` counters).
  void note_retry();
  void note_timeout();
  void note_dropped();
  void note_server_crash();
  void note_node_death();

 private:
  Plan plan_;
  Stats stats_;
  // (from pid, to pid) -> operations issued so far.
  std::map<std::pair<int, int>, std::uint64_t> op_counters_;
};

// The Injector bound to the current world, or nullptr when fault injection
// is off (the common case — hooks must treat nullptr as "no faults").
inline Injector* active() { return world().fault; }

// True for errors worth retrying: the resource may free up or the transient
// may clear. Hard errors (kNotFound, kInvalidArgument, ...) are not.
constexpr bool transient(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOutOfRdmaMemory:
    case ErrorCode::kOutOfRdmaHandlers:
    case ErrorCode::kOutOfSockets:
    case ErrorCode::kOutOfMemory:
    case ErrorCode::kDrcOverload:
    case ErrorCode::kConnectionFailed:
    case ErrorCode::kTimeout:
      return true;
    default:
      return false;
  }
}

// transient() as a plain function pointer target (a template parameter
// can't default to an overload set or a constexpr lambda pre-C++23).
constexpr bool transient_fn(ErrorCode code) { return transient(code); }

// Drives the injected-transient side of one operation: samples the fault of
// `kind` with probability p per attempt, backing off (under the bound
// plan's transport policy) after each firing. Returns OK as soon as the
// fault stops firing — the caller then does the real work — or kTimeout
// when it fired on every attempt. No-op (immediate OK) when no plan is
// bound or p <= 0. `what` names the fault in the timeout message.
sim::Task<Status> ride_out(sim::Engine& engine, double p,
                           std::uint64_t op_key, Kind kind, const char* what);

// Shared retry driver. `op` is a callable (attempt index) -> Task<Status>;
// it is invoked up to policy.max_attempts times, with policy.backoff(...)
// slept between attempts (and before the first when policy.delay_first).
// Returns the first OK or non-retryable status; on exhaustion (attempts or
// op_timeout budget) returns kTimeout wrapping the last error, so e.g.
// "OUT_OF_RDMA_MEMORY" stays visible in failure summaries. `retryable`
// decides which codes to keep trying (default: transient()). `what` names
// the operation in the timeout message.
//
// `op` must return a fresh Task each call (a plain lambda returning a
// coroutine's task, not a coroutine lambda — avoids the dangling-closure
// pitfall and keeps lint's ref-capture-await rule happy).
template <typename Op, typename Retryable = bool (*)(ErrorCode)>
sim::Task<Status> retry(sim::Engine& engine, RetryPolicy policy,
                        std::uint64_t op_key, const char* what, Op op,
                        Retryable retryable = &transient_fn) {
  const double start = engine.now();
  const int attempts = std::max(1, policy.max_attempts);
  Status last = make_error(ErrorCode::kInternal, "retry never attempted");
  int attempt = 0;
  for (; attempt < attempts; ++attempt) {
    if (policy.op_timeout >= 0 && engine.now() - start > policy.op_timeout) {
      break;  // budget burnt by the attempts themselves — don't sleep a
              // full backoff just to notice
    }
    if (attempt > 0 || policy.delay_first) {
      const int backoff_step = policy.delay_first ? attempt : attempt - 1;
      co_await engine.sleep(policy.backoff(backoff_step, op_key));
    }
    if (policy.op_timeout >= 0 && engine.now() - start > policy.op_timeout) {
      break;  // budget burnt while backing off
    }
    last = co_await op(attempt);
    if (last.is_ok() || !retryable(last.code())) co_return last;
    if (attempt + 1 < attempts) {
      if (Injector* injector = active()) injector->note_retry();
    }
  }
  if (Injector* injector = active()) {
    injector->note_timeout();
    injector->note_dropped();
  }
  co_return make_error(
      ErrorCode::kTimeout,
      std::string(what) + " gave up after " + std::to_string(attempt) +
          " attempt(s); last error: " + last.to_string());
}

}  // namespace imc::fault

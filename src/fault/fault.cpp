#include "fault/fault.h"

#include <cassert>

#include "trace/trace.h"

namespace imc::fault {
namespace {

// Mixes the plan seed, operation key, kind discriminator, and attempt index
// into one well-distributed draw. Double-hashing op_key keeps kinds sampled
// for the same operation statistically independent.
std::uint64_t draw(std::uint64_t seed, std::uint64_t op_key, Kind kind,
                   int attempt) {
  return splitmix64(seed ^ splitmix64(op_key ^ static_cast<std::uint64_t>(
                                                   kind)) ^
                    static_cast<std::uint64_t>(attempt));
}

}  // namespace

bool Plan::any() const {
  return !crash_schedule().empty() || node_death.at >= 0 ||
         link_degrade.from >= 0 || mds_slowdown.from >= 0 ||
         straggler.every_nth > 0 || packet_loss > 0 || rdma_flap > 0;
}

std::vector<Plan::ServerCrash> Plan::crash_schedule() const {
  std::vector<ServerCrash> schedule;
  for (const ServerCrash& crash : server_crashes) {
    if (crash.at >= 0) schedule.push_back(crash);
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const ServerCrash& a, const ServerCrash& b) {
              return a.at != b.at ? a.at < b.at : a.server < b.server;
            });
  return schedule;
}

double RetryPolicy::backoff(int attempt, std::uint64_t op_key) const {
  double base = initial_backoff;
  for (int i = 0; i < attempt; ++i) {
    base *= backoff_multiplier;
    if (base >= max_backoff) break;
  }
  base = std::min(base, max_backoff);
  if (jitter > 0) {
    // u in [-1, 1): derived from the seeded hash stream, never the sim
    // clock, so sleep intervals are identical across schedules.
    const double u =
        2.0 * u01(draw(seed, op_key, Kind::kBackoffJitter, attempt)) - 1.0;
    base *= 1.0 + jitter * u;
  }
  return std::max(base, 0.0);
}

std::uint64_t Injector::op_key(int from_pid, int to_pid) {
  std::uint64_t& issued = op_counters_[{from_pid, to_pid}];
  const std::uint64_t pair =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from_pid))
       << 32) |
      static_cast<std::uint32_t>(to_pid);
  const std::uint64_t key = splitmix64(splitmix64(pair) ^ issued);
  ++issued;
  return key;
}

bool Injector::fires(double p, std::uint64_t op_key, int attempt, Kind kind) {
  if (p <= 0) return false;
  const bool fired = u01(draw(plan_.seed, op_key, kind, attempt)) < p;
  if (fired) {
    ++stats_.injected;
    trace::count("fault.injected");
  }
  return fired;
}

double Injector::link_factor(double now) const {
  const Plan::Window& w = plan_.link_degrade;
  if (w.from < 0 || now < w.from || now >= w.until) return 1.0;
  return w.factor;
}

double Injector::mds_factor(double now) const {
  const Plan::Window& w = plan_.mds_slowdown;
  if (w.from < 0 || now < w.from || now >= w.until) return 1.0;
  return w.factor;
}

double Injector::straggler_factor(int rank) const {
  const Plan::Straggler& s = plan_.straggler;
  if (s.every_nth <= 0 || rank % s.every_nth != 0) return 1.0;
  return s.factor;
}

bool Injector::node_dead(int node, double now) const {
  const Plan::NodeDeath& d = plan_.node_death;
  return d.at >= 0 && d.node == node && now >= d.at;
}

RetryPolicy Injector::transport_policy() const {
  RetryPolicy policy = plan_.transport_retry;
  if (policy.seed == 0) policy.seed = plan_.seed;
  return policy;
}

void Injector::note_retry() {
  ++stats_.retries;
  trace::count("fault.retries");
}

void Injector::note_timeout() {
  ++stats_.timeouts;
  trace::count("fault.timeouts");
}

void Injector::note_dropped() {
  ++stats_.dropped_ops;
  trace::count("fault.dropped_ops");
}

void Injector::note_server_crash() {
  ++stats_.server_crashes;
  trace::count("fault.server_crash");
}

void Injector::note_node_death() {
  ++stats_.node_deaths;
  trace::count("fault.node_death");
}

sim::Task<Status> ride_out(sim::Engine& engine, double p,
                           std::uint64_t op_key, Kind kind,
                           const char* what) {
  Injector* injector = active();
  if (injector == nullptr || p <= 0) co_return Status::ok();
  const RetryPolicy policy = injector->transport_policy();
  const int attempts = std::max(1, policy.max_attempts);
  for (int attempt = 0;; ++attempt) {
    if (!injector->fires(p, op_key, attempt, kind)) co_return Status::ok();
    if (attempt + 1 >= attempts) {
      injector->note_timeout();
      injector->note_dropped();
      co_return make_error(
          ErrorCode::kTimeout,
          std::string(what) + " persisted after " +
              std::to_string(attempt + 1) + " attempt(s)");
    }
    injector->note_retry();
    co_await engine.sleep(policy.backoff(attempt, op_key));
  }
}

}  // namespace imc::fault

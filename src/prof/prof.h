// Wall-clock profiling and resource accounting for the harness itself
// (imc::prof).
//
// Everything else in this codebase measures *simulated* time; the one
// question it cannot answer is where the real wall-clock time of a sweep
// goes — pool lock waits, log/trace flush costs, arena growth, worker idle
// gaps. imc::prof answers that, and is therefore the designated exception
// to the wall-clock ban: src/prof/ is the only library directory where
// imc-analyze allows std::chrono::steady_clock (the rule is path-scoped;
// see scripts/analyze/rules.py).
//
// The determinism contracts survive because prof data is strictly
// digest-excluded: nothing recorded here ever reaches stdout, a trace
// file, a RunChunk digest, or an engine digest. The one export is a
// standalone JSON report (schema imc-prof-v1) written at process exit
// when IMC_PROF=<path> is set; it is outside every byte-identity contract.
//
// Shape (mirrors imc::trace, and shares its trace::Stat fold, stats JSON
// and file writer):
//   - Meter: one lane of harness work (a sweep worker, the pool's caller
//     thread, the sequential path). Aggregates named phase timings
//     (histograms), counters, and sampled levels. Not thread-safe; owned
//     by exactly one thread at a time.
//   - The current World's meter (common/world.h) is the lane the hooks
//     below attribute to; sweep::Pool binds one per lane.
//   - Timer / PROF_TIMER: RAII wall-clock phase timer; inert (no clock
//     read) when no meter is bound.
//   - Collector: process-global, thread-safe fold target. Lanes merge by
//     name; to_json() adds the host descriptor, process rusage, and the
//     process-wide log-flush counters.
//
// Gating is double, exactly like tracing. Compile time: the IMC_PROF CMake
// option (default ON) defines the IMC_PROF macro; OFF makes meter() a
// constexpr nullptr and every hook dead-code eliminates. Run time: a
// Collector is only installed when IMC_PROF=<path> is set (or a test calls
// set_global_collector), and sweep::Pool only binds Meters when
// prof::enabled() — so the default cost is one thread-local null check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "common/world.h"
#include "trace/trace.h"

#if defined(IMC_PROF) && IMC_PROF
#define IMC_PROF_ENABLED 1
#else
#define IMC_PROF_ENABLED 0
#endif

namespace imc::prof {

// Host descriptor recorded into every report so committed numbers are
// interpretable across machines (the committed sweep_scaling table came
// from a 1-core box; without this block nobody could tell).
struct HostInfo {
  int cores = 0;               // online processors
  long page_size = 0;          // bytes
  std::string cpu_model;       // /proc/cpuinfo "model name", or "unknown"
  std::string build_type;      // CMAKE_BUILD_TYPE baked in at compile time
};
// Read once, cached for the process.
const HostInfo& host();

// Process resource usage (getrusage(RUSAGE_SELF)); ok=false when the call
// failed (non-POSIX host) — fields are then zero.
struct Rusage {
  bool ok = false;
  long max_rss_kb = 0;
  long minor_faults = 0;
  long voluntary_ctx_switches = 0;
  long involuntary_ctx_switches = 0;
};
Rusage read_rusage();

// Wall-clock seconds since a process-local origin. The only clock source
// prof code uses; everything simulated keeps taking time from
// sim::Engine::now().
double wall_seconds();

// One lane of harness work, folded with trace::Stat: kind 'h' = phase
// timing histogram (seconds), 'c' = monotonic counter, 'g' = sampled level
// (min/max/last meaningful, e.g. arena high-water marks).
class Meter {
 public:
  explicit Meter(std::string lane) : lane_(std::move(lane)) {}
  Meter(const Meter&) = delete;
  Meter& operator=(const Meter&) = delete;

  const std::string& lane() const { return lane_; }

  void timing(const char* name, double seconds) { add(name, 'h', seconds); }
  void count(const char* name, double n = 1.0) { add(name, 'c', n); }
  void sample(const char* name, double v) { add(name, 'g', v); }

  bool empty() const { return stats_.empty(); }
  const trace::StatMap& stats() const { return stats_; }

 private:
  // Out of line, so a Timer's inlined stop() stays a branch and a call.
  void add(const char* name, char kind, double v);

  std::string lane_;
  trace::StatMap stats_;
};

// The meter for the current lane, or nullptr (profiling off / not a lane).
// With the IMC_PROF compile option OFF this is a constexpr nullptr and
// every hook below folds away.
#if IMC_PROF_ENABLED
inline Meter* meter() { return world().meter; }
#else
constexpr Meter* meter() { return nullptr; }
#endif

// RAII phase timer. A default-constructed or null-meter timer is inert and
// never reads the clock. stop() ends the phase early (before scope exit).
class Timer {
 public:
  Timer() = default;
  Timer(Meter* m, const char* name) : meter_(m), name_(name) {
    if (meter_ != nullptr) start_ = wall_seconds();
  }
  Timer(Timer&& other) noexcept { swap(other); }
  Timer& operator=(Timer&& other) noexcept {
    if (this != &other) {
      stop();
      swap(other);
    }
    return *this;
  }
  ~Timer() { stop(); }

  bool active() const { return meter_ != nullptr; }
  void stop() {
    if (meter_ == nullptr) return;
    meter_->timing(name_, wall_seconds() - start_);
    meter_ = nullptr;
  }

 private:
  void swap(Timer& other) noexcept {
    std::swap(meter_, other.meter_);
    std::swap(name_, other.name_);
    std::swap(start_, other.start_);
  }

  Meter* meter_ = nullptr;
  const char* name_ = "";
  double start_ = 0.0;
};

// --- Instrumentation hooks (the only API call sites should use) ---------

inline Timer timer(const char* name) { return Timer(meter(), name); }
inline void count(const char* name, double n = 1.0) {
  if (Meter* m = meter()) m->count(name, n);
}
inline void sample(const char* name, double v) {
  if (Meter* m = meter()) m->sample(name, v);
}

// Argless statement form, mirroring TRACE_SPAN.
#if IMC_PROF_ENABLED
#define IMC_PROF_CONCAT_IMPL(a, b) a##b
#define IMC_PROF_CONCAT(a, b) IMC_PROF_CONCAT_IMPL(a, b)
#define PROF_TIMER(name)                                         \
  ::imc::prof::Timer IMC_PROF_CONCAT(imc_prof_timer_, __LINE__) = \
      ::imc::prof::timer(name)
#else
#define PROF_TIMER(name) \
  do {                   \
  } while (false)
#endif

// --- Collector: cross-lane aggregation and export -----------------------

class Collector {
 public:
  // Merges a lane's stats (thread-safe; lanes with the same name fold
  // together — a reused worker index accumulates across sweeps).
  void fold(const Meter& m);

  std::size_t lane_count() const;
  // Snapshot for tests and exporters: lane -> name -> stat.
  std::map<std::string, trace::StatMap> lanes() const;

  // Standalone JSON report: schema, host block, rusage, process-wide log
  // flush counters, and every lane's stats. Deterministic field order;
  // values are wall-clock and therefore outside every digest contract.
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, trace::StatMap> lanes_;
};

// The installed collector, or nullptr when profiling is off. First call
// parses IMC_PROF (dies on garbage via env::str_or_die); an env-installed
// collector writes its report at process exit.
Collector* global_collector();
// Test hook: overrides the env collector (nullptr restores it). Returns
// the previous override.
Collector* set_global_collector(Collector* collector);
// True when a collector is installed; sweep::Pool only recruits Meters
// (and pays for clock reads) then.
#if IMC_PROF_ENABLED
inline bool enabled() { return global_collector() != nullptr; }
#else
constexpr bool enabled() { return false; }
#endif

}  // namespace imc::prof

// Deterministic simulated-time tracing and metrics (imc::trace).
//
// Every event is stamped with sim::Engine::now() — never the wall clock —
// so a trace is a pure function of the scenario: byte-identical across
// IMC_THREADS settings, replays, and IMC_PROF on or off. Wall-clock data
// never enters a trace file; it goes to imc::prof's own report. A
// trace::Recorder belongs to exactly one world (one Engine); workflow::run
// binds one per run as the current World's recorder (common/world.h), so
// sweeps at IMC_THREADS>1 attribute events to the right run.
//
// Four primitives:
//   - spans:      RAII intervals (trace::span / TRACE_SPAN) with numeric args
//   - counters:   monotonic totals (trace::count)
//   - gauges:     sampled levels, e.g. per-process memory (trace::gauge)
//   - histograms: value distributions (trace::value); span durations fold
//                 into a "span.<name>" histogram automatically
//
// Output is gated twice. Compile time: the IMC_TRACE CMake option (default
// ON) defines the IMC_TRACE macro; with it OFF, global() is a constexpr
// nullptr and every hook dead-code eliminates. Run time: a Recorder is only
// bound when a Sink is installed — either IMC_TRACE=<path> in the
// environment (Chrome trace_event JSON written at exit) or
// set_global_sink() from tests — so the default cost is one thread-local
// null check per hook.
//
// Aggregation: each run's Recorder folds into a RunChunk (events + a
// canonical metrics serialization + an FNV-1a digest). Chunks land in the
// current World's chunk capture so sweep::Pool can flush them in
// submission order; the Sink digest is therefore independent of worker
// count. imc::prof folds its wall-clock lanes with the same Stat and
// writes them with the same stats JSON and file writer.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/world.h"
#include "sim/engine.h"

#if defined(IMC_TRACE) && IMC_TRACE
#define IMC_TRACE_ENABLED 1
#else
#define IMC_TRACE_ENABLED 0
#endif

namespace imc::trace {

// Where an event lands in the exported timeline. node -1 is the per-run
// "metrics" pseudo-process (events with no single home node, e.g. process
// memory gauges); tid 0 is the per-node pseudo-thread for node-level events
// (fabric transfers, OST queues).
struct Track {
  int node = -1;
  int tid = 0;
};

struct SpanEvent {
  std::string name;
  Track track;
  double start = 0.0;
  double end = 0.0;
  std::vector<std::pair<std::string, double>> args;
};

struct CounterEvent {
  std::string name;
  Track track;
  double time = 0.0;
  double value = 0.0;
};

// One metric's aggregate. kind: 'c' counter, 'g' gauge, 'h' histogram.
struct Stat {
  char kind = 'c';
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double last = 0.0;

  // Folds in one sample; the first sets the kind and seeds min and max.
  void add(char sample_kind, double v) {
    if (count == 0) {
      kind = sample_kind;
      min = v;
      max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    ++count;
    sum += v;
    last = v;
  }
  // Folds in another aggregate of the same metric: counts and sums add,
  // min of mins, max of maxes, `last` from `other`. An empty stat takes
  // `other` whole, kind included.
  void merge(const Stat& other) {
    if (count == 0) {
      *this = other;
      return;
    }
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
    count += other.count;
    sum += other.sum;
    last = other.last;
  }
};
using StatMap = std::map<std::string, Stat>;

// Everything one run contributes to the Sink. `metrics_text` is the
// canonical serialization the digest covers; keeping it as text makes the
// byte-identity contract directly testable.
struct RunChunk {
  std::string label;
  std::vector<SpanEvent> spans;
  std::vector<CounterEvent> counters;
  StatMap metrics;
  std::string metrics_text;
  std::uint64_t digest = 0;
  std::uint64_t dropped_events = 0;
};

// Per-world event recorder. Lives exactly as long as its run; must not
// outlive the Engine it samples time from.
class Recorder {
 public:
  // `event_limit` caps the retained span + counter events (metrics are
  // never capped; drops are counted into the trace.dropped_events metric so
  // truncation is visible and deterministic).
  Recorder(const sim::Engine& engine, std::string label,
           std::size_t event_limit);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  double now() const { return engine_->now(); }

  // `pinned` events (workflow phases) bypass the cap so the run's skeleton
  // survives truncation.
  void record_span(SpanEvent event, bool pinned = false);
  void count(const std::string& name, double n = 1.0);
  void gauge(const std::string& name, Track track, double v);
  void value(const std::string& name, double v);

  // Folds the recorded state into a chunk (computes metrics_text and the
  // digest) and leaves the recorder empty.
  RunChunk take_chunk();

 private:
  const sim::Engine* engine_;
  std::string label_;
  std::size_t event_limit_;
  std::vector<SpanEvent> spans_;
  std::vector<SpanEvent> pinned_spans_;
  std::vector<CounterEvent> counters_;
  StatMap metrics_;
  std::uint64_t dropped_events_ = 0;
};

// RAII span. A default-constructed or null-recorder span is inert; `arg` /
// the destructor are no-ops. Start is stamped at construction, end at
// destruction, so a span held across co_await covers the full interval even
// when the frame is torn down by reap_processes().
class Span {
 public:
  Span() = default;
  Span(Recorder* recorder, const char* name, Track track)
      : recorder_(recorder), name_(name), track_(track) {
    if (recorder_ != nullptr) start_ = recorder_->now();
  }
  Span(Span&& other) noexcept { swap(other); }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      finish();
      swap(other);
    }
    return *this;
  }
  ~Span() { finish(); }

  bool active() const { return recorder_ != nullptr; }
  void arg(const char* key, double v) {
    if (recorder_ != nullptr) args_.emplace_back(key, v);
  }
  // Workflow phase spans survive event-cap truncation.
  void pin() { pinned_ = true; }
  // Ends the span now instead of at scope exit (e.g. before an early
  // co_return path would stretch it to the unwind point).
  void end() { finish(); }

 private:
  void swap(Span& other) noexcept {
    std::swap(recorder_, other.recorder_);
    std::swap(name_, other.name_);
    std::swap(track_, other.track_);
    std::swap(start_, other.start_);
    std::swap(pinned_, other.pinned_);
    args_.swap(other.args_);
  }
  void finish() {
    if (recorder_ == nullptr) return;
    recorder_->record_span(
        SpanEvent{name_, track_, start_, recorder_->now(), std::move(args_)},
        pinned_);
    recorder_ = nullptr;
    args_.clear();
  }

  Recorder* recorder_ = nullptr;
  const char* name_ = "";
  Track track_;
  double start_ = 0.0;
  bool pinned_ = false;
  std::vector<std::pair<std::string, double>> args_;
};

// The recorder for the current world, or nullptr when tracing is off.
// Unlike audit::global() there is no process-wide fallback. With the
// IMC_TRACE compile option OFF this is a constexpr nullptr and every
// guarded hook below folds away.
#if IMC_TRACE_ENABLED
inline Recorder* global() { return world().recorder; }
#else
constexpr Recorder* global() { return nullptr; }
#endif

// --- Instrumentation hooks (the only API call sites should use) ---------

inline Span span(const char* name, Track track) {
  return Span(global(), name, track);
}
inline void count(const char* name, double n = 1.0) {
  if (Recorder* r = global()) r->count(name, n);
}
inline void gauge(const std::string& name, Track track, double v) {
  if (Recorder* r = global()) r->gauge(name, track, v);
}
inline void value(const char* name, double v) {
  if (Recorder* r = global()) r->value(name, v);
}

// Argless span statement for sites that never attach args.
#if IMC_TRACE_ENABLED
#define IMC_TRACE_CONCAT_IMPL(a, b) a##b
#define IMC_TRACE_CONCAT(a, b) IMC_TRACE_CONCAT_IMPL(a, b)
#define TRACE_SPAN(name, ...)                                      \
  ::imc::trace::Span IMC_TRACE_CONCAT(imc_trace_span_, __LINE__) = \
      ::imc::trace::span(name, ::imc::trace::Track{__VA_ARGS__})
#else
#define TRACE_SPAN(name, ...) \
  do {                        \
  } while (false)
#endif

// --- Sink: cross-run collection and export ------------------------------

// Collects RunChunks (thread-safe) and renders them as Chrome/Perfetto
// trace_event JSON plus an "imc" block with the schema tag, per-run metrics
// and digests, and the chain digest. The chain folds chunk digests in
// arrival order, which sweep::Pool pins to submission order.
class Sink {
 public:
  void add(RunChunk chunk);
  std::uint64_t digest() const;
  std::size_t size() const;
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<RunChunk> chunks_;
};

// The installed sink, or nullptr when tracing is off. First call parses
// IMC_TRACE (dies on garbage); an env-installed sink writes its JSON at
// process exit.
Sink* global_sink();
// Test hook: overrides the env sink (nullptr restores it). Returns the
// previous override.
Sink* set_global_sink(Sink* sink);
// True when a sink is installed; workflow::run only binds a Recorder then.
inline bool enabled() { return global_sink() != nullptr; }
// Per-run retained-event cap from IMC_TRACE_EVENTS (default 32768; 0 keeps
// metrics only).
std::size_t event_limit();

// Routes a finished run's chunk to the current World's chunk capture, or
// straight to the global sink when none is bound.
void emit_chunk(RunChunk chunk);

// --- Canonical serialization helpers (shared with tests) ----------------

// Shortest-exact number rendering: integral values print without a decimal
// point, everything else as %.17g. Used for metrics_text and the JSON
// exporter so both are deterministic byte-for-byte.
std::string format_number(double v);
// 64-bit FNV-1a over `text`, seeded with `seed` so chunk digests chain.
std::uint64_t fnv1a(const std::string& text,
                    std::uint64_t seed = 1469598103934665603ULL);
// `s` escaped for a JSON string literal (quote, backslash, control bytes).
std::string json_escape(const std::string& s);
// Appends `stats` as a JSON object, one "name":{kind,count,sum,min,max,
// last} member per line, in name order. The trace's per-run metrics and
// prof's lanes share it.
void append_stats_json(std::string* out, const StatMap& stats);
// Writes `text` to `path`, with a log warning on I/O failure.
void write_file(const std::string& path, const std::string& text);

// --- Env-installed exporters ---------------------------------------------

// The process-wide exporter of type T (the trace Sink, the prof Collector).
// The first get() reads environment variable `var` (a path; dies on
// garbage); when it is set, a T is created and its to_json() is written to
// that path at process exit. The T is deliberately leaked: it must outlive
// every static destructor that might still record. set() installs a test
// override (nullptr restores the env instance) and returns the previous one.
template <typename T>
class EnvInstalled {
 public:
  static T* get(const char* var) {
    static T* const installed = [var]() -> T* {
      const std::string path = env::str_or_die(var, "");
      if (path.empty()) return nullptr;
      path_ = new std::string(path);
      env_ = new T();
      std::atexit([] { write_file(*path_, env_->to_json()); });
      return env_;
    }();
    return override_ != nullptr ? override_ : installed;
  }
  static T* set(T* t) { return std::exchange(override_, t); }

 private:
  inline static std::string* path_ = nullptr;
  inline static T* env_ = nullptr;
  inline static T* override_ = nullptr;
};

}  // namespace imc::trace

#include "trace/trace.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/env.h"
#include "common/log.h"

namespace imc::trace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// Simulated seconds -> integer microseconds for trace_event ts/dur.
long long to_micros(double seconds) {
  return std::llround(seconds * 1e6);
}

// Exported pid for (run, node): each run gets a 65536-wide pid window so
// Perfetto shows one process group per simulated node per run; node -1 maps
// to the window's base pid ("metrics" pseudo-process).
long long export_pid(std::size_t run, int node) {
  return static_cast<long long>(run) * 65536 + node + 1;
}

void append_args_json(std::string* out,
                      const std::vector<std::pair<std::string, double>>& args) {
  out->append("{");
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) out->append(",");
    out->append("\"");
    out->append(json_escape(args[i].first));
    out->append("\":");
    out->append(format_number(args[i].second));
  }
  out->append("}");
}

}  // namespace

std::string format_number(double v) {
  char buf[40];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

// --- Recorder -----------------------------------------------------------

Recorder::Recorder(const sim::Engine& engine, std::string label,
                   std::size_t event_limit)
    : engine_(&engine), label_(std::move(label)), event_limit_(event_limit) {}

void Recorder::record_span(SpanEvent event, bool pinned) {
  bump("span." + event.name, 'h', event.end - event.start);
  if (pinned) {
    pinned_spans_.push_back(std::move(event));
    return;
  }
  if (spans_.size() + counters_.size() >= event_limit_) {
    ++dropped_events_;
    return;
  }
  spans_.push_back(std::move(event));
}

void Recorder::count(const std::string& name, double n) {
  bump(name, 'c', n);
}

void Recorder::gauge(const std::string& name, Track track, double v) {
  bump(name, 'g', v);
  if (spans_.size() + counters_.size() >= event_limit_) {
    ++dropped_events_;
    return;
  }
  counters_.push_back(CounterEvent{name, track, now(), v});
}

void Recorder::value(const std::string& name, double v) {
  bump(name, 'h', v);
}

void Recorder::bump(const std::string& name, char kind, double v) {
  auto [it, inserted] = metrics_.try_emplace(name);
  Stat& stat = it->second;
  if (inserted) {
    stat.kind = kind;
    stat.min = v;
    stat.max = v;
  } else {
    if (v < stat.min) stat.min = v;
    if (v > stat.max) stat.max = v;
  }
  ++stat.count;
  stat.sum += v;
  stat.last = v;
}

RunChunk Recorder::take_chunk() {
  RunChunk chunk;
  chunk.label = std::move(label_);
  chunk.dropped_events = dropped_events_;
  if (dropped_events_ > 0) {
    bump("trace.dropped_events", 'c', static_cast<double>(dropped_events_));
  }
  // Pinned spans (workflow phases) lead so the run skeleton survives any
  // truncation and sits first in the exported stream.
  chunk.spans = std::move(pinned_spans_);
  chunk.spans.insert(chunk.spans.end(),
                     std::make_move_iterator(spans_.begin()),
                     std::make_move_iterator(spans_.end()));
  chunk.counters = std::move(counters_);
  chunk.metrics = std::move(metrics_);

  // Canonical metrics text: one sorted "name kind count sum min max last"
  // line per metric. The chunk digest covers this text and every retained
  // event, so byte-identity of the export follows from digest equality.
  std::string text;
  for (const auto& [name, stat] : chunk.metrics) {
    text += name;
    text += ' ';
    text += stat.kind;
    text += ' ';
    text += format_number(static_cast<double>(stat.count));
    text += ' ';
    text += format_number(stat.sum);
    text += ' ';
    text += format_number(stat.min);
    text += ' ';
    text += format_number(stat.max);
    text += ' ';
    text += format_number(stat.last);
    text += '\n';
  }
  chunk.metrics_text = std::move(text);

  std::uint64_t digest = fnv1a(chunk.label);
  digest = fnv1a(chunk.metrics_text, digest);
  for (const SpanEvent& event : chunk.spans) {
    std::string line = event.name;
    line += ' ';
    line += format_number(event.track.node);
    line += ' ';
    line += format_number(event.track.tid);
    line += ' ';
    line += format_number(event.start);
    line += ' ';
    line += format_number(event.end);
    for (const auto& [key, v] : event.args) {
      line += ' ';
      line += key;
      line += '=';
      line += format_number(v);
    }
    digest = fnv1a(line, digest);
  }
  for (const CounterEvent& event : chunk.counters) {
    std::string line = event.name;
    line += ' ';
    line += format_number(event.time);
    line += ' ';
    line += format_number(event.value);
    digest = fnv1a(line, digest);
  }
  chunk.digest = digest;

  spans_.clear();
  pinned_spans_.clear();
  counters_.clear();
  metrics_.clear();
  dropped_events_ = 0;
  return chunk;
}

void emit_chunk(RunChunk chunk) {
  if (std::vector<RunChunk>* capture = world().chunks) {
    capture->push_back(std::move(chunk));
    return;
  }
  if (Sink* sink = global_sink()) {
    sink->add(std::move(chunk));
  }
}

// --- Sink ---------------------------------------------------------------

void Sink::add(RunChunk chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  chunks_.push_back(std::move(chunk));
}

void Sink::add_meta(RunChunk chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  meta_.push_back(std::move(chunk));
}

std::size_t Sink::meta_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return meta_.size();
}

std::uint64_t Sink::digest() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t digest = fnv1a("imc-trace-v1");
  for (const RunChunk& chunk : chunks_) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, chunk.digest);
    digest = fnv1a(buf, digest);
  }
  return digest;
}

std::size_t Sink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return chunks_.size();
}

std::string Sink::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first_event = true;
  auto emit = [&out, &first_event](const std::string& event) {
    if (!first_event) out.append(",\n");
    first_event = false;
    out.append(event);
  };

  for (std::size_t run = 0; run < chunks_.size(); ++run) {
    const RunChunk& chunk = chunks_[run];
    // Name the process/thread tracks actually used by this run's events.
    std::set<std::pair<int, int>> tracks;
    for (const SpanEvent& event : chunk.spans) {
      tracks.insert({event.track.node, event.track.tid});
    }
    for (const CounterEvent& event : chunk.counters) {
      tracks.insert({event.track.node, event.track.tid});
    }
    std::set<int> nodes;
    for (const auto& [node, tid] : tracks) nodes.insert(node);
    for (const int node : nodes) {
      char buf[160];
      std::string name =
          node < 0 ? "run" + std::to_string(run) + " metrics"
                   : "run" + std::to_string(run) + " node" +
                         std::to_string(node);
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"pid\":%lld,\"tid\":0,\"name\":"
                    "\"process_name\",\"args\":{\"name\":\"%s\"}}",
                    export_pid(run, node), json_escape(name).c_str());
      emit(buf);
    }
    for (const auto& [node, tid] : tracks) {
      char buf[160];
      std::string name = tid == 0 ? "node" : "pid " + std::to_string(tid);
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"pid\":%lld,\"tid\":%d,\"name\":"
                    "\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                    export_pid(run, node), tid, json_escape(name).c_str());
      emit(buf);
    }

    for (const SpanEvent& event : chunk.spans) {
      const long long ts = to_micros(event.start);
      const long long dur = to_micros(event.end) - ts;
      std::string line = "{\"ph\":\"X\",\"pid\":";
      line += std::to_string(export_pid(run, event.track.node));
      line += ",\"tid\":";
      line += std::to_string(event.track.tid);
      line += ",\"ts\":";
      line += std::to_string(ts);
      line += ",\"dur\":";
      line += std::to_string(dur);
      line += ",\"name\":\"";
      line += json_escape(event.name);
      line += "\",\"cat\":\"";
      const std::size_t dot = event.name.find('.');
      line += json_escape(dot == std::string::npos ? event.name
                                                   : event.name.substr(0, dot));
      line += "\",\"args\":";
      append_args_json(&line, event.args);
      line += "}";
      emit(line);
    }
    for (const CounterEvent& event : chunk.counters) {
      std::string line = "{\"ph\":\"C\",\"pid\":";
      line += std::to_string(export_pid(run, event.track.node));
      line += ",\"tid\":";
      line += std::to_string(event.track.tid);
      line += ",\"ts\":";
      line += std::to_string(to_micros(event.time));
      line += ",\"name\":\"";
      line += json_escape(event.name);
      line += "\",\"args\":{\"value\":";
      line += format_number(event.value);
      line += "}}";
      emit(line);
    }
  }

  // Meta chunks (diagnostic wall-clock data, e.g. sweep-pool worker
  // occupancy): rendered into the timeline after every run's pid window but
  // deliberately absent from the "imc" block and the digest chain — their
  // content is not covered by any determinism contract.
  for (std::size_t m = 0; m < meta_.size(); ++m) {
    const RunChunk& chunk = meta_[m];
    const std::size_t slot = chunks_.size() + m;
    std::set<int> tids;
    for (const SpanEvent& event : chunk.spans) tids.insert(event.track.tid);
    {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"pid\":%lld,\"tid\":0,\"name\":"
                    "\"process_name\",\"args\":{\"name\":\"%s\"}}",
                    export_pid(slot, -1), json_escape(chunk.label).c_str());
      emit(buf);
    }
    for (const int tid : tids) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"pid\":%lld,\"tid\":%d,\"name\":"
                    "\"thread_name\",\"args\":{\"name\":\"worker %d\"}}",
                    export_pid(slot, -1), tid, tid);
      emit(buf);
    }
    for (const SpanEvent& event : chunk.spans) {
      const long long ts = to_micros(event.start);
      const long long dur = to_micros(event.end) - ts;
      std::string line = "{\"ph\":\"X\",\"pid\":";
      line += std::to_string(export_pid(slot, -1));
      line += ",\"tid\":";
      line += std::to_string(event.track.tid);
      line += ",\"ts\":";
      line += std::to_string(ts);
      line += ",\"dur\":";
      line += std::to_string(dur);
      line += ",\"name\":\"";
      line += json_escape(event.name);
      line += "\",\"cat\":\"";
      const std::size_t dot = event.name.find('.');
      line += json_escape(dot == std::string::npos ? event.name
                                                   : event.name.substr(0, dot));
      line += "\",\"args\":";
      append_args_json(&line, event.args);
      line += "}";
      emit(line);
    }
  }

  // "imc" block: per-run metrics plus the chain digest — the part tests and
  // scripts/check_trace.py diff byte-for-byte.
  auto append_metrics = [&out](const std::map<std::string, Stat>& metrics) {
    bool first_metric = true;
    for (const auto& [name, stat] : metrics) {
      if (!first_metric) out.append(",");
      first_metric = false;
      out.append("\n\"");
      out.append(json_escape(name));
      out.append("\":{\"kind\":\"");
      out.push_back(stat.kind);
      out.append("\",\"count\":");
      out.append(format_number(static_cast<double>(stat.count)));
      out.append(",\"sum\":");
      out.append(format_number(stat.sum));
      out.append(",\"min\":");
      out.append(format_number(stat.min));
      out.append(",\"max\":");
      out.append(format_number(stat.max));
      out.append(",\"last\":");
      out.append(format_number(stat.last));
      out.append("}");
    }
  };
  out.append("],\n\"imc\":{\"schema\":\"imc-trace-v1\",\"runs\":[");
  for (std::size_t run = 0; run < chunks_.size(); ++run) {
    const RunChunk& chunk = chunks_[run];
    if (run != 0) out.append(",");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, chunk.digest);
    out.append("\n{\"label\":\"");
    out.append(json_escape(chunk.label));
    out.append("\",\"digest\":\"");
    out.append(buf);
    out.append("\",\"dropped_events\":");
    out.append(format_number(static_cast<double>(chunk.dropped_events)));
    out.append(",\"metrics\":{");
    append_metrics(chunk.metrics);
    out.append("}}");
  }
  // "meta" array: diagnostic chunks (prof resource accounting, sweep-pool
  // occupancy). Deliberately carries no digest field, and the chain digest
  // below folds only the runs above — wall-clock data must never gain a
  // byte-identity contract by accident (DESIGN.md §14).
  out.append("],\"meta\":[");
  for (std::size_t m = 0; m < meta_.size(); ++m) {
    const RunChunk& chunk = meta_[m];
    if (m != 0) out.append(",");
    out.append("\n{\"label\":\"");
    out.append(json_escape(chunk.label));
    out.append("\",\"metrics\":{");
    append_metrics(chunk.metrics);
    out.append("}}");
  }
  {
    std::uint64_t chain = fnv1a("imc-trace-v1");
    for (const RunChunk& chunk : chunks_) {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%016" PRIx64, chunk.digest);
      chain = fnv1a(buf, chain);
    }
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, chain);
    out.append("],\"digest\":\"");
    out.append(buf);
    out.append("\"}}\n");
  }
  return out;
}

bool Sink::write_file(const std::string& path) const {
  const std::string json = to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    IMC_WARN() << "trace: cannot open " << path << " for writing";
    return false;
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok) IMC_WARN() << "trace: short write to " << path;
  return ok;
}

// --- Global sink / env gates --------------------------------------------

namespace {

// Env-installed sink state. Parsed once; the sink (when IMC_TRACE is set)
// writes its JSON at process exit.
Sink* g_env_sink = nullptr;
std::string* g_env_path = nullptr;
Sink* g_override_sink = nullptr;
std::once_flag g_env_once;

void write_env_sink_at_exit() {
  if (g_env_sink != nullptr && g_env_path != nullptr) {
    g_env_sink->write_file(*g_env_path);
  }
}

void init_env_sink() {
  const std::string path = env::str_or_die("IMC_TRACE", "");
  if (path.empty()) return;
  // Deliberately leaked: the sink must outlive every static destructor that
  // might still record, and the process is exiting anyway.
  g_env_path = new std::string(path);
  g_env_sink = new Sink();
  std::atexit(write_env_sink_at_exit);
}

}  // namespace

Sink* global_sink() {
  std::call_once(g_env_once, init_env_sink);
  if (g_override_sink != nullptr) return g_override_sink;
  return g_env_sink;
}

Sink* set_global_sink(Sink* sink) {
  Sink* previous = g_override_sink;
  g_override_sink = sink;
  return previous;
}

std::size_t event_limit() {
  static const std::size_t limit = static_cast<std::size_t>(
      env::int_or_die("IMC_TRACE_EVENTS", 32768, 0, 1 << 24));
  return limit;
}

}  // namespace imc::trace

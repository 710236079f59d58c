#include "trace/trace.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <set>

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

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// The sink's chain digest: the schema tag, then each chunk's digest in hex,
// in arrival order.
std::uint64_t chain_digest(const std::vector<RunChunk>& chunks) {
  std::uint64_t digest = fnv1a("imc-trace-v1");
  for (const RunChunk& chunk : chunks) {
    digest = fnv1a(hex(chunk.digest), digest);
  }
  return digest;
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

void append_stats_json(std::string* out, const StatMap& stats) {
  out->append("{");
  bool first = true;
  for (const auto& [name, stat] : stats) {
    if (!first) out->append(",");
    first = false;
    out->append("\n\"");
    out->append(json_escape(name));
    out->append("\":{\"kind\":\"");
    out->push_back(stat.kind);
    out->append("\",\"count\":");
    out->append(format_number(static_cast<double>(stat.count)));
    out->append(",\"sum\":");
    out->append(format_number(stat.sum));
    out->append(",\"min\":");
    out->append(format_number(stat.min));
    out->append(",\"max\":");
    out->append(format_number(stat.max));
    out->append(",\"last\":");
    out->append(format_number(stat.last));
    out->append("}");
  }
  out->append("}");
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    IMC_WARN() << "cannot open " << path << " for writing";
    return;
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  if (std::fclose(f) != 0 || written != text.size()) {
    IMC_WARN() << "short write to " << path;
  }
}

// --- Recorder -----------------------------------------------------------

Recorder::Recorder(const sim::Engine& engine, std::string label,
                   std::size_t event_limit)
    : engine_(&engine), label_(std::move(label)), event_limit_(event_limit) {}

void Recorder::record_span(SpanEvent event, bool pinned) {
  metrics_["span." + event.name].add('h', event.end - event.start);
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
  metrics_[name].add('c', n);
}

void Recorder::gauge(const std::string& name, Track track, double v) {
  metrics_[name].add('g', v);
  if (spans_.size() + counters_.size() >= event_limit_) {
    ++dropped_events_;
    return;
  }
  counters_.push_back(CounterEvent{name, track, now(), v});
}

void Recorder::value(const std::string& name, double v) {
  metrics_[name].add('h', v);
}

RunChunk Recorder::take_chunk() {
  RunChunk chunk;
  chunk.label = std::move(label_);
  chunk.dropped_events = dropped_events_;
  if (dropped_events_ > 0) {
    metrics_["trace.dropped_events"].add(
        'c', static_cast<double>(dropped_events_));
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

std::uint64_t Sink::digest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return chain_digest(chunks_);
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

  // "imc" block: per-run metrics plus the chain digest — the part tests and
  // scripts/check_trace.py diff byte-for-byte.
  out.append("],\n\"imc\":{\"schema\":\"imc-trace-v1\",\"runs\":[");
  for (std::size_t run = 0; run < chunks_.size(); ++run) {
    const RunChunk& chunk = chunks_[run];
    if (run != 0) out.append(",");
    out.append("\n{\"label\":\"");
    out.append(json_escape(chunk.label));
    out.append("\",\"digest\":\"");
    out.append(hex(chunk.digest));
    out.append("\",\"dropped_events\":");
    out.append(format_number(static_cast<double>(chunk.dropped_events)));
    out.append(",\"metrics\":");
    append_stats_json(&out, chunk.metrics);
    out.append("}");
  }
  out.append("],\"digest\":\"");
  out.append(hex(chain_digest(chunks_)));
  out.append("\"}}\n");
  return out;
}

// --- Global sink / env gates --------------------------------------------

Sink* global_sink() { return EnvInstalled<Sink>::get("IMC_TRACE"); }

Sink* set_global_sink(Sink* sink) { return EnvInstalled<Sink>::set(sink); }

std::size_t event_limit() {
  static const std::size_t limit = static_cast<std::size_t>(
      env::int_or_die("IMC_TRACE_EVENTS", 32768, 0, 1 << 24));
  return limit;
}

}  // namespace imc::trace

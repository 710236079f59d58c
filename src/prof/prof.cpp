#include "prof/prof.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#define IMC_PROF_HAVE_POSIX 1
#else
#define IMC_PROF_HAVE_POSIX 0
#endif

#include "common/env.h"
#include "common/log.h"

namespace imc::prof {
namespace {

void append_stats_json(std::string* out,
                       const std::map<std::string, trace::Stat>& stats) {
  out->append("{");
  bool first = true;
  for (const auto& [name, stat] : stats) {
    if (!first) out->append(",");
    first = false;
    out->append("\n\"");
    out->append(trace::json_escape(name));
    out->append("\":{\"kind\":\"");
    out->push_back(stat.kind);
    out->append("\",\"count\":");
    out->append(trace::format_number(static_cast<double>(stat.count)));
    out->append(",\"sum\":");
    out->append(trace::format_number(stat.sum));
    out->append(",\"min\":");
    out->append(trace::format_number(stat.min));
    out->append(",\"max\":");
    out->append(trace::format_number(stat.max));
    out->append(",\"last\":");
    out->append(trace::format_number(stat.last));
    out->append("}");
  }
  out->append("}");
}

std::string read_cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find('\t'));
    if (key.rfind("model name", 0) == 0) {
      std::size_t start = colon + 1;
      while (start < line.size() && line[start] == ' ') ++start;
      return line.substr(start);
    }
  }
  return "unknown";
}

}  // namespace

const HostInfo& host() {
  static const HostInfo info = [] {
    HostInfo h;
#if IMC_PROF_HAVE_POSIX
    const long cores = sysconf(_SC_NPROCESSORS_ONLN);
    h.cores = cores > 0 ? static_cast<int>(cores) : 1;
    const long page = sysconf(_SC_PAGESIZE);
    h.page_size = page > 0 ? page : 0;
#else
    h.cores = 1;
    h.page_size = 0;
#endif
    h.cpu_model = read_cpu_model();
#ifdef IMC_BUILD_TYPE
    h.build_type = IMC_BUILD_TYPE;
#else
    h.build_type = "unknown";
#endif
    if (h.build_type.empty()) h.build_type = "unknown";
    return h;
  }();
  return info;
}

Rusage read_rusage() {
  Rusage usage;
#if IMC_PROF_HAVE_POSIX
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    usage.ok = true;
    usage.max_rss_kb = ru.ru_maxrss;
    usage.minor_faults = ru.ru_minflt;
    usage.voluntary_ctx_switches = ru.ru_nvcsw;
    usage.involuntary_ctx_switches = ru.ru_nivcsw;
  }
#endif
  return usage;
}

double wall_seconds() {
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

// --- Meter ---------------------------------------------------------------

void Meter::bump(const char* name, char kind, double v) {
  auto [it, inserted] = stats_.try_emplace(name);
  trace::Stat& stat = it->second;
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

// --- Collector -----------------------------------------------------------

void Collector::fold(const Meter& m) {
  if (m.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, trace::Stat>& lane = lanes_[m.lane()];
  for (const auto& [name, stat] : m.stats()) {
    auto [it, inserted] = lane.try_emplace(name, stat);
    if (inserted) continue;
    trace::Stat& merged = it->second;
    if (stat.min < merged.min) merged.min = stat.min;
    if (stat.max > merged.max) merged.max = stat.max;
    merged.count += stat.count;
    merged.sum += stat.sum;
    merged.last = stat.last;
  }
}

std::size_t Collector::lane_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lanes_.size();
}

std::map<std::string, std::map<std::string, trace::Stat>> Collector::lanes()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return lanes_;
}

std::string Collector::to_json() const {
  const HostInfo& h = host();
  const Rusage usage = read_rusage();
  std::string out = "{\"schema\":\"imc-prof-v1\",\n\"host\":{\"cores\":";
  out.append(trace::format_number(h.cores));
  out.append(",\"page_size\":");
  out.append(trace::format_number(static_cast<double>(h.page_size)));
  out.append(",\"cpu_model\":\"");
  out.append(trace::json_escape(h.cpu_model));
  out.append("\",\"build_type\":\"");
  out.append(trace::json_escape(h.build_type));
  out.append("\"},\n\"rusage\":{\"ok\":");
  out.append(usage.ok ? "true" : "false");
  out.append(",\"max_rss_kb\":");
  out.append(trace::format_number(static_cast<double>(usage.max_rss_kb)));
  out.append(",\"minor_faults\":");
  out.append(trace::format_number(static_cast<double>(usage.minor_faults)));
  out.append(",\"voluntary_ctx_switches\":");
  out.append(
      trace::format_number(static_cast<double>(usage.voluntary_ctx_switches)));
  out.append(",\"involuntary_ctx_switches\":");
  out.append(trace::format_number(
      static_cast<double>(usage.involuntary_ctx_switches)));
  out.append("},\n\"process\":{\"log_flushed_bytes\":");
  out.append(trace::format_number(static_cast<double>(log_flushed_bytes())));
  out.append(",\"log_flushed_chunks\":");
  out.append(trace::format_number(static_cast<double>(log_flushed_chunks())));
  out.append(",\"wall_seconds\":");
  out.append(trace::format_number(wall_seconds()));
  out.append("},\n\"lanes\":{");
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool first = true;
    for (const auto& [lane, stats] : lanes_) {
      if (!first) out.append(",");
      first = false;
      out.append("\n\"");
      out.append(trace::json_escape(lane));
      out.append("\":");
      append_stats_json(&out, stats);
    }
  }
  out.append("}}\n");
  return out;
}

trace::RunChunk Collector::to_meta_chunk() const {
  trace::RunChunk chunk;
  chunk.label = "prof";
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [lane, stats] : lanes_) {
    for (const auto& [name, stat] : stats) {
      chunk.metrics[lane + "/" + name] = stat;
    }
  }
  // No metrics_text and digest 0: this chunk must never feed a digest chain;
  // Sink::add_meta keeps it outside digest() and the "imc"."runs" block.
  return chunk;
}

bool Collector::write_file(const std::string& path) const {
  const std::string json = to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    IMC_WARN() << "prof: cannot open " << path << " for writing";
    return false;
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok) IMC_WARN() << "prof: short write to " << path;
  return ok;
}

// --- Global collector / env gates ---------------------------------------

namespace {

// Env-installed collector state. Parsed once; the collector (when IMC_PROF
// is set) writes its report at process exit — and, when a trace sink is
// installed, folds a "prof" meta chunk into it first so the trace file
// carries the same data.
Collector* g_env_collector = nullptr;
std::string* g_env_path = nullptr;
Collector* g_override_collector = nullptr;
std::once_flag g_env_once;

void write_env_report_at_exit() {
  if (g_env_collector == nullptr || g_env_path == nullptr) return;
  if (trace::Sink* sink = trace::global_sink()) {
    trace::RunChunk chunk = g_env_collector->to_meta_chunk();
    if (!chunk.metrics.empty()) sink->add_meta(std::move(chunk));
  }
  g_env_collector->write_file(*g_env_path);
}

void init_env_collector() {
  const std::string path = env::str_or_die("IMC_PROF", "");
  if (path.empty()) return;
  // Force the trace sink's atexit writer (if IMC_TRACE is set) to register
  // before ours: atexit runs LIFO, so ours then fires first and the prof
  // meta chunk lands in the trace export before it is written.
  trace::global_sink();
  // Deliberately leaked, same rationale as the trace env sink.
  g_env_path = new std::string(path);
  g_env_collector = new Collector();
  std::atexit(write_env_report_at_exit);
}

}  // namespace

Collector* global_collector() {
  std::call_once(g_env_once, init_env_collector);
  if (g_override_collector != nullptr) return g_override_collector;
  return g_env_collector;
}

Collector* set_global_collector(Collector* collector) {
  Collector* previous = g_override_collector;
  g_override_collector = collector;
  return previous;
}

}  // namespace imc::prof

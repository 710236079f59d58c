#include "prof/prof.h"

#include <chrono>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#define IMC_PROF_HAVE_POSIX 1
#else
#define IMC_PROF_HAVE_POSIX 0
#endif

#include "common/log.h"

namespace imc::prof {
namespace {

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

void Meter::add(const char* name, char kind, double v) {
  stats_[name].add(kind, v);
}

// --- Collector -----------------------------------------------------------

void Collector::fold(const Meter& m) {
  if (m.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  trace::StatMap& lane = lanes_[m.lane()];
  for (const auto& [name, stat] : m.stats()) lane[name].merge(stat);
}

std::size_t Collector::lane_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lanes_.size();
}

std::map<std::string, trace::StatMap> Collector::lanes() const {
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
      trace::append_stats_json(&out, stats);
    }
  }
  out.append("}}\n");
  return out;
}

// --- Global collector / env gates ---------------------------------------

Collector* global_collector() {
  return trace::EnvInstalled<Collector>::get("IMC_PROF");
}

Collector* set_global_collector(Collector* collector) {
  return trace::EnvInstalled<Collector>::set(collector);
}

}  // namespace imc::prof

#include "runner.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "gauge.h"
#include "probes.h"
#include "reference.h"
#include "sweep/sweep.h"
#include "workflow/workflow.h"
#include "workloads.h"

namespace wfbench {

using imc::workflow::RunResult;
using imc::workflow::Spec;

namespace {

// The benchmark measures the harness in real time, outside every
// simulated world. imc-analyze: allow(wall-clock)
using Clock = std::chrono::steady_clock;

// Set-up is timed from here: static initialization of the process.
const Clock::time_point g_process_start = Clock::now();

// The gauge slice time that the reported times are scaled to: a time of T
// seconds measured while a slice took g is reported as T * kGaugeRefS / g.
// This is about the slice time on the reference host when no other tenant
// contends for its cores (README.md, "Host speed").
constexpr double kGaugeRefS = 1.7e-3;
// Gauge slices taken back to back after set-up; their median scales it.
constexpr int kSetupSlices = 15;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

rusage thread_usage() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Peak resident set of this process while alive, sampled every millisecond
// from /proc/self/statm. Unlike ru_maxrss it covers one pass, so a run can
// report the median pass instead of its single worst overlap of jobs.
class RssSampler {
 public:
  RssSampler() : thread_([this] { loop(); }) {}
  ~RssSampler() {
    stop_ = true;
    thread_.join();
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  double peak_mb() {
    sample();
    return static_cast<double>(peak_pages_.load()) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
  }

 private:
  void sample() {
    unsigned long size = 0, resident = 0;
    if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
      if (std::fscanf(f, "%lu %lu", &size, &resident) != 2) resident = 0;
      std::fclose(f);
    }
    unsigned long seen = peak_pages_.load();
    while (resident > seen && !peak_pages_.compare_exchange_weak(seen, resident)) {
    }
  }
  void loop() {
    while (!stop_) {
      sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<unsigned long> peak_pages_{0};
  std::thread thread_;  // last: starts after the fields it uses
};

// One workflow::run as a sweep job, with its own clock and thread rusage.
struct Outcome {
  RunResult result;
  double run_s = 0;
  double minor_faults = 0;
  double user_s = 0;
  double sys_s = 0;
  double gauge_s = 0;  // mean of the gauge slices just before and after
};

std::vector<Outcome> run_pass(const std::vector<const Spec*>& specs,
                              int threads, const HostGauge* gauge = nullptr) {
  std::vector<std::function<Outcome()>> jobs;
  jobs.reserve(specs.size());
  for (const Spec* spec : specs) {
    jobs.emplace_back([spec, gauge] {
      Outcome o;
      const double before = gauge ? gauge->slice() : 0;
      const rusage r0 = thread_usage();
      const auto t0 = Clock::now();
      o.result = imc::workflow::run(*spec);
      o.run_s = since(t0);
      const rusage r1 = thread_usage();
      o.minor_faults = static_cast<double>(r1.ru_minflt - r0.ru_minflt);
      o.user_s = seconds_of(r1.ru_utime) - seconds_of(r0.ru_utime);
      o.sys_s = seconds_of(r1.ru_stime) - seconds_of(r0.ru_stime);
      if (gauge) o.gauge_s = 0.5 * (before + gauge->slice());
      return o;
    });
  }
  return imc::sweep::Pool(threads).run_ordered(std::move(jobs));
}

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

std::string to_json(bool correct, std::size_t attempted, std::size_t failed,
                    const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void check(const Reference& ref, const std::vector<const Spec*>& specs,
             const std::vector<Outcome>& outcomes) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ++attempted;
      const std::string why =
          check_result(ref, spec_key(*specs[i]), outcomes[i].result);
      if (why.empty()) continue;
      if (failed++ < 5) std::fprintf(stderr, "wfbench: mismatch: %s\n", why.c_str());
    }
  }
};

// Per-layer metrics of one traced pass plus its probes.
Metrics layer_metrics(const std::vector<const Spec*>& specs,
                      const std::vector<Outcome>& outcomes, int threads,
                      double pass_wall) {
  Layers layers;
  imc::sweep::WorldContext world;
  double run_s = 0, faults = 0, user_s = 0, sys_s = 0, events = 0,
         transfers = 0, bytes = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Outcome& o = outcomes[i];
    run_s += o.run_s;
    faults += o.minor_faults;
    user_s += o.user_s;
    sys_s += o.sys_s;
    events += static_cast<double>(o.result.events_processed);
    transfers += static_cast<double>(o.result.transfers);
    bytes += o.result.bytes_moved;
    world.run([&] {
      probe_spec(*specs[i], o.result, layers);
    });
    // Probe runs capture library logs; they are not part of the output.
    // imc-analyze: allow(discarded-result)
    (void)world.take_logs();
  }
  double putget = 0;
  Metrics m;
  for (const char* lib : {"dataspaces", "dimes", "flexpath", "decaf"}) {
    const auto it = layers.putget_s.find(lib);
    const double s = it == layers.putget_s.end() ? 0 : it->second;
    putget += s;
    m[std::string(lib) + ".putget_s"] = {s, "s"};
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  m["workflow.run_s"] = {run_s, "s"};
  m["workflow.runs"] = {static_cast<double>(specs.size()), "count"};
  m["apps.advance_s"] = {layers.advance_s, "s"};
  m["apps.output_s"] = {layers.output_s, "s"};
  m["apps.output_mb"] = {layers.output_mb, "MB"};
  m["apps.output_repeat_ratio"] = {
      ratio(static_cast<double>(layers.output_repeats),
            static_cast<double>(layers.output_compared)),
      "ratio"};
  m["apps.analysis_s"] = {layers.analysis_s, "s"};
  m["apps.analysis_touch_ratio"] = {
      ratio(static_cast<double>(layers.analysis_touched),
            static_cast<double>(layers.analysis_built)),
      "ratio"};
  m["ndarray.assemble_s"] = {layers.assemble_s, "s"};
  m["ndarray.assemble_mb"] = {layers.assemble_mb, "MB"};
  m["ndarray.index_s"] = {layers.index_s, "s"};
  m["ndarray.index_queries"] = {static_cast<double>(layers.index_queries),
                                "count"};
  m["sim.events"] = {events, "count"};
  m["sim.events_per_s"] = {
      ratio(static_cast<double>(layers.engine_replay_events),
            layers.engine_replay_s),
      "1/s"};
  m["net.transfers"] = {transfers, "count"};
  m["net.gb_moved"] = {bytes / (1024.0 * 1024.0 * 1024.0), "GB"};
  m["mem.minor_faults"] = {faults, "count"};
  m["mem.user_s"] = {user_s, "s"};
  m["mem.sys_s"] = {sys_s, "s"};
  const double capacity = threads * pass_wall;
  m["sweep.job_s"] = {run_s, "s"};
  m["sweep.idle_s"] = {std::max(0.0, capacity - run_s), "s"};
  m["sweep.occupancy"] = {ratio(run_s, capacity), "ratio"};
  m["workflow.unattributed_s"] = {
      run_s - layers.advance_s - layers.output_s - layers.analysis_s - putget,
      "s"};
  return m;
}

}  // namespace

std::string run(const Options& options) {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // Set-up, timed from process start so cold-start costs show: reference,
  // Spec list, one untimed warm-up run of the workload's first Spec.
  const Reference ref = parse_reference(read_file(options.reference_path));
  const Workload workload = make_workload(options.workload, nproc);
  const std::vector<const Spec*> first = {&workload.specs.front()};
  Tally warmup;
  warmup.check(ref, first, run_pass(first, 1));
  if (warmup.failed > 0) {
    throw std::runtime_error("warm-up run does not match the reference");
  }
  const double setup_raw_s = since(g_process_start);
  // The gauge is the benchmark's own, so it is built after set-up.
  const HostGauge gauge;
  std::vector<double> slices;
  for (int i = 0; i < kSetupSlices; ++i) slices.push_back(gauge.slice());
  const double setup_s = setup_raw_s * kGaugeRefS / median(slices);
  std::fprintf(stderr, "wfbench: set-up %.4f s (%.4f s scaled)\n",
               setup_raw_s, setup_s);
  if (options.setup_only) {
    return to_json(true, warmup.attempted, 0, {{"setup_s", {setup_s, "s"}}});
  }
  std::fprintf(stderr, "wfbench: %s seed %llu: %zu specs, %d thread(s)\n",
               workload.name.c_str(),
               static_cast<unsigned long long>(options.seed),
               workload.specs.size(), workload.threads);

  // Closed loop over the Spec list: passes until the next one would
  // overrun the measuring window (at least one). Per-Spec samples are kept
  // so one pass disturbed by the host does not set the result. Every time
  // is scaled to the reference speed by the gauge slices that bracket its
  // job, on the job's own thread.
  const std::size_t n = workload.specs.size();
  Tally tally;
  std::vector<double> walls, raw_walls, rss;
  std::vector<std::vector<double>> spec_wall(n), spec_cpu(n), spec_raw(n);
  std::vector<Metrics> traced;
  const auto window = Clock::now();
  for (;;) {
    const auto perm = permutation(n, options.seed, walls.size());
    std::vector<const Spec*> order;
    for (std::size_t i : perm) order.push_back(&workload.specs[i]);
    std::vector<Outcome> outcomes;
    const auto t0 = Clock::now();
    {
      RssSampler sampler;
      outcomes = run_pass(order, workload.threads, &gauge);
      rss.push_back(sampler.peak_mb());
    }
    const double wall = since(t0);
    std::vector<double> gauges;
    for (std::size_t k = 0; k < n; ++k) {
      const Outcome& o = outcomes[k];
      const double scale = kGaugeRefS / o.gauge_s;
      spec_wall[perm[k]].push_back(o.run_s * scale);
      spec_cpu[perm[k]].push_back((o.user_s + o.sys_s) * scale);
      spec_raw[perm[k]].push_back(o.run_s);
      gauges.push_back(o.gauge_s);
    }
    raw_walls.push_back(wall);
    walls.push_back(wall * kGaugeRefS / median(gauges));
    tally.check(ref, order, outcomes);
    if (options.trace) {
      traced.push_back(layer_metrics(order, outcomes, workload.threads, wall));
    }
    std::fprintf(stderr,
                 "wfbench: pass %zu: %.3f s wall (%.3f s scaled), gauge "
                 "%.2f ms, %.0f MB peak\n",
                 walls.size(), wall, walls.back(), 1e3 * median(gauges),
                 rss.back());
    const double elapsed = since(window);
    if (elapsed + elapsed / static_cast<double>(walls.size()) > options.seconds) {
      break;
    }
  }

  Metrics metrics;
  if (options.trace) {
    for (const auto& [name, first] : traced.front()) {
      std::vector<double> values;
      for (const auto& t : traced) values.push_back(t.at(name).value);
      metrics[name] = {median(values), first.unit};
    }
  } else {
    // One thread: a pass is its Specs back to back, so its wall time is
    // the sum of their median times. Several threads: the median pass.
    double wall = 0, cpu = 0, raw = 0;
    for (std::size_t i = 0; i < n; ++i) {
      wall += median(spec_wall[i]);
      cpu += median(spec_cpu[i]);
      raw += median(spec_raw[i]);
    }
    if (workload.threads > 1) {
      wall = median(walls);
      raw = median(raw_walls);
    }
    std::fprintf(stderr, "wfbench: wall %.4f s (%.4f s scaled)\n", raw, wall);
    metrics["wall_s"] = {wall, "s"};
    metrics["cpu_s"] = {cpu, "s"};
    // Mean, not median: a pass's peak depends on which heavy jobs overlap.
    metrics["peak_rss_mb"] = {
        std::accumulate(rss.begin(), rss.end(), 0.0) / static_cast<double>(rss.size()),
        "MB"};
    metrics["setup_s"] = {setup_s, "s"};
  }
  std::fprintf(stderr, "wfbench: fail_ratio %zu/%zu\n", tally.failed,
               tally.attempted);
  return to_json(tally.failed == 0, tally.attempted, tally.failed, metrics);
}

std::string record(const std::string& workload_name) {
  const Workload workload = make_workload(
      workload_name,
      std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  std::vector<const Spec*> specs;
  for (const auto& spec : workload.specs) specs.push_back(&spec);
  const auto outcomes = run_pass(specs, workload.threads);
  Reference ref;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunResult& r = outcomes[i].result;
    if (!r.ok || !r.leaks.empty()) {
      throw std::runtime_error(spec_key(*specs[i]) + ": " +
                               (r.ok ? r.leaks.front() : r.failure_summary()));
    }
    ref[spec_key(*specs[i])] = make_record(r);
  }
  return format_reference(ref);
}

}  // namespace wfbench

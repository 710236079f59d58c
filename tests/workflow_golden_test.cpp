// Golden run table: a fixed set of workflow::run Specs — every method over
// the three applications plus the transport, placement, GPU, failure,
// fallback and replication paths — compared field by field with the
// values recorded in golden/workflow_runs.txt. The other workflow tests compare runs with each
// other; this one pins them to a record, so a change that moves simulated
// results the same way everywhere still fails here.
//
// Doubles are printed with 17 significant digits (exact round trip). The
// trace digest is taken through a test sink at the default event cap, so
// IMC_TRACE_EVENTS must be unset. When a compared block differs from the
// record, the whole actual table is written to workflow_runs.actual.txt in
// the working directory; a change that moves simulated results on purpose
// re-records the golden file from it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "trace/trace.h"
#include "workflow/workflow.h"

namespace imc::workflow {
namespace {

struct Row {
  std::string name;
  Spec spec;
};

Spec base(AppSel app, MethodSel method) {
  Spec spec;
  spec.app = app;
  spec.method = method;
  spec.machine = hpc::titan();
  spec.nsim = 16;
  spec.nana = 8;
  spec.steps = 2;
  return spec;
}

std::vector<Row> golden_rows() {
  std::vector<Row> rows;
  // Laplace keeps its paper default of 128 MB/proc: DataSpaces and DIMES
  // run out of server memory at 16x8, so those rows pin a failure too.
  for (AppSel app : {AppSel::kLammps, AppSel::kLaplace, AppSel::kSynthetic}) {
    for (MethodSel method :
         {MethodSel::kMpiIo, MethodSel::kDataspacesAdios,
          MethodSel::kDataspacesNative, MethodSel::kDimesAdios,
          MethodSel::kDimesNative, MethodSel::kFlexpath, MethodSel::kDecaf}) {
      rows.push_back({std::string(to_string(app)) + " " +
                          std::string(to_string(method)) + " Titan",
                      base(app, method)});
    }
  }
  {
    Spec spec = base(AppSel::kLammps, MethodSel::kDataspacesNative);
    spec.machine = hpc::cori_knl();
    spec.transport = Spec::Transport::kSockets;
    rows.push_back({"Cori DataSpaces/native sockets", spec});
  }
  {
    Spec spec = base(AppSel::kLammps, MethodSel::kDataspacesAdios);
    spec.machine = hpc::cori_knl();
    spec.shared_node_mode = true;
    spec.transport = Spec::Transport::kSockets;
    rows.push_back({"Cori shared-node DataSpaces/ADIOS sockets", spec});
  }
  {
    Spec spec = base(AppSel::kLaplace, MethodSel::kFlexpath);
    spec.machine = hpc::cori_knl();
    spec.laplace_cols_per_proc = 512;
    spec.shared_node_mode = true;
    spec.transport = Spec::Transport::kSharedMemory;
    rows.push_back({"Cori shared-node Flexpath shm", spec});
  }
  {
    Spec spec = base(AppSel::kLammps, MethodSel::kDataspacesNative);
    spec.gpu_resident_output = true;
    spec.capture_timelines = true;
    rows.push_back({"GPU-resident DataSpaces/native", spec});
  }
  {
    Spec spec = base(AppSel::kLammps, MethodSel::kDataspacesNative);
    spec.steps = 1;
    spec.lammps_atoms_per_proc = 60'000'000;  // 5*16*60e6 > 2^32 elements
    spec.use_32bit_dims = true;
    rows.push_back({"32-bit dims overflow", spec});
  }
  {
    Spec spec = base(AppSel::kLammps, MethodSel::kDataspacesNative);
    spec.machine.socket_descriptors_per_node = 20;  // 24 clients, 1 server
    spec.transport = Spec::Transport::kSockets;
    rows.push_back({"Out of sockets at init", spec});
  }
  {
    Spec spec = base(AppSel::kLammps, MethodSel::kFlexpath);
    spec.flexpath_queue_size = 1;
    spec.steps = 4;
    rows.push_back({"Flexpath queue_size=1 4 steps", spec});
  }
  {
    Spec spec = base(AppSel::kLaplace, MethodSel::kDataspacesNative);
    spec.nsim = 8;
    spec.nana = 4;
    spec.laplace_rows = 64;
    spec.laplace_cols_per_proc = 64;
    spec.fault.server_crashes = {{1e-3, 0}};
    spec.fallback.to_mpi_io = true;
    rows.push_back({"MPI-IO fallback after a server crash", spec});
  }
  // Replicated staging under scheduled crashes, shaped like repl_test's
  // replicated_spec: degraded reads, async forwarding and resilver copies.
  // DIMES anchors the "field" directory chain at hash("field") % 4 = 3.
  struct Replicated {
    const char* name;
    MethodSel method;
    int factor;
    repl::Mode mode;
    std::vector<fault::Plan::ServerCrash> crashes;
  };
  const std::vector<Replicated> replicated = {
      {"Replicated DataSpaces/native R=2 crash", MethodSel::kDataspacesNative,
       2, repl::Mode::kSync, {{3e-3, 0}}},
      {"Replicated DataSpaces/native R=2 async crash",
       MethodSel::kDataspacesNative, 2, repl::Mode::kAsync, {{3e-3, 0}}},
      {"Replicated DataSpaces/native R=3 two crashes",
       MethodSel::kDataspacesNative, 3, repl::Mode::kSync,
       {{3e-3, 0}, {4e-3, 1}}},
      {"Replicated DIMES/native R=2 crash", MethodSel::kDimesNative, 2,
       repl::Mode::kSync, {{3e-3, 3}}},
      {"Replicated DIMES/native R=2 async crash", MethodSel::kDimesNative, 2,
       repl::Mode::kAsync, {{3e-3, 3}}},
  };
  for (const Replicated& r : replicated) {
    Spec spec = base(AppSel::kLaplace, r.method);
    spec.nsim = 8;
    spec.nana = 4;
    spec.laplace_rows = 64;
    spec.laplace_cols_per_proc = 64;
    spec.num_servers = 4;
    spec.repl.factor = r.factor;
    spec.repl.mode = r.mode;
    spec.fault.server_crashes = r.crashes;
    spec.fallback.to_mpi_io = true;
    rows.push_back({r.name, spec});
  }
  return rows;
}

std::string join(std::vector<std::string> items, bool sort) {
  if (sort) std::sort(items.begin(), items.end());
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += " | ";
    out += item;
  }
  return out;
}

std::string format_row(const std::string& name, const RunResult& r) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "ok=%d\nrun_digest=%016" PRIx64 "\nevents=%zu\ntransfers=%" PRIu64
      "\nbytes_moved=%.17g\nend_to_end=%.17g\nsim_staging=%.17g\n"
      "ana_staging=%.17g\nsim_rank_peak=%" PRIu64 "\nana_rank_peak=%" PRIu64
      "\nserver_peak=%" PRIu64 "\nsample=%.17g\ntrace_digest=%016" PRIx64
      "\n",
      r.ok ? 1 : 0, r.run_digest, r.events_processed, r.transfers,
      r.bytes_moved, r.end_to_end, r.sim_staging, r.ana_staging,
      r.sim_rank_peak, r.ana_rank_peak, r.server_peak,
      r.sample_analysis_value, r.trace_digest);
  const RunResult::ReplStats& d = r.repl;
  char repl[512];
  std::snprintf(repl, sizeof(repl),
                "repl=factor %d replica_puts %" PRIu64 " replica_bytes %" PRIu64
                " degraded_gets %" PRIu64 " under_replicated %" PRIu64
                " objects_lost %" PRIu64 " resilver_copies %" PRIu64
                " resilver_bytes %" PRIu64 " resilver_failures %" PRIu64
                " restores %" PRIu64 " time_to_restore %.17g\n",
                d.factor, d.replica_puts, d.replica_bytes, d.degraded_gets,
                d.under_replicated, d.objects_lost, d.resilver_copies,
                d.resilver_bytes, d.resilver_failures, d.restores,
                d.time_to_restore);
  return "== " + name + "\nfailures=" + join(r.failures, false) +
         "\nrecovered_failures=" + join(r.recovered_failures, false) +
         "\nleaks=" + join(r.leaks, true) + "\n" + buf + repl;
}

// A block as compared: builds without IMC_CHECK audit nothing, so their
// leak lines are empty; every other field, run digests included, must
// still match the record.
std::string comparable(std::string block) {
  if (IMC_CHECK_ENABLED) return block;
  const std::size_t at = block.find("\nleaks=");
  return block.erase(at, block.find('\n', at + 1) - at);
}

// Splits a table into its "== name" blocks, keyed by name.
std::map<std::string, std::string> blocks(const std::string& table) {
  std::map<std::string, std::string> out;
  std::istringstream in(table);
  std::string line, name;
  while (std::getline(in, line)) {
    if (line.rfind("== ", 0) == 0) name = line.substr(3);
    out[name] += line + "\n";
  }
  return out;
}

TEST(WorkflowGolden, RunTableMatchesRecord) {
  std::string actual;
  std::vector<std::string> names;
  for (const Row& row : golden_rows()) {
    trace::Sink sink;
    trace::Sink* previous = trace::set_global_sink(&sink);
    const RunResult result = run(row.spec);
    trace::set_global_sink(previous);
    actual += format_row(row.name, result);
    names.push_back(row.name);
  }

  std::ifstream file(IMC_GOLDEN_RUNS);
  ASSERT_TRUE(file.good()) << "missing " << IMC_GOLDEN_RUNS;
  std::stringstream expected_text;
  expected_text << file.rdbuf();
  const auto expected = blocks(expected_text.str());
  const auto got = blocks(actual);
  bool differs = expected.size() != got.size();
  for (const auto& name : names) {
    auto it = expected.find(name);
    differs = differs || it == expected.end() ||
              comparable(it->second) != comparable(got.at(name));
  }
  if (differs) std::ofstream("workflow_runs.actual.txt") << actual;
  EXPECT_EQ(expected.size(), got.size());
  for (const auto& name : names) {
    auto it = expected.find(name);
    ASSERT_NE(it, expected.end()) << "no recorded row '" << name << "'";
    EXPECT_EQ(comparable(it->second), comparable(got.at(name)))
        << "row '" << name << "'";
  }
}

}  // namespace
}  // namespace imc::workflow

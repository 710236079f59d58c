#include "workflow/workflow.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>

#include "common/arena.h"
#include "common/audit.h"
#include "common/rng.h"
#include "common/world.h"
#include "fault/fault.h"
#include "prof/prof.h"
#include "trace/trace.h"

#include "adios/adios.h"
#include "apps/analysis.h"
#include "apps/apps.h"
#include "hpc/cluster.h"
#include "lustre/lustre.h"
#include "mpi/comm.h"
#include "net/drc.h"
#include "net/fabric.h"
#include "ndarray/ndarray.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "staging/client.h"
#include "staging/clients.h"

namespace imc::workflow {

std::string_view to_string(MethodSel method) {
  switch (method) {
    case MethodSel::kMpiIo:
      return "MPI-IO/ADIOS";
    case MethodSel::kDataspacesAdios:
      return "DataSpaces/ADIOS";
    case MethodSel::kDataspacesNative:
      return "DataSpaces/native";
    case MethodSel::kDimesAdios:
      return "DIMES/ADIOS";
    case MethodSel::kDimesNative:
      return "DIMES/native";
    case MethodSel::kFlexpath:
      return "Flexpath/ADIOS";
    case MethodSel::kDecaf:
      return "Decaf";
  }
  return "?";
}

std::string_view to_string(AppSel app) {
  switch (app) {
    case AppSel::kLammps:
      return "LAMMPS+MSD";
    case AppSel::kLaplace:
      return "Laplace+MTA";
    case AppSel::kSynthetic:
      return "Synthetic";
  }
  return "?";
}

std::string RunResult::failure_summary() const {
  if (ok) return "ok";
  if (failures.empty()) return "failed (hang)";
  return failures.front();
}

namespace {

bool is_dataspaces(MethodSel m) {
  return m == MethodSel::kDataspacesAdios || m == MethodSel::kDataspacesNative;
}
bool is_dimes(MethodSel m) {
  return m == MethodSel::kDimesAdios || m == MethodSel::kDimesNative;
}
bool via_adios(MethodSel m) {
  return m == MethodSel::kMpiIo || m == MethodSel::kDataspacesAdios ||
         m == MethodSel::kDimesAdios || m == MethodSel::kFlexpath;
}

// Trace chunk label: enough to tell runs apart in a sweep's shared sink.
std::string run_label(const Spec& spec) {
  return std::string(to_string(spec.app)) + " " +
         std::string(to_string(spec.method)) + " " + spec.machine.name + " " +
         std::to_string(spec.nsim) + "x" + std::to_string(spec.nana);
}

// Unified per-rank writer application.
struct WriterApp {
  AppSel kind;
  std::unique_ptr<apps::LammpsSim> lammps;
  std::unique_ptr<apps::LaplaceSim> laplace;
  std::unique_ptr<apps::SyntheticWriter> synthetic;

  nda::VarDesc desc(int version) const {
    switch (kind) {
      case AppSel::kLammps:
        return lammps->output_desc(version);
      case AppSel::kLaplace:
        return laplace->output_desc(version);
      case AppSel::kSynthetic:
        return synthetic->output_desc(version);
    }
    return {};
  }
  nda::Slab output(int version) const {
    switch (kind) {
      case AppSel::kLammps:
        return lammps->output(version);
      case AppSel::kLaplace:
        return laplace->output(version);
      case AppSel::kSynthetic:
        return synthetic->output(version);
    }
    return {};
  }
  double titan_step_seconds() const {
    switch (kind) {
      case AppSel::kLammps:
        return lammps->titan_seconds_per_step();
      case AppSel::kLaplace:
        return laplace->titan_seconds_per_step();
      case AppSel::kSynthetic:
        return 0.2;  // the synthetic writer sleeps briefly between outputs
    }
    return 0;
  }
  std::uint64_t state_bytes() const {
    switch (kind) {
      case AppSel::kLammps:
        return lammps->state_bytes();
      case AppSel::kLaplace:
        return laplace->state_bytes();
      case AppSel::kSynthetic:
        return 16 * kMiB;
    }
    return 0;
  }
  void advance(bool run_kernel) {
    if (!run_kernel) return;
    if (kind == AppSel::kLammps) lammps->advance();
    if (kind == AppSel::kLaplace) laplace->advance();
  }
};

apps::LaplaceSim::Params laplace_params(const Spec& spec, int rank,
                                        bool run_kernel) {
  apps::LaplaceSim::Params p;
  p.rank = rank;
  p.nprocs = spec.nsim;
  p.rows = spec.laplace_rows;
  p.cols_per_proc = spec.laplace_cols_per_proc;
  p.kernel_n = run_kernel ? 48 : 8;
  return p;
}

// `laplace_kernel` is the world's shared Laplace kernel (Ctx), if any.
WriterApp make_writer(
    const Spec& spec, int rank, bool run_kernel,
    std::shared_ptr<apps::LaplaceKernel> laplace_kernel = nullptr) {
  WriterApp app;
  app.kind = spec.app;
  switch (spec.app) {
    case AppSel::kLammps: {
      apps::LammpsSim::Params p;
      p.rank = rank;
      p.nprocs = spec.nsim;
      p.atoms_per_proc = spec.lammps_atoms_per_proc;
      p.kernel_atoms = run_kernel ? 256 : 4;
      app.lammps = std::make_unique<apps::LammpsSim>(p);
      break;
    }
    case AppSel::kLaplace:
      app.laplace = std::make_unique<apps::LaplaceSim>(
          laplace_params(spec, rank, run_kernel), std::move(laplace_kernel));
      break;
    case AppSel::kSynthetic: {
      apps::SyntheticWriter::Params p;
      p.rank = rank;
      p.nprocs = spec.nsim;
      p.match_staging_layout = spec.synthetic_match_layout;
      p.elements_per_proc = spec.synthetic_elements_per_proc;
      app.synthetic = std::make_unique<apps::SyntheticWriter>(p);
      break;
    }
  }
  return app;
}

}  // namespace

nda::VarDesc global_desc(const Spec& spec, int version) {
  return make_writer(spec, 0, false).desc(version);
}

nda::Box reader_box(const Spec& spec, int a) {
  const nda::Dims global = global_desc(spec, 0).global;
  const std::size_t dim =
      spec.app == AppSel::kSynthetic && spec.synthetic_match_layout ? 2 : 1;
  // decompose_1d's block `a`: the first extent % nana blocks are one longer.
  const auto parts = static_cast<std::uint64_t>(spec.nana);
  const auto index = static_cast<std::uint64_t>(a);
  const std::uint64_t base = global[dim] / parts;
  const std::uint64_t rem = global[dim] % parts;
  nda::Box box = nda::Box::whole(global);
  box.lb[dim] = index * base + std::min(index, rem);
  box.ub[dim] = box.lb[dim] + base + (index < rem ? 1 : 0);
  return box;
}

namespace {

// Everything one run needs, owned for the run's duration.
struct Ctx {
  explicit Ctx(const Spec& s)
      : spec(s), engine(s.schedule), cluster(s.machine),
        fabric(engine, s.machine) {}

  const Spec& spec;
  sim::Engine engine;
  hpc::Cluster cluster;
  net::Fabric fabric;
  std::unique_ptr<net::DrcService> drc;
  std::unique_ptr<net::Transport> transport;
  std::unique_ptr<lustre::FileSystem> fs;
  std::unique_ptr<dataspaces::DataSpaces> ds;
  std::unique_ptr<dimes::Dimes> dimes;
  std::unique_ptr<flexpath::Flexpath> flexpath;
  adios::AdiosConfig adios_config;

  std::unique_ptr<mpi::Comm> sim_comm;
  std::unique_ptr<mpi::Comm> world;  // Decaf
  std::unique_ptr<decaf::Dataflow> dflow;
  std::vector<std::unique_ptr<mem::ProcessMemory>> world_mem;  // Decaf

  std::vector<int> sim_nodes;  // node id per sim rank
  std::vector<int> ana_nodes;
  std::vector<std::unique_ptr<mem::ProcessMemory>> sim_mem, ana_mem;

  std::vector<double> sim_compute, sim_staging, sim_done;
  std::vector<double> sim_gpu_copy;
  std::vector<double> ana_compute, ana_staging, ana_done;
  std::vector<std::string> failures;
  double analysis_sample = 0;

  int sim_finished_count = 0;
  std::unique_ptr<sim::Event> sim_finished;
  int ana_finished_count = 0;
  std::unique_ptr<sim::Event> ana_finished;
  int writers_open = 0;
  std::unique_ptr<sim::Event> writers_ready;

  // Failure-message names of the ranks and of a failed open. Decaf's have
  // always followed its dataflow graph, and its open is a pool charge.
  struct Names {
    const char* writer = "sim rank";
    const char* reader = "analytics rank";
    const char* open = " init";
  } names;

  bool run_kernel = false;
  // Per-world memos (DESIGN.md §9 rule 2): the analytics' sample plans, and
  // the one kernel every Laplace writer rank steps.
  apps::SamplePlans sample_plans;
  std::shared_ptr<apps::LaplaceKernel> laplace_kernel;

  net::Endpoint sim_ep(int r) {
    return net::Endpoint{1000 + r, /*job=*/0,
                         &cluster.node(sim_nodes[static_cast<std::size_t>(r)])};
  }
  net::Endpoint ana_ep(int a) {
    return net::Endpoint{100000 + a, /*job=*/1,
                         &cluster.node(ana_nodes[static_cast<std::size_t>(a)])};
  }

  void fail(std::string what) { failures.push_back(std::move(what)); }
};

int default_servers(const Spec& spec) {
  if (spec.num_servers > 0) return spec.num_servers;
  if (is_dataspaces(spec.method)) return std::max(1, spec.nana / 8);
  if (is_dimes(spec.method)) return 4;
  if (spec.method == MethodSel::kDecaf) return spec.nana;
  return 0;
}

net::TransportKind resolve_transport(const Spec& spec) {
  switch (spec.transport) {
    case Spec::Transport::kSockets:
      return net::TransportKind::kSockets;
    case Spec::Transport::kSharedMemory:
      return net::TransportKind::kSharedMemory;
    case Spec::Transport::kRdma:
      return spec.method == MethodSel::kFlexpath
                 ? net::TransportKind::kRdmaNnti
                 : net::TransportKind::kRdmaUgni;
    case Spec::Transport::kDefault:
      break;
  }
  if (spec.method == MethodSel::kFlexpath) return net::TransportKind::kRdmaNnti;
  return net::TransportKind::kRdmaUgni;
}

// The rank's step client: the method's own, decorated by ADIOS when the
// method runs through it.
std::unique_ptr<staging::Client> make_client(Ctx& ctx, staging::Role role,
                                             int index,
                                             const net::Endpoint& self,
                                             mem::ProcessMemory& memory) {
  const Spec& spec = ctx.spec;
  const std::string group(to_string(spec.app));
  std::unique_ptr<staging::Client> client;
  if (ctx.ds) {
    client = std::make_unique<staging::VersionedClient<dataspaces::DataSpaces>>(
        *ctx.ds, self, memory);
  } else if (ctx.dimes) {
    client = std::make_unique<staging::VersionedClient<dimes::Dimes>>(
        *ctx.dimes, self, memory);
  } else if (ctx.flexpath) {
    client = std::make_unique<staging::FlexpathClient>(*ctx.flexpath, self,
                                                       memory, role, group);
  } else if (ctx.dflow) {
    client = std::make_unique<staging::DecafClient>(*ctx.dflow, memory, role,
                                                    index, spec.steps);
  } else {
    client = std::make_unique<adios::MpiIoClient>(
        *ctx.fs, *self.node, role, "/scratch/" + group + ".bp");
  }
  if (!via_adios(spec.method)) return client;
  return std::make_unique<adios::Io>(ctx.engine, ctx.adios_config,
                                     std::move(client), memory,
                                     spec.machine.cpu_speed);
}

// ---------------------------------------------------------------------------
// Simulation rank: compute, then stage each step's output.
// ---------------------------------------------------------------------------

sim::Task<> writer_rank(Ctx& ctx, int r) {
  const Spec& spec = ctx.spec;
  mem::ProcessMemory& memory = *ctx.sim_mem[static_cast<std::size_t>(r)];
  auto name = [&] { return std::string(ctx.names.writer) + " " +
                          std::to_string(r); };
  WriterApp app =
      make_writer(spec, r, ctx.run_kernel, ctx.laplace_kernel);

  Status state_status;
  mem::ScopedAlloc state(memory, mem::Tag::kCalculation, app.state_bytes(),
                         &state_status);
  if (!state_status.is_ok()) {
    ctx.fail(name() + ": " + state_status.to_string());
    co_return;
  }

  const net::Endpoint self = ctx.sim_ep(r);
  std::unique_ptr<staging::Client> client =
      make_client(ctx, staging::Role::kWriter, r, self, memory);
  const staging::Coupling coupling = client->coupling();
  if (Status st = co_await client->open(); !st.is_ok()) {
    ctx.fail(name() + ctx.names.open + ": " + st.to_string());
    co_return;
  }
  if (++ctx.writers_open == spec.nsim) ctx.writers_ready->set();
  if (coupling.step_barrier) co_await ctx.sim_comm->barrier(r);

  auto& staging_s = ctx.sim_staging[static_cast<std::size_t>(r)];
  auto& compute_s = ctx.sim_compute[static_cast<std::size_t>(r)];
  const trace::Track track{self.node->id(), self.pid};
  for (int step = 0; step < spec.steps; ++step) {
    // Compute phase: the real micro-kernel plus the calibrated cost.
    // Straggler ranks (fault plan) compute slower by the planned factor.
    app.advance(ctx.run_kernel);
    double dt = spec.compute_scale *
                spec.machine.relative_compute_time(app.titan_step_seconds());
    if (fault::Injector* injector = fault::active()) {
      dt *= injector->straggler_factor(r);
    }
    {
      TRACE_SPAN("sim.compute", track.node, track.tid);
      co_await ctx.engine.sleep(dt);
    }
    compute_s += dt;

    // Output phase. GPU-resident data crosses PCIe first (§IV-B): none of
    // the staging libraries, Decaf's Bredala included, reads device memory,
    // so the rank stages through a host bounce buffer — unless GPUDirect is
    // modeled.
    const nda::VarDesc var = app.desc(step);
    const nda::Slab slab = app.output(step);
    if (spec.gpu_resident_output && !spec.use_gpudirect) {
      const std::uint64_t out_bytes = slab.box().volume() * nda::kElementBytes;
      Status bounce_status;
      mem::ScopedAlloc bounce(memory, mem::Tag::kLibrary, out_bytes,
                              &bounce_status);
      if (!bounce_status.is_ok()) {
        ctx.fail(name() + " D2H bounce: " + bounce_status.to_string());
        co_return;
      }
      const double copy = static_cast<double>(out_bytes) /
                          spec.machine.gpu_copy_bandwidth;
      co_await ctx.engine.sleep(copy);
      ctx.sim_gpu_copy[static_cast<std::size_t>(r)] += copy;
    }
    const double t0 = ctx.engine.now();
    trace::Span staging_span = trace::span("sim.staging", track);
    staging_span.arg("step", step);
    if (Status st = co_await client->begin_step(step); !st.is_ok()) {
      ctx.fail(name() + " open: " + st.to_string());
      co_return;
    }
    Status st = co_await client->put(var, slab);
    if (st.is_ok()) st = co_await client->end_step(step);
    staging_span.end();
    staging_s += ctx.engine.now() - t0;
    if (!st.is_ok()) {
      ctx.fail(name() + " step " + std::to_string(step) + ": " +
               st.to_string());
      co_return;
    }

    // Commit: all ranks' puts complete, then the root publishes.
    if (coupling.step_barrier) co_await ctx.sim_comm->barrier(r);
    if (coupling.step_barrier && r == 0) {
      if (Status committed = co_await client->commit(var);
          !committed.is_ok()) {
        ctx.fail("commit step " + std::to_string(step) + ": " +
                 committed.to_string());
        co_return;
      }
    }
  }

  // A writer serving reads from its own memory finalizes after the readers;
  // every other one before it reports done (a Decaf producer announces the
  // end of its stream there).
  if (!coupling.writers_outlive_readers) co_await client->finalize();
  ctx.sim_done[static_cast<std::size_t>(r)] = ctx.engine.now();
  if (++ctx.sim_finished_count == spec.nsim) ctx.sim_finished->set();
  if (coupling.writers_outlive_readers) {
    co_await ctx.ana_finished->wait();
    co_await client->finalize();
  }
}

// ---------------------------------------------------------------------------
// Analytics rank: fetch each step's box, then analyze it.
// ---------------------------------------------------------------------------

sim::Task<> reader_rank(Ctx& ctx, int a) {
  const Spec& spec = ctx.spec;
  mem::ProcessMemory& memory = *ctx.ana_mem[static_cast<std::size_t>(a)];
  auto name = [&] { return std::string(ctx.names.reader) + " " +
                          std::to_string(a); };
  const nda::Box my_box = reader_box(spec, a);
  const std::uint64_t box_bytes = my_box.volume() * nda::kElementBytes;

  // Analysis state: the fetched slab plus (for MSD) the reference step.
  Status state_status;
  mem::ScopedAlloc state(memory, mem::Tag::kCalculation, 2 * box_bytes,
                         &state_status);
  if (!state_status.is_ok()) {
    ctx.fail(name() + ": " + state_status.to_string());
    co_return;
  }

  const net::Endpoint self = ctx.ana_ep(a);
  std::unique_ptr<staging::Client> client =
      make_client(ctx, staging::Role::kReader, a, self, memory);
  const staging::Coupling coupling = client->coupling();
  if (coupling.readers_open_after_writers) co_await ctx.writers_ready->wait();
  if (coupling.readers_after_writers) co_await ctx.sim_finished->wait();
  if (Status st = co_await client->open(); !st.is_ok()) {
    ctx.fail(name() + ctx.names.open + ": " + st.to_string());
    co_return;
  }

  auto& staging_s = ctx.ana_staging[static_cast<std::size_t>(a)];
  auto& compute_s = ctx.ana_compute[static_cast<std::size_t>(a)];
  const trace::Track track{self.node->id(), self.pid};
  nda::Slab reference;
  for (int step = 0; step < spec.steps; ++step) {
    const nda::VarDesc var = global_desc(spec, step);
    const double t0 = ctx.engine.now();
    trace::Span staging_span = trace::span("ana.staging", track);
    staging_span.arg("step", step);
    if (Status st = co_await client->begin_step(step); !st.is_ok()) {
      ctx.fail("analytics open: " + st.to_string());
      co_return;
    }
    Result<nda::Slab> got = co_await client->get(var, my_box);
    staging_span.end();
    staging_s += ctx.engine.now() - t0;
    if (!got.has_value()) {
      ctx.fail(name() + " step " + std::to_string(step) + ": " +
               got.status().to_string());
      co_return;
    }

    // Analysis: real math over the (possibly sampled) content, plus the
    // calibrated compute cost.
    double titan_seconds = 0.05;
    if (spec.app == AppSel::kLammps) {
      if (step == 0) reference = *got;
      const double msd = apps::mean_squared_displacement(reference, *got, 512,
                                                         ctx.sample_plans);
      if (a == 0) ctx.analysis_sample = msd;  // rank 0's value: deterministic
      titan_seconds = apps::msd_titan_seconds_per_step(box_bytes);
    } else if (spec.app == AppSel::kLaplace) {
      auto moments =
          apps::moment_analysis(*got, 4, 2048, ctx.sample_plans);
      if (a == 0) ctx.analysis_sample = moments.empty() ? 0 : moments[0];
      titan_seconds = apps::mta_titan_seconds_per_step(box_bytes);
    }
    const double dt =
        spec.compute_scale * spec.machine.relative_compute_time(titan_seconds);
    {
      TRACE_SPAN("ana.compute", track.node, track.tid);
      co_await ctx.engine.sleep(dt);
    }
    compute_s += dt;

    if (Status st = co_await client->end_step(step); !st.is_ok()) {
      ctx.fail("advance_step: " + st.to_string());
      co_return;
    }
  }

  co_await client->finalize();
  ctx.ana_done[static_cast<std::size_t>(a)] = ctx.engine.now();
  if (++ctx.ana_finished_count == spec.nana) ctx.ana_finished->set();
}

}  // namespace

// ---------------------------------------------------------------------------

RunResult run(const Spec& spec) {
  // Bound before Ctx: the world's leak ledger and frame arena, the sweep
  // job's (sweep::WorldContext) when bound, else run-local ones that
  // outlive Ctx. The reset makes each run, the MPI-IO fallback replay
  // included, report only its own leaks (RunResult::leaks).
  std::optional<audit::Auditor> own_auditor;
  std::optional<arena::Arena> own_arena;
  World run_world = world();
  if (!run_world.auditor) run_world.auditor = &own_auditor.emplace();
  if (!run_world.arena) run_world.arena = &own_arena.emplace();
  run_world.auditor->reset();
  BindWorld bind_world(run_world);
  RunResult result;
  Ctx ctx(spec);
  // Bound after Ctx, until finish_trace: a fault injector and a replication
  // coordinator when the spec asks for them (a fault plan binds both, so
  // unreplicated chaos runs report zeroed durability stats), and a
  // recorder on ctx.engine's simulated clock when a trace sink is
  // installed (IMC_TRACE=<path> or a test sink).
  std::optional<fault::Injector> injector;
  std::optional<repl::Coordinator> repl_coordinator;
  std::optional<trace::Recorder> recorder;
  World ctx_world = world();
  if (spec.fault.any()) ctx_world.fault = &injector.emplace(spec.fault);
  if (spec.repl.replicated() || spec.fault.any()) {
    ctx_world.repl = &repl_coordinator.emplace(spec.repl);
  }
  if (trace::enabled()) {
    ctx_world.recorder = &recorder.emplace(ctx.engine, run_label(spec),
                                           trace::event_limit());
  }
  std::optional<BindWorld> bind_ctx(std::in_place, ctx_world);
  // Phase skeleton: deploy -> run -> teardown, pinned so truncation never
  // drops them. Inert (zero-cost beyond a null check) when tracing is off.
  std::optional<trace::Span> phase;
  phase.emplace(trace::span("workflow.deploy", trace::Track{}));
  phase->pin();
  // Unbinds the injector, coordinator and recorder and folds this run's
  // events into a chunk for the sink; called once on every exit path.
  auto finish_trace = [&result, &recorder, &bind_ctx, &phase] {
    phase.reset();
    bind_ctx.reset();
    if (!recorder) return;
    trace::RunChunk chunk = recorder->take_chunk();
    result.trace_digest = chunk.digest;
    trace::emit_chunk(std::move(chunk));
  };
  if (spec.record_schedule_trace) ctx.engine.record_trace(1u << 18);
  ctx.run_kernel = spec.nsim <= 64;
  if (spec.app == AppSel::kLaplace) {
    ctx.laplace_kernel = std::make_shared<apps::LaplaceKernel>(
        laplace_params(spec, 0, ctx.run_kernel));
  }
  ctx.sim_finished = std::make_unique<sim::Event>(ctx.engine);
  ctx.ana_finished = std::make_unique<sim::Event>(ctx.engine);
  ctx.writers_ready = std::make_unique<sim::Event>(ctx.engine);

  // Policy gates the paper hit before anything ran (§III-B7).
  if (spec.shared_node_mode && !spec.machine.allows_node_sharing) {
    result.failures.push_back(spec.machine.name +
                              " does not allow two executables per node");
    finish_trace();
    return result;
  }
  if (spec.shared_node_mode && spec.method == MethodSel::kDecaf &&
      !spec.machine.supports_heterogeneous) {
    result.failures.push_back(
        "Decaf needs heterogeneous MPI launch, unsupported on " +
        spec.machine.name);
    finish_trace();
    return result;
  }
  if (spec.gpu_resident_output && spec.machine.gpu_memory_per_node == 0) {
    result.failures.push_back(spec.machine.name + " has no GPUs");
    finish_trace();
    return result;
  }

  // Transports and services.
  const net::TransportKind kind = resolve_transport(spec);
  const bool uses_rdma = kind == net::TransportKind::kRdmaUgni ||
                         kind == net::TransportKind::kRdmaNnti;
  if (spec.machine.requires_drc && uses_rdma) {
    ctx.drc = std::make_unique<net::DrcService>(ctx.engine, spec.machine,
                                                spec.drc_metered);
  }
  switch (kind) {
    case net::TransportKind::kRdmaUgni:
    case net::TransportKind::kRdmaNnti:
      ctx.transport = std::make_unique<net::RdmaTransport>(
          ctx.engine, ctx.fabric, kind, ctx.drc.get());
      break;
    case net::TransportKind::kSockets:
      ctx.transport = std::make_unique<net::SocketTransport>(
          ctx.engine, ctx.fabric, spec.socket_pooling);
      break;
    case net::TransportKind::kSharedMemory:
      ctx.transport =
          std::make_unique<net::ShmTransport>(ctx.engine, spec.machine);
      break;
  }

  // Placement.
  const int ppn =
      spec.ranks_per_node > 0 ? spec.ranks_per_node : spec.machine.cores_per_node;
  ctx.sim_nodes = ctx.cluster.place_block(spec.nsim, ppn);
  if (spec.shared_node_mode) {
    std::vector<int> shared_set(ctx.sim_nodes.begin(), ctx.sim_nodes.end());
    shared_set.erase(std::unique(shared_set.begin(), shared_set.end()),
                     shared_set.end());
    ctx.ana_nodes = ctx.cluster.place_onto(shared_set, spec.nana);
  } else {
    ctx.ana_nodes = ctx.cluster.place_block(spec.nana, ppn);
  }

  for (int r = 0; r < spec.nsim; ++r) {
    ctx.sim_mem.push_back(std::make_unique<mem::ProcessMemory>(
        ctx.engine, "sim-" + std::to_string(r),
        &ctx.cluster.node(ctx.sim_nodes[static_cast<std::size_t>(r)]).memory()));
  }
  for (int a = 0; a < spec.nana; ++a) {
    ctx.ana_mem.push_back(std::make_unique<mem::ProcessMemory>(
        ctx.engine, "ana-" + std::to_string(a),
        &ctx.cluster.node(ctx.ana_nodes[static_cast<std::size_t>(a)]).memory()));
  }
  ctx.sim_compute.assign(static_cast<std::size_t>(spec.nsim), 0);
  ctx.sim_staging.assign(static_cast<std::size_t>(spec.nsim), 0);
  ctx.sim_gpu_copy.assign(static_cast<std::size_t>(spec.nsim), 0);
  ctx.sim_done.assign(static_cast<std::size_t>(spec.nsim), -1);
  ctx.ana_compute.assign(static_cast<std::size_t>(spec.nana), 0);
  ctx.ana_staging.assign(static_cast<std::size_t>(spec.nana), 0);
  ctx.ana_done.assign(static_cast<std::size_t>(spec.nana), -1);

  // Deploy the selected method's infrastructure. In shared-node mode the
  // staging servers are colocated with the simulation (the whole point of
  // §III-B7: the I/O path shortens to node-local copies).
  const int servers = default_servers(spec);
  result.servers_used = servers;
  std::vector<int> sim_node_set(ctx.sim_nodes.begin(), ctx.sim_nodes.end());
  sim_node_set.erase(std::unique(sim_node_set.begin(), sim_node_set.end()),
                     sim_node_set.end());
  auto staging_nodes = [&] {
    if (spec.shared_node_mode) return sim_node_set;
    return ctx.cluster.allocate_nodes(
        (servers + spec.servers_per_node - 1) / spec.servers_per_node);
  };
  Status deployed = Status::ok();
  if (spec.method == MethodSel::kMpiIo) {
    ctx.fs = std::make_unique<lustre::FileSystem>(ctx.engine, ctx.fabric,
                                                  spec.machine);
  } else if (is_dataspaces(spec.method)) {
    dataspaces::Config c;
    c.num_servers = servers;
    c.servers_per_node = spec.servers_per_node;
    c.use_32bit_dims = spec.use_32bit_dims;
    c.wait_retry_registration = spec.rdma_wait_retry;
    ctx.ds = std::make_unique<dataspaces::DataSpaces>(ctx.engine, ctx.cluster,
                                                      *ctx.transport, c);
    deployed = ctx.ds->deploy(staging_nodes());
  } else if (is_dimes(spec.method)) {
    dimes::Config c;
    c.num_servers = servers;
    c.servers_per_node = spec.servers_per_node;
    c.use_32bit_dims = spec.use_32bit_dims;
    // Table I: the native build doubles the DIMES RDMA buffer.
    c.rdma_buffer_bytes = spec.method == MethodSel::kDimesNative
                              ? 2048 * kMiB
                              : 1024 * kMiB;
    ctx.dimes = std::make_unique<dimes::Dimes>(ctx.engine, ctx.cluster,
                                               *ctx.transport, c);
    deployed = ctx.dimes->deploy(staging_nodes());
  } else if (spec.method == MethodSel::kFlexpath) {
    flexpath::Config c;
    c.queue_size = spec.flexpath_queue_size;
    c.cpu_speed = spec.machine.cpu_speed;
    c.num_readers = spec.nana;
    ctx.flexpath = std::make_unique<flexpath::Flexpath>(
        ctx.engine, ctx.cluster, *ctx.transport, c);
  } else {
    // One world communicator: producers, dataflow ranks, consumers.
    std::vector<int> placement = ctx.sim_nodes;
    auto dflow_nodes = ctx.cluster.place_block(servers, ppn);
    placement.insert(placement.end(), dflow_nodes.begin(), dflow_nodes.end());
    placement.insert(placement.end(), ctx.ana_nodes.begin(),
                     ctx.ana_nodes.end());
    ctx.world = std::make_unique<mpi::Comm>(ctx.engine, ctx.fabric,
                                            ctx.cluster, placement);
    std::vector<mem::ProcessMemory*> rank_memory;
    for (const auto& m : ctx.sim_mem) rank_memory.push_back(m.get());
    for (int d = 0; d < servers; ++d) {
      ctx.world_mem.push_back(std::make_unique<mem::ProcessMemory>(
          ctx.engine, "dflow-" + std::to_string(d),
          &ctx.cluster.node(dflow_nodes[static_cast<std::size_t>(d)]).memory()));
      rank_memory.push_back(ctx.world_mem.back().get());
    }
    for (const auto& m : ctx.ana_mem) rank_memory.push_back(m.get());
    decaf::Config dc;
    dc.cpu_speed = spec.machine.cpu_speed;
    ctx.dflow = std::make_unique<decaf::Dataflow>(
        ctx.engine, *ctx.world, 0, spec.nsim, spec.nsim, servers,
        spec.nsim + servers, spec.nana, dc, rank_memory);
    ctx.names = {"decaf producer", "decaf consumer", ""};
  }
  if (!deployed.is_ok()) {
    result.failures.push_back("deploy: " + deployed.to_string());
    finish_trace();
    return result;
  }

  if (via_adios(spec.method)) {
    ctx.adios_config.stats = spec.method != MethodSel::kMpiIo;  // Table I
    // Size the ADIOS buffer to the per-rank output plus headroom.
    const std::uint64_t per_rank = global_desc(spec, 0).total_bytes() /
                                   static_cast<std::uint64_t>(spec.nsim);
    ctx.adios_config.buffer_bytes = 2 * per_rank + 4 * kMiB;
  }

  // Spawn the processes. The writers share a communicator for their step
  // barriers and commits, except Decaf's, which its dataflow couples.
  if (!ctx.dflow) {
    ctx.sim_comm = std::make_unique<mpi::Comm>(ctx.engine, ctx.fabric,
                                               ctx.cluster, ctx.sim_nodes,
                                               /*job=*/0, /*pid_base=*/1000);
  }
  for (int r = 0; r < spec.nsim; ++r) ctx.engine.spawn(writer_rank(ctx, r));
  for (int d = 0; ctx.dflow && d < servers; ++d) {
    ctx.engine.spawn(ctx.dflow->dflow_loop(d));
  }
  for (int a = 0; a < spec.nana; ++a) ctx.engine.spawn(reader_rank(ctx, a));

  phase.emplace(trace::span("workflow.run", trace::Track{}));
  phase->pin();
  {
    // Wall-clock cost of the whole event loop, attributed to the sweep
    // worker's prof lane (inert when no Meter is bound — direct calls from
    // tests, or profiling off). Simulated metrics above stay on
    // ctx.engine.now(); this timer is the bridge between the two worlds
    // the scaling investigation needs: virtual work per real second.
    PROF_TIMER("engine.run");
    ctx.engine.run();
  }

  // Assemble the result.
  result.failures = ctx.failures;
  for (const auto& f : ctx.engine.process_failures()) {
    result.failures.push_back(f);
  }
  bool all_done = true;
  for (double t : ctx.sim_done) all_done = all_done && t >= 0;
  for (double t : ctx.ana_done) all_done = all_done && t >= 0;
  if (!all_done && result.failures.empty()) {
    result.failures.push_back("workflow hung (blocked processes remain)");
  }
  result.ok = result.failures.empty();

  for (double t : ctx.sim_done) result.sim_span = std::max(result.sim_span, t);
  for (double t : ctx.ana_done) result.ana_span = std::max(result.ana_span, t);
  result.end_to_end = std::max(result.sim_span, result.ana_span);
  if (!result.ok && result.end_to_end == 0) {
    result.end_to_end = ctx.engine.now();
  }

  auto average = [](const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double total = 0;
    for (double x : v) total += x;
    return total / static_cast<double>(v.size());
  };
  result.sim_compute = average(ctx.sim_compute);
  result.sim_staging = average(ctx.sim_staging);
  result.ana_compute = average(ctx.ana_compute);
  result.ana_staging = average(ctx.ana_staging);
  result.sample_analysis_value = ctx.analysis_sample;
  result.gpu_copy_time = average(ctx.sim_gpu_copy);

  for (const auto& m : ctx.sim_mem) {
    result.sim_rank_peak = std::max(result.sim_rank_peak, m->peak());
  }
  for (const auto& m : ctx.ana_mem) {
    result.ana_rank_peak = std::max(result.ana_rank_peak, m->peak());
  }
  // Staging servers and Decaf dataflow ranks, server 0 first.
  std::vector<mem::ProcessMemory*> server_mem;
  for (int s = 0; ctx.ds && s < ctx.ds->num_servers(); ++s) {
    server_mem.push_back(&ctx.ds->server_memory(s));
  }
  for (int s = 0; ctx.dimes && s < ctx.dimes->num_servers(); ++s) {
    server_mem.push_back(&ctx.dimes->server_memory(s));
  }
  for (const auto& m : ctx.world_mem) server_mem.push_back(m.get());
  for (const mem::ProcessMemory* m : server_mem) {
    result.server_peak = std::max(result.server_peak, m->peak());
    for (int t = 0; t < mem::kTagCount; ++t) {
      result.server_tag_peaks[static_cast<std::size_t>(t)] = std::max(
          result.server_tag_peaks[static_cast<std::size_t>(t)],
          m->peak_of(static_cast<mem::Tag>(t)));
    }
  }

  if (spec.capture_timelines) {
    if (!ctx.sim_mem.empty()) result.sim_timeline = ctx.sim_mem[0]->timeline();
    if (!ctx.ana_mem.empty()) result.ana_timeline = ctx.ana_mem[0]->timeline();
    if (!server_mem.empty()) result.server_timeline = server_mem[0]->timeline();
  }

  for (int n = 0; n < ctx.cluster.node_count(); ++n) {
    auto& node = ctx.cluster.node(n);
    result.rdma_peak_bytes =
        std::max(result.rdma_peak_bytes, node.rdma().peak_bytes());
    result.rdma_peak_handlers =
        std::max(result.rdma_peak_handlers, node.rdma().peak_handlers());
    result.socket_peak = std::max(result.socket_peak, node.sockets().peak());
  }

  phase.emplace(trace::span("workflow.teardown", trace::Track{}));
  phase->pin();
  {
    PROF_TIMER("engine.teardown");
    if (ctx.ds) ctx.ds->shutdown();
    if (ctx.dimes) ctx.dimes->shutdown();
    ctx.engine.run();  // drain the server shutdowns
    // Destroy any processes still parked on a failure path before the Ctx
    // members they reference go away. Frame unwinding releases their RAII
    // resources, so this must run before the leak ledger is read.
    ctx.engine.reap_processes();
  }

  // Correctness tooling: the event-stream digest folded with the
  // per-library activity counters, and the auditor's leak report.
  std::uint64_t digest = ctx.engine.digest();
  digest = splitmix64(digest ^ ctx.fabric.transfers_started());
  digest = splitmix64(
      digest ^ static_cast<std::uint64_t>(ctx.fabric.bytes_transferred()));
  if (ctx.transport) {
    digest = splitmix64(digest ^ ctx.transport->transfer_count());
  }
  result.run_digest = digest;
  result.events_processed = ctx.engine.events_processed();
  result.transfers = ctx.fabric.transfers_started();
  result.bytes_moved = ctx.fabric.bytes_transferred();
  if (spec.record_schedule_trace) result.schedule_trace = ctx.engine.trace();
  result.leaks = run_world.auditor->leaks();

  if (injector) {
    const fault::Stats& fs = injector->stats();
    static_cast<fault::Stats&>(result.fault) = fs;
    // Resource accounting: retries are real wall-clock work the harness
    // repeats, so the prof lane tallies them next to its timers. Digest-
    // excluded like everything prof records.
    prof::count("fault.injected", static_cast<double>(fs.injected));
    prof::count("fault.retries", static_cast<double>(fs.retries));
  }

  if (repl_coordinator) {
    const repl::Stats& rs = repl_coordinator->stats();
    static_cast<repl::Stats&>(result.repl) = rs;
    result.repl.factor = spec.repl.factor;
    // Resource accounting: replica and resilver traffic is real extra work
    // the durability policy buys; the prof lanes tally it next to the fault
    // layer's. Digest-excluded like everything prof records.
    prof::count("repl.replica_bytes", static_cast<double>(rs.replica_bytes));
    prof::count("repl.resilver_bytes",
                static_cast<double>(rs.resilver_bytes));
    prof::count("repl.degraded_gets", static_cast<double>(rs.degraded_gets));
  }

  // Graceful degradation (Spec::fallback): the staging method reported an
  // unrecoverable failure mid-run, so replay the whole workflow through the
  // MPI-IO file path — every step, so the analysis output matches what a
  // fault-free run computes. The primary's typed failures are preserved in
  // recovered_failures; end_to_end covers both attempts.
  if (!result.ok && injector && spec.fallback.to_mpi_io &&
      spec.method != MethodSel::kMpiIo) {
    result.fault.fallback_activated = true;
    result.fault.time_to_recover = ctx.engine.now();
    trace::count("fault.fallback");
    Spec fb = spec;
    fb.method = MethodSel::kMpiIo;
    fb.fault = fault::Plan{};
    fb.fallback.to_mpi_io = false;
    fb.repl = repl::Policy{};
    ctx_world.fault = nullptr;  // the replay runs fault-free
    ctx_world.repl = nullptr;   // ... and unreplicated
    bind_ctx.emplace(ctx_world);
    RunResult replay = run(fb);
    result.recovered_failures = std::move(result.failures);
    result.failures = replay.failures;
    result.ok = replay.ok;
    result.end_to_end += replay.end_to_end;
    result.sample_analysis_value = replay.sample_analysis_value;
    result.run_digest = splitmix64(result.run_digest ^ replay.run_digest);
    for (const auto& leak : replay.leaks) result.leaks.push_back(leak);
    finish_trace();
    result.trace_digest =
        splitmix64(result.trace_digest ^ replay.trace_digest);
    return result;
  }

  finish_trace();
  return result;
}

}  // namespace imc::workflow

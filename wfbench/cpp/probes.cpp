#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/analysis.h"
#include "apps/apps.h"
#include "common/rng.h"
#include "dataspaces/dataspaces.h"
#include "decaf/decaf.h"
#include "dimes/dimes.h"
#include "flexpath/flexpath.h"
#include "hpc/cluster.h"
#include "mpi/comm.h"
#include "ndarray/index.h"
#include "ndarray/ndarray.h"
#include "net/drc.h"
#include "net/fabric.h"
#include "sim/engine.h"
#include "sim/sync.h"

namespace wfbench {

namespace nda = imc::nda;
namespace sim = imc::sim;
using imc::workflow::AppSel;
using imc::workflow::MethodSel;
using imc::workflow::RunResult;
using imc::workflow::Spec;

namespace {

// Probes time real work around simulated worlds, never inside one.
// imc-analyze: allow(wall-clock)
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kMB = 1024.0 * 1024.0;
// The ADIOS MPI-IO read path assembles readers up to this many elements;
// the literal lives in adios::Io::read, so it is mirrored here.
constexpr std::uint64_t kAdiosMpiReadCapElems = 1ull << 22;
// Sample counts the harness passes to the analytics.
constexpr int kMsdSamples = 512;
constexpr int kMtaOrder = 4;
constexpr int kMtaSamples = 2048;
// Largest share of a run's fabric bytes that the putget replay leaves out:
// the writers' barrier and commit messages (measured below 0.2%).
constexpr double kControlBytesShare = 1e-2;

[[noreturn]] void drift(const Spec& spec, const std::string& what) {
  throw std::runtime_error("probe parity (" +
                           std::string(imc::workflow::to_string(spec.app)) +
                           " " +
                           std::string(imc::workflow::to_string(spec.method)) +
                           " " + std::to_string(spec.nsim) + "x" +
                           std::to_string(spec.nana) + "): " + what);
}

// One writer rank built the way workflow::run builds it.
struct Writer {
  std::unique_ptr<imc::apps::LammpsSim> lammps;
  std::unique_ptr<imc::apps::LaplaceSim> laplace;

  void advance(bool run_kernel) {
    if (!run_kernel) return;
    if (lammps) lammps->advance();
    if (laplace) laplace->advance();
  }
  nda::VarDesc desc(int version) const {
    return lammps ? lammps->output_desc(version) : laplace->output_desc(version);
  }
  nda::Slab output(int version) const {
    return lammps ? lammps->output(version) : laplace->output(version);
  }
  double titan_step_seconds() const {
    return lammps ? lammps->titan_seconds_per_step()
                  : laplace->titan_seconds_per_step();
  }
};

Writer make_writer(const Spec& spec, int rank, bool run_kernel) {
  Writer w;
  if (spec.app == AppSel::kLammps) {
    imc::apps::LammpsSim::Params p;
    p.rank = rank;
    p.nprocs = spec.nsim;
    p.atoms_per_proc = spec.lammps_atoms_per_proc;
    p.kernel_atoms = run_kernel ? 256 : 4;
    w.lammps = std::make_unique<imc::apps::LammpsSim>(p);
  } else if (spec.app == AppSel::kLaplace) {
    imc::apps::LaplaceSim::Params p;
    p.rank = rank;
    p.nprocs = spec.nsim;
    p.rows = spec.laplace_rows;
    p.cols_per_proc = spec.laplace_cols_per_proc;
    p.kernel_n = run_kernel ? 48 : 8;
    w.laplace = std::make_unique<imc::apps::LaplaceSim>(p);
  } else {
    throw std::runtime_error("probes cover the LAMMPS and Laplace workflows");
  }
  return w;
}

// Content identity of an output: the checksum of materialized content, or
// (box, seed) for a synthetic slab, whose content is a pure function of them.
std::uint64_t content_signature(const nda::Slab& slab) {
  std::uint64_t h = imc::splitmix64(slab.is_materialized() ? 1 : 2);
  if (slab.is_materialized()) {
    const double c = slab.checksum();
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(c));
    std::memcpy(&bits, &c, sizeof(bits));
    return imc::splitmix64(h ^ bits);
  }
  for (std::size_t d = 0; d < slab.box().lb.size(); ++d) {
    h = imc::splitmix64(h ^ slab.box().lb[d]);
    h = imc::splitmix64(h ^ slab.box().ub[d]);
  }
  return imc::splitmix64(h ^ slab.seed());
}

using Steps = std::vector<std::vector<nda::Slab>>;  // [step][writer rank]

// Simulated compute time between a rank's staging calls, as the harness
// charges it: it spaces the steps so a writer never evicts a version its
// readers still need.
struct Pacing {
  std::vector<double> writer_s;  // per writer rank, per step
  double reader_s = 0;           // per reader, per step
};

// ---------------------------------------------------------------------------
// Staging replays: nsim writers put and publish, nana readers wait and get,
// on a bare engine + cluster + fabric + transport.
// ---------------------------------------------------------------------------

struct Bare {
  Bare(const Spec& s, const Pacing& p)
      : spec(s), pacing(p), cluster(s.machine), fabric(engine, s.machine) {
    const auto kind = s.method == MethodSel::kFlexpath
                          ? imc::net::TransportKind::kRdmaNnti
                          : imc::net::TransportKind::kRdmaUgni;
    if (s.machine.requires_drc) {
      drc = std::make_unique<imc::net::DrcService>(engine, s.machine, false);
    }
    transport =
        std::make_unique<imc::net::RdmaTransport>(engine, fabric, kind, drc.get());
    const int ppn = s.machine.cores_per_node;
    sim_nodes = cluster.place_block(s.nsim, ppn);
    ana_nodes = cluster.place_block(s.nana, ppn);
    for (int r = 0; r < s.nsim; ++r) {
      sim_mem.push_back(std::make_unique<imc::mem::ProcessMemory>(
          engine, "sim-" + std::to_string(r),
          &cluster.node(sim_nodes[static_cast<std::size_t>(r)]).memory()));
    }
    for (int a = 0; a < s.nana; ++a) {
      ana_mem.push_back(std::make_unique<imc::mem::ProcessMemory>(
          engine, "ana-" + std::to_string(a),
          &cluster.node(ana_nodes[static_cast<std::size_t>(a)]).memory()));
    }
  }

  imc::net::Endpoint sim_ep(int r) {
    return imc::net::Endpoint{
        1000 + r, 0, &cluster.node(sim_nodes[static_cast<std::size_t>(r)])};
  }
  imc::net::Endpoint ana_ep(int a) {
    return imc::net::Endpoint{
        100000 + a, 1, &cluster.node(ana_nodes[static_cast<std::size_t>(a)])};
  }
  void check(const imc::Status& st, const std::string& where) {
    if (!st.is_ok()) failures.push_back(where + ": " + st.to_string());
  }
  void reader_done() {
    if (++readers_finished == spec.nana) readers_done->set();
  }

  sim::Task<> compute(int r) {
    co_await engine.sleep(pacing.writer_s[static_cast<std::size_t>(r)]);
  }
  sim::Task<> analyze() { co_await engine.sleep(pacing.reader_s); }

  const Spec& spec;
  const Pacing& pacing;
  sim::Engine engine;
  imc::hpc::Cluster cluster;
  imc::net::Fabric fabric;
  std::unique_ptr<imc::net::DrcService> drc;
  std::unique_ptr<imc::net::Transport> transport;
  std::vector<int> sim_nodes, ana_nodes;
  std::vector<std::unique_ptr<imc::mem::ProcessMemory>> sim_mem, ana_mem;
  std::vector<std::string> failures;
  std::uint64_t server_peak = 0;
  int readers_finished = 0;
  std::unique_ptr<sim::Event> readers_done = std::make_unique<sim::Event>(engine);
};

nda::VarDesc at_version(nda::VarDesc var, int version) {
  var.version = version;
  return var;
}

// DataSpaces and DIMES share the client shape: init, put, publish,
// wait_version, get, finalize.
template <typename Lib>
sim::Task<> staged_writer(Bare& b, Lib& lib, sim::Barrier& barrier, int r,
                          const nda::VarDesc& desc, const Steps& slabs) {
  typename Lib::Client client(lib, b.sim_ep(r),
                              *b.sim_mem[static_cast<std::size_t>(r)]);
  imc::Status st = co_await client.init();
  b.check(st, "writer init");
  for (int step = 0; st.is_ok() && step < b.spec.steps; ++step) {
    co_await b.compute(r);
    const nda::VarDesc var = at_version(desc, step);
    st = co_await client.put(
        var, slabs[static_cast<std::size_t>(step)][static_cast<std::size_t>(r)]);
    b.check(st, "put");
    co_await barrier.arrive_and_wait();
    if (st.is_ok() && r == 0) {
      st = co_await client.publish(var);
      b.check(st, "publish");
    }
  }
  // DIMES serves gets out of the writer's memory: stay until readers end.
  co_await b.readers_done->wait();
  client.finalize();
}

template <typename Lib>
sim::Task<> staged_reader(Bare& b, Lib& lib, int a, const nda::VarDesc& desc,
                          const nda::Box& box) {
  typename Lib::Client client(lib, b.ana_ep(a),
                              *b.ana_mem[static_cast<std::size_t>(a)]);
  imc::Status st = co_await client.init();
  b.check(st, "reader init");
  for (int step = 0; st.is_ok() && step < b.spec.steps; ++step) {
    const nda::VarDesc var = at_version(desc, step);
    st = co_await client.wait_version(var.name, step);
    b.check(st, "wait_version");
    if (!st.is_ok()) break;
    auto got = co_await client.get(var, box);
    if (!got.has_value()) st = got.status();
    b.check(st, "get");
    co_await b.analyze();
  }
  client.finalize();
  b.reader_done();
}

template <typename Lib, typename LibConfig>
void replay_staged(Bare& b, LibConfig config, int servers,
                   const nda::VarDesc& desc, const Steps& slabs,
                   const std::vector<nda::Box>& reader_boxes) {
  config.num_servers = servers;
  config.servers_per_node = b.spec.servers_per_node;
  Lib lib(b.engine, b.cluster, *b.transport, config);
  const int nodes = (servers + config.servers_per_node - 1) /
                    config.servers_per_node;
  b.check(lib.deploy(b.cluster.allocate_nodes(nodes)), "deploy");
  sim::Barrier barrier(b.engine, static_cast<std::size_t>(b.spec.nsim));
  if (b.failures.empty()) {
    for (int r = 0; r < b.spec.nsim; ++r) {
      b.engine.spawn(staged_writer(b, lib, barrier, r, desc, slabs));
    }
    for (int a = 0; a < b.spec.nana; ++a) {
      b.engine.spawn(staged_reader(
          b, lib, a, desc, reader_boxes[static_cast<std::size_t>(a)]));
    }
    b.engine.run();
  }
  for (int s = 0; s < lib.num_servers(); ++s) {
    b.server_peak = std::max(b.server_peak, lib.server_memory(s).peak());
  }
  lib.shutdown();
  b.engine.run();
  b.engine.reap_processes();
}

sim::Task<> flexpath_writer(Bare& b, imc::flexpath::Flexpath& fp, int r,
                            const nda::VarDesc& desc, const Steps& slabs,
                            const std::string& group, int& writers_open,
                            sim::Event& writers_ready) {
  imc::flexpath::Flexpath::Writer writer(
      fp, b.sim_ep(r), *b.sim_mem[static_cast<std::size_t>(r)]);
  imc::Status st = co_await writer.open(group);
  b.check(st, "flexpath open");
  if (++writers_open == b.spec.nsim) writers_ready.set();
  for (int step = 0; st.is_ok() && step < b.spec.steps; ++step) {
    co_await b.compute(r);
    st = co_await writer.write_step(
        at_version(desc, step),
        slabs[static_cast<std::size_t>(step)][static_cast<std::size_t>(r)]);
    b.check(st, "write_step");
  }
  co_await b.readers_done->wait();  // queued steps live in the writer
  writer.close();
}

sim::Task<> flexpath_reader(Bare& b, imc::flexpath::Flexpath& fp, int a,
                            const nda::VarDesc& desc, const nda::Box& box,
                            const std::string& group,
                            sim::Event& writers_ready) {
  co_await writers_ready.wait();
  imc::flexpath::Flexpath::Reader reader(
      fp, b.ana_ep(a), *b.ana_mem[static_cast<std::size_t>(a)]);
  imc::Status st = co_await reader.open(group);
  b.check(st, "flexpath subscribe");
  for (int step = 0; st.is_ok() && step < b.spec.steps; ++step) {
    auto got = co_await reader.read_step(at_version(desc, step), box);
    if (!got.has_value()) st = got.status();
    b.check(st, "read_step");
    if (st.is_ok()) {
      co_await b.analyze();
      st = co_await reader.release_step(step);
      b.check(st, "release_step");
    }
  }
  reader.close();
  b.reader_done();
}

void replay_flexpath(Bare& b, const nda::VarDesc& desc, const Steps& slabs,
                     const std::vector<nda::Box>& reader_boxes) {
  imc::flexpath::Config c;
  c.queue_size = b.spec.flexpath_queue_size;
  c.cpu_speed = b.spec.machine.cpu_speed;
  c.num_readers = b.spec.nana;
  imc::flexpath::Flexpath fp(b.engine, b.cluster, *b.transport, c);
  const std::string group(imc::workflow::to_string(b.spec.app));
  int writers_open = 0;
  sim::Event writers_ready(b.engine);
  for (int r = 0; r < b.spec.nsim; ++r) {
    b.engine.spawn(flexpath_writer(b, fp, r, desc, slabs, group, writers_open,
                                   writers_ready));
  }
  for (int a = 0; a < b.spec.nana; ++a) {
    b.engine.spawn(flexpath_reader(b, fp, a, desc,
                                   reader_boxes[static_cast<std::size_t>(a)],
                                   group, writers_ready));
  }
  b.engine.run();
  b.engine.reap_processes();
}

sim::Task<> decaf_producer(Bare& b, imc::decaf::Dataflow& dflow, int r,
                           const nda::VarDesc& desc, const Steps& slabs) {
  for (int step = 0; step < b.spec.steps; ++step) {
    co_await b.compute(r);
    imc::Status st = co_await dflow.put(
        r, at_version(desc, step),
        slabs[static_cast<std::size_t>(step)][static_cast<std::size_t>(r)]);
    b.check(st, "decaf put");
    if (!st.is_ok()) co_return;
  }
  co_await dflow.stop(r, b.spec.steps);
}

sim::Task<> decaf_consumer(Bare& b, imc::decaf::Dataflow& dflow, int a,
                           const nda::VarDesc& desc, const nda::Box& box) {
  for (int step = 0; step < b.spec.steps; ++step) {
    auto got = co_await dflow.get(a, at_version(desc, step), box);
    if (!got.has_value()) {
      b.check(got.status(), "decaf get");
      break;
    }
    co_await b.analyze();
  }
  b.reader_done();
}

void replay_decaf(Bare& b, int servers, const nda::VarDesc& desc,
                  const Steps& slabs,
                  const std::vector<nda::Box>& reader_boxes) {
  const int ppn = b.spec.machine.cores_per_node;
  std::vector<int> placement(b.sim_nodes.begin(), b.sim_nodes.end());
  const auto dflow_nodes = b.cluster.place_block(servers, ppn);
  placement.insert(placement.end(), dflow_nodes.begin(), dflow_nodes.end());
  placement.insert(placement.end(), b.ana_nodes.begin(), b.ana_nodes.end());
  imc::mpi::Comm world(b.engine, b.fabric, b.cluster, placement);
  std::vector<std::unique_ptr<imc::mem::ProcessMemory>> dflow_mem;
  std::vector<imc::mem::ProcessMemory*> rank_memory;
  for (const auto& m : b.sim_mem) rank_memory.push_back(m.get());
  for (int d = 0; d < servers; ++d) {
    dflow_mem.push_back(std::make_unique<imc::mem::ProcessMemory>(
        b.engine, "dflow-" + std::to_string(d),
        &b.cluster.node(dflow_nodes[static_cast<std::size_t>(d)]).memory()));
    rank_memory.push_back(dflow_mem.back().get());
  }
  for (const auto& m : b.ana_mem) rank_memory.push_back(m.get());
  imc::decaf::Config dc;
  dc.cpu_speed = b.spec.machine.cpu_speed;
  const int nsim = b.spec.nsim;
  imc::decaf::Dataflow dflow(b.engine, world, 0, nsim, nsim, servers,
                             nsim + servers, b.spec.nana, dc, rank_memory);
  for (int r = 0; r < nsim; ++r) {
    b.engine.spawn(decaf_producer(b, dflow, r, desc, slabs));
  }
  for (int d = 0; d < servers; ++d) b.engine.spawn(dflow.dflow_loop(d));
  for (int a = 0; a < b.spec.nana; ++a) {
    b.engine.spawn(decaf_consumer(b, dflow, a, desc,
                                  reader_boxes[static_cast<std::size_t>(a)]));
  }
  b.engine.run();
  b.engine.reap_processes();
  for (const auto& m : dflow_mem) {
    b.server_peak = std::max(b.server_peak, m->peak());
  }
}

// Library name of the Spec's putget probe; empty for MPI-IO (file path).
std::string putget_layer(MethodSel method) {
  switch (method) {
    case MethodSel::kDataspacesAdios:
    case MethodSel::kDataspacesNative:
      return "dataspaces";
    case MethodSel::kDimesAdios:
    case MethodSel::kDimesNative:
      return "dimes";
    case MethodSel::kFlexpath:
      return "flexpath";
    case MethodSel::kDecaf:
      return "decaf";
    case MethodSel::kMpiIo:
      break;
  }
  return {};
}

// Runs the Spec's putget replay; a failed client call is a parity failure
// (the workflow run of the same Spec succeeded).
void replay_putget(const Spec& spec, const RunResult& recorded,
                   const Pacing& pacing, const nda::VarDesc& desc,
                   const Steps& slabs,
                   const std::vector<nda::Box>& reader_boxes) {
  // Server counts: the harness defaults of nana / 8, 4 and nana.
  int servers = 0;
  if (spec.method == MethodSel::kDataspacesAdios ||
      spec.method == MethodSel::kDataspacesNative) {
    servers = std::max(1, spec.nana / 8);
  } else if (spec.method == MethodSel::kDimesAdios ||
             spec.method == MethodSel::kDimesNative) {
    servers = 4;
  } else if (spec.method == MethodSel::kDecaf) {
    servers = spec.nana;
  }
  if (servers != recorded.servers_used) {
    drift(spec, "replay uses " + std::to_string(servers) +
                    " servers, the run " +
                    std::to_string(recorded.servers_used));
  }
  Bare b(spec, pacing);
  switch (spec.method) {
    case MethodSel::kDataspacesAdios:
    case MethodSel::kDataspacesNative:
      replay_staged<imc::dataspaces::DataSpaces>(
          b, imc::dataspaces::Config{}, servers, desc, slabs, reader_boxes);
      break;
    case MethodSel::kDimesAdios:
    case MethodSel::kDimesNative: {
      imc::dimes::Config c;
      // Table I: the native build doubles the DIMES RDMA buffer.
      c.rdma_buffer_bytes = spec.method == MethodSel::kDimesNative
                                ? 2048 * imc::kMiB
                                : 1024 * imc::kMiB;
      replay_staged<imc::dimes::Dimes>(b, c, servers, desc, slabs,
                                       reader_boxes);
      break;
    }
    case MethodSel::kFlexpath:
      replay_flexpath(b, desc, slabs, reader_boxes);
      break;
    case MethodSel::kDecaf:
      replay_decaf(b, servers, desc, slabs, reader_boxes);
      break;
    case MethodSel::kMpiIo:
      return;
  }
  if (b.readers_finished != spec.nana) {
    b.failures.push_back("readers did not finish");
  }
  if (!b.failures.empty()) drift(spec, "putget replay: " + b.failures.front());
  // What the servers hold shows in their peak, so the replay must
  // reproduce the run's exactly. Its traffic is the staged data; the run's
  // adds only the writers' control messages.
  if (b.server_peak != recorded.server_peak) {
    drift(spec, "replay server peak " + std::to_string(b.server_peak) +
                    " vs recorded " + std::to_string(recorded.server_peak));
  }
  const double replay_bytes = b.fabric.bytes_transferred();
  if (replay_bytes > recorded.bytes_moved ||
      recorded.bytes_moved - replay_bytes >
          kControlBytesShare * recorded.bytes_moved) {
    drift(spec, "replay moved " + std::to_string(replay_bytes) +
                    " bytes vs recorded " +
                    std::to_string(recorded.bytes_moved));
  }
}

sim::Task<> sleeper(sim::Engine& engine, std::uint64_t count, int salt) {
  for (std::uint64_t i = 0; i < count; ++i) {
    co_await engine.sleep(1e-6 * static_cast<double>(1 + (i + salt) % 7));
  }
}

}  // namespace

std::uint64_t staging_cap(MethodSel method) {
  switch (method) {
    case MethodSel::kDataspacesAdios:
    case MethodSel::kDataspacesNative:
      return imc::dataspaces::Config{}.materialize_cap_elems;
    case MethodSel::kDimesAdios:
    case MethodSel::kDimesNative:
      return imc::dimes::Config{}.materialize_cap_elems;
    case MethodSel::kFlexpath:
      return imc::flexpath::Config{}.materialize_cap_elems;
    case MethodSel::kDecaf:
      return imc::decaf::Config{}.materialize_cap_elems;
    case MethodSel::kMpiIo:
      break;
  }
  return kAdiosMpiReadCapElems;
}

void probe_spec(const Spec& spec, const RunResult& recorded, Layers& out) {
  const std::uint64_t events = recorded.events_processed;
  const bool run_kernel = spec.nsim <= kKernelMaxRanks;
  const auto nsim = static_cast<std::size_t>(spec.nsim);
  const auto nana = static_cast<std::size_t>(spec.nana);
  const auto steps = static_cast<std::size_t>(spec.steps);
  std::vector<Writer> writers;
  for (int r = 0; r < spec.nsim; ++r) {
    writers.push_back(make_writer(spec, r, run_kernel));
  }
  const nda::VarDesc desc = writers[0].desc(0);
  // Both workflows decompose writers and readers over dimension 1.
  const auto writer_boxes = nda::decompose_1d(desc.global, spec.nsim, 1);
  const auto reader_boxes = nda::decompose_1d(desc.global, spec.nana, 1);
  const std::uint64_t cap = staging_cap(spec.method);

  Steps slabs(steps);
  std::vector<std::uint64_t> last_signature(nsim, 0);
  std::vector<nda::Slab> msd_reference(nana);
  for (std::size_t step = 0; step < steps; ++step) {
    const int version = static_cast<int>(step);
    const auto t_advance = Clock::now();
    for (auto& w : writers) w.advance(run_kernel);
    out.advance_s += since(t_advance);
    for (std::size_t r = 0; r < nsim; ++r) {
      const auto t0 = Clock::now();
      nda::Slab slab = writers[r].output(version);
      out.output_s += since(t0);
      const std::uint64_t volume = writer_boxes[r].volume();
      if (!(slab.box() == writer_boxes[r])) {
        drift(spec, "writer " + std::to_string(r) + " box " +
                        slab.box().to_string() + " vs decomposition " +
                        writer_boxes[r].to_string());
      }
      if (slab.is_materialized() !=
          (volume <= imc::apps::kMaterializeCapElems)) {
        drift(spec, "materialization disagrees with apps::kMaterializeCapElems");
      }
      if (slab.is_materialized() &&
          slab.data().size() * nda::kElementBytes != slab.declared_bytes()) {
        drift(spec, "materialized bytes differ from the declared bytes");
      }
      out.output_mb += static_cast<double>(slab.declared_bytes()) / kMB;
      const std::uint64_t signature = content_signature(slab);
      if (step > 0) {
        ++out.output_compared;
        if (signature == last_signature[r]) ++out.output_repeats;
      }
      last_signature[r] = signature;
      slabs[step].push_back(std::move(slab));
    }

    const auto t_index = Clock::now();
    const nda::BoxIndex index = nda::BoxIndex::build(writer_boxes);
    std::vector<std::vector<std::pair<int, nda::Box>>> hits;
    for (const auto& box : reader_boxes) hits.push_back(index.query(box));
    out.index_s += since(t_index);
    out.index_queries += nana;

    for (std::size_t a = 0; a < nana; ++a) {
      const nda::Box& box = reader_boxes[a];
      if (hits[a].empty()) drift(spec, "reader box outside every writer box");
      // The libraries assemble under their cap and hand out a synthetic
      // slab above it; either way this is the reader's slab construction.
      nda::Slab got;
      const auto t_assemble = Clock::now();
      if (box.volume() <= cap) {
        got = nda::Slab::zeros(box);
        for (const auto& [id, overlap] : hits[a]) {
          got.fill_from(slabs[step][static_cast<std::size_t>(id)]);
        }
        out.assemble_mb +=
            static_cast<double>(box.volume() * nda::kElementBytes) / kMB;
      } else {
        got = nda::Slab::synthetic(
            box, slabs[step][static_cast<std::size_t>(hits[a].front().first)]
                     .seed());
      }
      out.assemble_s += since(t_assemble);
      std::uint64_t touched = 0;
      const auto t0 = Clock::now();
      if (spec.app == AppSel::kLammps) {
        if (step == 0) msd_reference[a] = got;
        const double msd = imc::apps::mean_squared_displacement(
            msd_reference[a], got, kMsdSamples);
        if (msd < 0) drift(spec, "negative MSD");
        touched = 3 * std::min<std::uint64_t>(kMsdSamples,
                                              box.extent(1) * box.extent(2));
      } else {
        const auto moments =
            imc::apps::moment_analysis(got, kMtaOrder, kMtaSamples);
        if (moments.empty()) drift(spec, "no moments");
        touched = std::min<std::uint64_t>(kMtaSamples, box.volume());
      }
      out.analysis_s += since(t0);
      out.analysis_touched += touched;
      out.analysis_built += got.is_materialized() ? box.volume() : touched;
    }
  }

  const std::string layer = putget_layer(spec.method);
  if (!layer.empty()) {
    const auto t0 = Clock::now();
    Pacing pacing;
    for (const auto& w : writers) {
      pacing.writer_s.push_back(
          spec.compute_scale *
          spec.machine.relative_compute_time(w.titan_step_seconds()));
    }
    const std::uint64_t reader_bytes =
        reader_boxes.front().volume() * nda::kElementBytes;
    pacing.reader_s = spec.compute_scale *
                      spec.machine.relative_compute_time(
                          spec.app == AppSel::kLammps
                              ? imc::apps::msd_titan_seconds_per_step(reader_bytes)
                              : imc::apps::mta_titan_seconds_per_step(reader_bytes));
    replay_putget(spec, recorded, pacing, desc, slabs, reader_boxes);
    out.putget_s[layer] += since(t0);
  }

  // Engine floor: as many events as the run popped, spread over one
  // process per rank.
  const std::uint64_t procs = nsim + nana;
  const std::uint64_t per_proc = (events + procs - 1) / procs;
  sim::Engine engine;
  for (std::uint64_t p = 0; p < procs; ++p) {
    engine.spawn(sleeper(engine, per_proc, static_cast<int>(p)));
  }
  const auto t0 = Clock::now();
  engine.run();
  out.engine_replay_s += since(t0);
  out.engine_replay_events += engine.events_processed();
}

}  // namespace wfbench

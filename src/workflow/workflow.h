// Workflow harness: deploys one of the paper's three workflows on a
// simulated machine with a selected I/O method, runs the coupled
// simulation + analytics, and collects the measurements every figure and
// table of the evaluation is built from (end-to-end time, per-phase
// staging/compute time, per-component memory peaks and timelines, resource
// high-water marks, and failures).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "fault/fault.h"
#include "hpc/machine.h"
#include "mem/memory.h"
#include "ndarray/ndarray.h"
#include "net/transport.h"
#include "repl/repl.h"
#include "sim/engine.h"

namespace imc::workflow {

enum class MethodSel {
  kMpiIo,             // ADIOS MPI-IO to Lustre, post-processing analytics
  kDataspacesAdios,   // DataSpaces through the ADIOS framework
  kDataspacesNative,  // DataSpaces through its native API
  kDimesAdios,
  kDimesNative,
  kFlexpath,  // Flexpath through ADIOS (its only packaging)
  kDecaf,
};
std::string_view to_string(MethodSel method);

enum class AppSel { kLammps, kLaplace, kSynthetic };
std::string_view to_string(AppSel app);

struct Spec {
  AppSel app = AppSel::kLammps;
  MethodSel method = MethodSel::kDataspacesNative;
  hpc::MachineConfig machine = hpc::titan();

  int nsim = 32;
  int nana = 16;
  int steps = 3;

  // Problem-size knobs (paper defaults: LAMMPS 20 MB/proc, Laplace
  // 128 MB/proc).
  std::uint64_t lammps_atoms_per_proc = 512000;
  std::uint64_t laplace_rows = 4096;
  std::uint64_t laplace_cols_per_proc = 4096;
  bool synthetic_match_layout = false;
  std::uint64_t synthetic_elements_per_proc = 2'560'000;

  // Staging configuration. num_servers < 0 picks the paper's defaults:
  // DataSpaces nana/8, DIMES 4, Decaf nana.
  int num_servers = -1;
  int servers_per_node = 2;  // paper §III-B1
  // Transport override; kDefault keeps the per-method/per-machine default
  // (uGNI for DataSpaces/DIMES, NNTI for Flexpath; sockets under
  // shared-node mode on Cori, §III-B7).
  enum class Transport { kDefault, kRdma, kSockets, kSharedMemory };
  Transport transport = Transport::kDefault;

  // Fig. 13: run analytics on the simulation's nodes.
  bool shared_node_mode = false;
  // Table IV: legacy 32-bit dimension arithmetic.
  bool use_32bit_dims = false;
  int flexpath_queue_size = 1;
  int ranks_per_node = 0;  // 0: machine cores_per_node

  // Table IV "suggested resolve" extensions (off by default — the paper's
  // libraries do not implement them; turning one on shows the failure mode
  // it addresses disappearing, at its documented cost).
  bool rdma_wait_retry = false;  // DataSpaces waits out registration pressure
  bool socket_pooling = false;   // multiplexed socket pools per node pair
  bool drc_metered = false;      // DRC queues rather than sheds overload

  // §IV-B extension: the simulation's output lives in GPU memory. Staging
  // then pays a PCIe device-to-host copy per step — unless use_gpudirect
  // models the NIC reading device memory directly (the paper's "attractive
  // area for future research").
  bool gpu_resident_output = false;
  bool use_gpudirect = false;

  // Scales the per-step compute cost. 1.0 is the Fig. 2 calibration; values
  // below 1 model more I/O-bound coupling intervals (used by the Fig. 13
  // reproduction, whose measured gains imply a denser output cadence).
  double compute_scale = 1.0;

  // Record memory timelines of representative processes (Fig. 5).
  bool capture_timelines = false;

  // Fault plan for this world (off when fault.any() is false — then no
  // Injector is bound and every fault hook is a no-op). Bound as the run's
  // World `fault` (common/world.h), so concurrent sweep workers stay
  // isolated.
  fault::Plan fault;
  // Graceful degradation: when the primary method fails with a fault plan
  // active (unrecoverable server loss and the like), replay the whole
  // workflow through the MPI-IO file path so the analysis still completes.
  struct FallbackSpec {
    bool to_mpi_io = false;
  };
  FallbackSpec fallback;
  // Replication policy for staged objects (DataSpaces) and directory
  // entries (DIMES). factor 1 — the default — is byte-identical to the
  // pre-replication behavior; factor R >= 2 lands every staged object on a
  // chain of R servers, re-routes gets past crashed replicas, and resilvers
  // lost redundancy in the background (DESIGN.md §15). Bound as the run's
  // World `repl`, like the fault plan.
  repl::Policy repl;

  // Same-instant event ordering. Correct components must produce the same
  // results under every policy; check::run_deterministic() sweeps these.
  sim::Schedule schedule;
  // Record the engine's (time, seq) pop trace into RunResult (bounded; used
  // by the determinism harness to pinpoint divergences).
  bool record_schedule_trace = false;
};

struct RunResult {
  bool ok = false;
  std::vector<std::string> failures;

  double end_to_end = 0;   // wall-clock of the whole coupled run
  double sim_span = 0;     // when the last simulation rank finished
  double ana_span = 0;     // when the last analytics rank finished

  // Per-rank averages (seconds over the whole run).
  double sim_compute = 0;
  double sim_staging = 0;  // time inside put/write calls
  double ana_compute = 0;
  double ana_staging = 0;  // time inside get/read calls (incl. waiting)

  // Memory high-water marks (bytes).
  std::uint64_t sim_rank_peak = 0;
  std::uint64_t ana_rank_peak = 0;
  std::uint64_t server_peak = 0;
  std::array<std::uint64_t, mem::kTagCount> server_tag_peaks{};

  // Representative timelines (simulation rank 0 / analytics rank 0 /
  // staging server or dflow rank 0); captured when requested.
  std::vector<mem::ProcessMemory::Sample> sim_timeline;
  std::vector<mem::ProcessMemory::Sample> ana_timeline;
  std::vector<mem::ProcessMemory::Sample> server_timeline;

  // Resource high-water marks across all nodes.
  std::uint64_t rdma_peak_bytes = 0;
  std::uint64_t rdma_peak_handlers = 0;
  int socket_peak = 0;

  int servers_used = 0;
  double sample_analysis_value = 0;  // MSD / second moment, when computed
  double gpu_copy_time = 0;          // avg per sim rank (gpu-resident runs)

  // Correctness tooling (see DESIGN.md, "Correctness tooling").
  std::uint64_t run_digest = 0;       // engine event-stream hash + counters
  std::size_t events_processed = 0;   // engine events popped
  std::uint64_t transfers = 0;        // fabric transfers started
  double bytes_moved = 0;             // fabric bytes moved
  std::vector<std::string> leaks;     // auditor report after full teardown
  std::vector<sim::Engine::TraceEntry> schedule_trace;  // when requested
  std::uint64_t trace_digest = 0;     // imc::trace chunk digest (0 when off)

  // Recovery bookkeeping (zero when Spec::fault is off): the injector's
  // fault::Stats plus the fallback verdict. On MPI-IO fallback, `failures`
  // holds the replay's verdict while the primary method's typed failures
  // move to `recovered_failures`, and end_to_end covers both attempts.
  struct FaultStats : fault::Stats {
    bool fallback_activated = false;
    double time_to_recover = 0;  // virtual time spent before the fallback
  };
  FaultStats fault;
  std::vector<std::string> recovered_failures;

  // Durability bookkeeping (zero when Spec::repl is factor 1 and no fault
  // plan is active): the coordinator's repl::Stats plus the run's factor.
  // objects_lost counts reads that exhausted every replica — the acceptance
  // bar for "R >= 2 survives one crash" is this staying 0 with no fallback.
  struct ReplStats : repl::Stats {
    int factor = 1;  // effective factor of the run
  };
  ReplStats repl;

  // One-line verdict for tables.
  std::string failure_summary() const;
};

// Runs the workflow to completion (or failure) and returns the metrics.
RunResult run(const Spec& spec);

// The global descriptor of the variable `spec`'s writers output at step
// `version` (rank-independent).
nda::VarDesc global_desc(const Spec& spec, int version);

// The box analytics rank `a` reads: a contiguous share of the dimension the
// application decomposes over (MSD reads its share of the writer columns;
// MTA its share of the field columns). Equal to block `a` of
// nda::decompose_1d over that dimension, computed without the others.
nda::Box reader_box(const Spec& spec, int a);

}  // namespace imc::workflow

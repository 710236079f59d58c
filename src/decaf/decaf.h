// Decaf: decoupled dataflows for in-situ workflows (Dreher & Peterka,
// reimplemented from the paper's description).
//
// Decaf wraps the producer, the dataflow (staging) ranks and the consumer
// into ONE MPI communicator (which is why it is portable anywhere MPI runs,
// and why it cannot run on systems without heterogeneous launch support,
// §III-B7). Data flows producer -> dataflow -> consumer and is
// redistributed by count on both edges (Table I: prod_dflow_redist =
// 'count', dflow_con_redist = 'count').
//
// The paper's Finding 2 and Fig. 7 hinge on Decaf's rich data model
// (Bredala): raw arrays are wrapped into semantic containers, flattened,
// split, shipped, decoded and merged. Each stage is charged here as a real
// tagged allocation, so the dataflow ranks' ~7x-raw peak emerges from the
// modeled pipeline:
//   receive wire buffers (1x, library) + decode to containers (2x,
//   transform) + merge (2x, transform) + retained staged container (2x,
//   staging) => 7x peak, dropping to 2x retained after the merge completes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "mem/memory.h"
#include "mpi/comm.h"
#include "ndarray/ndarray.h"
#include "serial/ffs.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace imc::decaf {

struct Config {
  double cpu_speed = 1.0;
  // Fig. 5d calibration: Decaf clients carry ~40% more library memory than
  // the DataSpaces/Flexpath clients (280 MiB base + transient pipeline).
  std::uint64_t client_base_bytes = 280 * kMiB;
  std::uint64_t materialize_cap_elems = 1ull << 22;
};

// One producer -> dataflow -> consumer pipeline over a world communicator.
// Producer ranks call put(); consumer ranks call get(); each dataflow rank
// runs dflow_loop() until stop() is observed.
class Dataflow {
 public:
  // Rank layout inside `world`: producers [prod_base, prod_base+nprod),
  // dataflows [dflow_base, ...), consumers [con_base, ...).
  Dataflow(sim::Engine& engine, mpi::Comm& world, int prod_base, int nprod,
           int dflow_base, int ndflow, int con_base, int ncon, Config config,
           std::vector<mem::ProcessMemory*> rank_memory);

  const Config& config() const { return config_; }

  // Producer side: wrap the slab into a container, flatten, split by count
  // and ship each chunk to its dataflow rank.
  sim::Task<Status> put(int producer_index, const nda::VarDesc& var,
                        const nda::Slab& slab);

  // Consumer side: request this box from every dataflow rank and assemble.
  sim::Task<Result<nda::Slab>> get(int consumer_index, const nda::VarDesc& var,
                                   const nda::Box& box);

  // Dataflow rank main loop: per step, receive all producer chunks, decode
  // and merge, retain the staged container, serve all consumer requests,
  // then free. Runs until stop() has been called and all queued steps
  // drained.
  sim::Task<> dflow_loop(int dflow_index);

  // Every producer calls this once after its last put; `after_step` is the
  // number of steps it executed (versions 0..after_step-1).
  sim::Task<> stop(int producer_index, int after_step);

  std::uint64_t steps_processed(int dflow_index) const {
    return steps_done_[static_cast<std::size_t>(dflow_index)];
  }

  // Routing by count is proportional: producer p's data goes to the dflow
  // range [p*D/P, (p+1)*D/P) (one whole-slab chunk to dflow p*D/P when
  // P >= D). This keeps the per-step message count at max(P, D) instead of
  // P*D while preserving the by-count balance. The routing-consistency
  // property tests check these inverses: the gather loops deadlock if they
  // ever disagree.
  std::vector<int> dflow_targets(int producer_index) const;
  int expected_senders(int dflow_index) const;
  std::vector<int> dflow_queries(int consumer_index) const;
  int expected_requests(int dflow_index) const;

 private:
  struct Chunk {
    nda::VarDesc var;
    nda::Slab slab;
    bool last = false;  // stop marker
  };
  struct PieceRequest {
    nda::Box box;
  };

  // Splits `box` into `parts` count-balanced chunks along its longest
  // dimension (the by-count redistribution at box granularity).
  static std::vector<nda::Box> split_for(const nda::Box& box, int parts);

  // Records dflow rank `dflow_index`'s abort when a pipeline buffer could
  // not be allocated ("out of main memory", Table IV); false if `st` is ok.
  bool dflow_aborted(int dflow_index, const Status& st);

  sim::Engine* engine_;
  mpi::Comm* world_;
  int prod_base_, nprod_, dflow_base_, ndflow_, con_base_, ncon_;
  Config config_;
  std::vector<mem::ProcessMemory*> rank_memory_;  // world rank -> accounting
  std::vector<std::uint64_t> steps_done_;
};

}  // namespace imc::decaf

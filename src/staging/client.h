// One rank's step-based client of an I/O method — the engine abstraction
// ADIOS2 and openPMD settled on (PAPERS.md, arXiv:2107.06108). The
// workflow harness drives all seven methods through it:
//
//   writer: open; per step begin_step, put, end_step, and, on the writer
//           root once every writer ended the step, commit; finalize.
//   reader: open; per step begin_step, get, end_step; finalize.
//
// Each method's client owns that method's protocol (clients.h for the
// staging libraries, adios.h for MPI-IO's BP files), and adios::Io
// decorates any client with what the ADIOS framework adds.
#pragma once

#include "common/status.h"
#include "ndarray/ndarray.h"
#include "sim/task.h"

namespace imc::staging {

enum class Role { kWriter, kReader };

// Cross-rank waits a method needs around its step protocol. The client
// declares them; the harness, which sees every rank, performs them.
struct Coupling {
  // Writers meet after open and before each commit. Decaf's producers are
  // coupled through the dataflow instead.
  bool step_barrier = true;
  // Readers open once every writer has opened (Flexpath subscribes to the
  // publishers that exist).
  bool readers_open_after_writers = false;
  // Writers finalize once every reader finished: DIMES and Flexpath serve
  // reads from the writer's own memory.
  bool writers_outlive_readers = false;
  // Readers start once every writer finished (MPI-IO post-processing).
  bool readers_after_writers = false;
};

class Client {
 public:
  Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  virtual ~Client() = default;

  // Connects the rank to the method, once before the first step.
  virtual sim::Task<Status> open() = 0;

  // Bracket one step's puts (writer) or get (reader).
  virtual sim::Task<Status> begin_step(int /*step*/) {
    co_return Status::ok();
  }
  virtual sim::Task<Status> put(const nda::VarDesc& var,
                                const nda::Slab& slab) = 0;
  virtual sim::Task<Status> end_step(int /*step*/) { co_return Status::ok(); }

  // Writer root only, after every writer's end_step: makes var.version
  // visible to readers.
  virtual sim::Task<Status> commit(const nda::VarDesc& /*var*/) {
    co_return Status::ok();
  }

  // Blocks until var.version exists, then reads `box` of it.
  virtual sim::Task<Result<nda::Slab>> get(const nda::VarDesc& var,
                                           const nda::Box& box) = 0;

  // Ends the rank's use of the method, releasing what open acquired.
  virtual sim::Task<> finalize() = 0;

  virtual Coupling coupling() const { return {}; }
};

}  // namespace imc::staging

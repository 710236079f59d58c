// Flexpath: type-based publish/subscribe staging (Dayal et al.,
// reimplemented from the paper's description).
//
// Unlike DataSpaces/DIMES there are no standalone staging servers (paper
// Fig. 1b): each writer rank stages its own output in a bounded per-writer
// queue (ADIOS XML queue_size, Table I sets 1) and readers subscribe and
// pull. Data crosses the wire as FFS self-describing events over an
// EVPath-style connection manager whose CMTransport is configurable
// (Table I: nnti; sockets for Fig. 10's comparison).
//
// Coupling semantics reproduced: with queue_size=1 a writer blocks in
// write_step(t+1) until every subscribed reader has released step t — the
// simulation and analytics run in lockstep, which is exactly how the paper's
// Flexpath workflows behave.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "hpc/cluster.h"
#include "mem/memory.h"
#include "ndarray/ndarray.h"
#include "net/transport.h"
#include "serial/ffs.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace imc::flexpath {

struct Config {
  int queue_size = 1;  // staged steps per writer (Table I)
  double cpu_speed = 1.0;  // for FFS encode/decode cost
  // Reader-cohort size the writer releases against. 0: use the readers
  // subscribed at write time (fine when all opens precede the first write;
  // coupled workflows set it explicitly to avoid the startup race).
  int num_readers = 0;
  std::uint64_t client_base_bytes = 200 * kMiB;
  std::uint64_t materialize_cap_elems = 1ull << 22;
};

class Flexpath {
 public:
  Flexpath(sim::Engine& engine, hpc::Cluster& cluster,
           net::Transport& transport, Config config);
  ~Flexpath();

  Flexpath(const Flexpath&) = delete;
  Flexpath& operator=(const Flexpath&) = delete;

  const Config& config() const { return config_; }
  serial::FormatRegistry& formats() { return formats_; }

  class Writer;
  class Reader;

  // One publisher per simulation rank.
  class Writer {
   public:
    Writer(Flexpath& fp, net::Endpoint self, mem::ProcessMemory& memory);
    ~Writer();

    // Registers the writer's format and its endpoint with the connection
    // manager; allocates the EVPath buffer pool.
    sim::Task<Status> open(const std::string& group);

    // Publishes this rank's slab of `var` for step var.version. Blocks
    // while the queue is full (back-pressure onto the simulation).
    sim::Task<Status> write_step(const nda::VarDesc& var,
                                 const nda::Slab& slab);

    void close();

    int queued_steps() const { return static_cast<int>(steps_.size()); }

   private:
    friend class Flexpath;
    friend class Reader;

    // A published step, or the placeholder a reader created to wait for it.
    struct Step {
      explicit Step(sim::Engine& engine) : available(engine) {}
      int version = 0;
      nda::VarDesc var;
      nda::Slab slab;
      std::uint64_t bytes = 0;
      int remaining_releases = 0;
      sim::Event available;
    };

    // The step of `version`, created as a placeholder when absent.
    Step& find_or_add_step(int version);
    void release_step(int version);

    Flexpath* fp_;
    net::Endpoint self_;
    mem::ProcessMemory* memory_;
    std::unique_ptr<sim::Semaphore> queue_slots_;
    // Live steps in version order: at most queue_size published ones plus
    // placeholders, so a lookup scans. Each is held by pointer, so inserts
    // and erases never move one: a reader keeps a Step& across the
    // co_awaits of its fetch.
    std::vector<std::unique_ptr<Step>> steps_;
    int format_id_ = -1;
    int slot_ = -1;  // index into every reader's handshake flags
    bool open_ = false;
  };

  // One subscriber per analytics rank.
  class Reader {
   public:
    Reader(Flexpath& fp, net::Endpoint self, mem::ProcessMemory& memory);
    ~Reader();

    // Subscribes to every registered writer: connects and, on first contact
    // with each writer, fetches its FFS format description.
    sim::Task<Status> open(const std::string& group);

    // Pulls the requested box of step var.version. Waits, in pid order, for
    // every writer to publish the step, and fetches from those whose slab
    // intersects the box.
    sim::Task<Result<nda::Slab>> read_step(const nda::VarDesc& var,
                                           const nda::Box& box);

    // Tells all writers this reader is done with `step`; once every reader
    // released it, the writers' queue slots free up.
    sim::Task<Status> release_step(int step);

    void close();

   private:
    // Lazy connection + FFS format handshake with one writer. Transient
    // connection failures are retried under the shared fault::RetryPolicy
    // (EVPath's reconnect behavior); connect_once is one attempt.
    sim::Task<Status> ensure_connected(Writer& writer);
    sim::Task<Status> connect_once(Writer& writer);

    bool handshake_done(const Writer& writer) const {
      const auto slot = static_cast<std::size_t>(writer.slot_);
      return slot < handshakes_.size() && handshakes_[slot];
    }

    Flexpath* fp_;
    net::Endpoint self_;
    mem::ProcessMemory* memory_;
    std::vector<bool> handshakes_;  // by writer slot: format fetched
    bool open_ = false;
  };

 private:
  friend class Writer;
  friend class Reader;

  static constexpr std::uint64_t kCtrlBytes = 96;  // EVPath event header

  // Registers `writer` under `pid`, or unregisters pid when null.
  void set_writer(int pid, Writer* writer);

  sim::Engine* engine_;
  hpc::Cluster* cluster_;
  net::Transport* transport_;
  Config config_;
  serial::FormatRegistry formats_;
  // Open writers in pid order (the connection manager). Replaced, never
  // modified, so a read or release walks the set it started with without
  // copying it.
  std::shared_ptr<const std::vector<Writer*>> writers_;
  int writer_slots_ = 0;  // slots handed out to writers so far
  std::vector<Reader*> readers_;
};

}  // namespace imc::flexpath

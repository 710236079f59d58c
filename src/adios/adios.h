// ADIOS 1.x framework layer (Liu et al., reimplemented).
//
// ADIOS is the plug-and-play I/O framework through which the paper drives
// MPI-IO, DataSpaces, DIMES and Flexpath ("DataSpaces/ADIOS" etc. in
// Table I). It contributes:
//  * the XML configuration (groups, variables with symbolic dimensions, a
//    transport method per group, buffer sizing, stats on/off) — the
//    usability surface measured in Table III;
//  * Io, a decorator over any method's step client (staging/client.h):
//    writes buffered until adios_close plus the optional min/max
//    statistics pass, ADIOS's overhead over the native APIs (the paper's
//    ADIOS-vs-native curves are close but not identical);
//  * MpiIoClient, the MPI method's per-step BP files on Lustre.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adios/xml.h"
#include "common/status.h"
#include "common/units.h"
#include "hpc/cluster.h"
#include "lustre/lustre.h"
#include "mem/memory.h"
#include "ndarray/ndarray.h"
#include "sim/engine.h"
#include "sim/task.h"
#include "staging/client.h"

namespace imc::adios {

enum class Method { kMpiIo, kDataspaces, kDimes, kFlexpath };

// Largest mixed or materialized read the MPI-IO path assembles (the value
// the staging libraries' Config::materialize_cap_elems defaults to).
inline constexpr std::uint64_t kMpiIoReadCapElems = 1ull << 22;

Result<Method> parse_method(const std::string& name);
std::string_view to_string(Method method);

struct VarDecl {
  std::string name;
  std::string dimensions;  // e.g. "5,nprocs,512000" (symbols allowed)
  std::string type = "double";
};

struct GroupDecl {
  std::string name;
  std::vector<VarDecl> vars;
  Method method = Method::kMpiIo;
  std::string parameters;  // method options verbatim (e.g. "queue_size=1")
};

struct AdiosConfig {
  std::vector<GroupDecl> groups;
  std::uint64_t buffer_bytes = 64 * kMiB;  // <buffer size-MB=.../>
  bool stats = true;                       // stats="off" disables

  const GroupDecl* group(const std::string& name) const;
};

// Parses an <adios-config> document.
Result<AdiosConfig> parse_config(const std::string& xml);

// Resolves "5,nprocs,512000" against a symbol table. A spec listing more
// than nda::Dims::kMaxRank dimensions is kInvalidArgument.
Result<nda::Dims> resolve_dims(const std::string& spec,
                               const std::map<std::string, std::uint64_t>& symbols);

// MPI-IO through the BP-file method, ADIOS's only MPI packaging: every
// step is one file per rank, opened at begin_step and (by a writer) closed
// at end_step; a put writes its payload plus a BP footer and records the
// content; a get reads its box back from the step's file. Readers
// post-process, once every writer finished.
class MpiIoClient final : public staging::Client {
 public:
  // Files are `base_path`.<step> on `fs`, striped from the rank's `node`.
  MpiIoClient(lustre::FileSystem& fs, hpc::Node& node, staging::Role role,
              std::string base_path);

  sim::Task<Status> open() override { co_return Status::ok(); }
  sim::Task<Status> begin_step(int step) override;
  sim::Task<Status> put(const nda::VarDesc& var,
                        const nda::Slab& slab) override;
  sim::Task<Status> end_step(int step) override;
  sim::Task<Result<nda::Slab>> get(const nda::VarDesc& var,
                                   const nda::Box& box) override;
  sim::Task<> finalize() override;
  staging::Coupling coupling() const override {
    return {.readers_after_writers = true};
  }

 private:
  lustre::FileSystem* fs_;
  hpc::Node* node_;
  staging::Role role_;
  std::string base_path_;
  std::string path_;  // the open step's file
  std::shared_ptr<lustre::File> file_;
};

// ADIOS over any step client, adding what the framework adds to the method
// it drives and nothing else — the whole of Fig. 2's ADIOS-vs-native gap:
//  * put (adios_write) copies the slab into the group buffer, failing with
//    kOutOfMemory past the configured buffer size as ADIOS 1.x does, and
//    runs the min/max statistics scan when stats are on;
//  * end_step (adios_close) flushes the buffered slabs through the inner
//    client's put in order, freeing the buffer, then ends the inner step.
// Every other call goes straight to the inner client; put and get before
// open fail with kFailedPrecondition.
class Io final : public staging::Client {
 public:
  Io(sim::Engine& engine, const AdiosConfig& config,
     std::unique_ptr<staging::Client> inner, mem::ProcessMemory& memory,
     double cpu_speed = 1.0);

  sim::Task<Status> open() override;
  sim::Task<Status> begin_step(int step) override {
    return inner_->begin_step(step);
  }
  sim::Task<Status> put(const nda::VarDesc& var,
                        const nda::Slab& slab) override;
  sim::Task<Status> end_step(int step) override;
  sim::Task<Status> commit(const nda::VarDesc& var) override {
    return inner_->commit(var);
  }
  // adios_schedule_read + adios_perform_reads for one box selection.
  sim::Task<Result<nda::Slab>> get(const nda::VarDesc& var,
                                   const nda::Box& box) override;
  sim::Task<> finalize() override;
  staging::Coupling coupling() const override { return inner_->coupling(); }

 private:
  struct Pending {
    nda::VarDesc var;
    nda::Slab slab;
  };

  sim::Engine* engine_;
  const AdiosConfig* config_;
  std::unique_ptr<staging::Client> inner_;
  mem::ProcessMemory* memory_;
  double cpu_speed_;
  std::vector<Pending> pending_;
  std::uint64_t buffered_bytes_ = 0;
  bool open_ = false;
};

}  // namespace imc::adios

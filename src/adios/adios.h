// ADIOS 1.x framework layer (Liu et al., reimplemented).
//
// ADIOS is the plug-and-play I/O framework through which the paper drives
// MPI-IO, DataSpaces, DIMES and Flexpath ("DataSpaces/ADIOS" etc. in
// Table I). It contributes:
//  * the XML configuration (groups, variables with symbolic dimensions, a
//    transport method per group, buffer sizing, stats on/off) — the
//    usability surface measured in Table III;
//  * buffered writes: adios_write copies into the group buffer; the flush
//    to the selected method happens at adios_close;
//  * a uniform read API with box selections over any method.
//
// A small per-step metadata footer and the optional min/max statistics pass
// model ADIOS's overhead relative to the native APIs (the paper's
// ADIOS-vs-native curves are close but not identical).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "adios/xml.h"
#include "common/status.h"
#include "common/units.h"
#include "dataspaces/dataspaces.h"
#include "dimes/dimes.h"
#include "flexpath/flexpath.h"
#include "lustre/lustre.h"
#include "mem/memory.h"
#include "ndarray/ndarray.h"
#include "sim/engine.h"
#include "sim/task.h"

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

// Per-rank I/O context: the adios_open/adios_write/adios_close and
// read-API surface for one group. Exactly one backend pointer matching the
// group's method must be supplied.
class Io {
 public:
  struct Backends {
    dataspaces::DataSpaces::Client* dataspaces = nullptr;
    dimes::Dimes::Client* dimes = nullptr;
    flexpath::Flexpath::Writer* flexpath_writer = nullptr;
    flexpath::Flexpath::Reader* flexpath_reader = nullptr;
    lustre::FileSystem* lustre = nullptr;
    hpc::Node* node = nullptr;  // MPI-IO needs the rank's node for striping
  };

  Io(sim::Engine& engine, const AdiosConfig& config, const GroupDecl& group,
     Backends backends, mem::ProcessMemory& memory, double cpu_speed = 1.0);

  // adios_open(..., "w"): method-level open (MPI-IO touches the MDS; the
  // staging methods initialize their clients).
  sim::Task<Status> open_write(const std::string& path);

  // adios_write: copies the slab into the group buffer. Fails with
  // kOutOfMemory when the configured buffer size would be exceeded (ADIOS
  // 1.x behavior).
  sim::Task<Status> write(const nda::VarDesc& var, const nda::Slab& slab);

  // adios_close: flushes the buffered writes through the method and
  // releases the buffer. For staging methods, data becomes visible to
  // readers only after commit() (the collective unlock).
  sim::Task<Status> close();

  // Collective step commit: exactly one rank (the writer root) calls this
  // after all ranks closed. Publishes the staged version (DataSpaces/DIMES);
  // no-op for MPI-IO and Flexpath (file visibility / queue semantics).
  sim::Task<Status> commit(const nda::VarDesc& var);

  // --- read API ---
  sim::Task<Status> open_read(const std::string& path);
  // adios_schedule_read + adios_perform_reads for one box selection.
  // Blocks until the requested version is available.
  sim::Task<Result<nda::Slab>> read(const nda::VarDesc& var,
                                    const nda::Box& box);
  // adios_advance_step on the reader side (Flexpath releases the step).
  sim::Task<Status> advance_step(int step);

  void finalize();

  std::uint64_t buffered_bytes() const { return buffered_bytes_; }

 private:
  struct Pending {
    nda::VarDesc var;
    nda::Slab slab;
  };

  sim::Engine* engine_;
  const AdiosConfig* config_;
  const GroupDecl* group_;
  Backends backends_;
  mem::ProcessMemory* memory_;
  double cpu_speed_;
  std::string path_;
  std::vector<Pending> pending_;
  std::uint64_t buffered_bytes_ = 0;
  std::shared_ptr<lustre::File> file_;
  bool open_ = false;
};

}  // namespace imc::adios

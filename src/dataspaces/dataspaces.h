// DataSpaces: shared-virtual-space data staging (Docan et al., reimplemented
// from the paper's description and the DataSpaces 1.7.2 design).
//
// Architecture (paper Fig. 1a): dedicated staging servers hold both staged
// data and its metadata/index. Clients interact through declarative
// put()/get() calls; a version board ("lock_on_read/write" in the real API,
// publish/wait_version here) couples writers and readers.
//
// Behaviours reproduced faithfully because the paper's findings depend on
// them:
//  * Region decomposition: 2^ceil(log2 ns) regions along the LONGEST global
//    dimension, assigned to servers sequentially; clients walk their
//    sub-regions in coordinate order (the N-to-1 convoy of Finding 3).
//  * One-sided data movement: the server grants a put/get descriptor and the
//    client moves data with RDMA directly into/out of pinned staging memory;
//    staged objects stay registered while staged, so registered-memory and
//    memory-handler caps are consumed as in §III-B1.
//  * SFC index cost charged on the staging servers (§III-B3, Fig. 6).
//  * max_versions eviction at publish time (Table I: max_versions=1).
//  * Optional 32-bit dimension compat mode reproducing Table IV's overflow.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "dataspaces/regions.h"
#include "staging/server_group.h"

namespace imc::dataspaces {

struct Config {
  int num_servers = 4;
  int servers_per_node = 2;  // paper §III-B1: two per staging node
  // Table I runtime configuration. lock_type and hash_version are recorded
  // for Table I only: the version board (publish / wait_version) is the
  // lock_type=2 writer/reader coupling every run uses.
  int lock_type = 2;
  int hash_version = 2;
  int max_versions = 1;
  // Legacy compat: 32-bit dimension arithmetic (Table IV overflow row).
  bool use_32bit_dims = false;
  // Table IV's suggested resolve for "out of RDMA memory": instead of
  // failing the put synchronously (the uGNI behavior that crashes the
  // paper's runs), the server waits and retries — eviction of retired
  // versions eventually frees registered memory.
  bool wait_retry_registration = false;
  double retry_interval_seconds = 0.05;
  int max_retry_attempts = 400;
  // Fixed library allocations, calibrated to Fig. 5 (client ~227 MB library
  // memory on top of the application state; servers carry a DART base pool).
  std::uint64_t client_base_bytes = 200 * kMiB;
  std::uint64_t server_base_bytes = 64 * kMiB;
  // Assemblies of mixed or materialized content larger than this stay
  // synthetic (content still verifiable; see nda::assemble).
  std::uint64_t materialize_cap_elems = 1ull << 22;
};

struct ServerStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t staged_bytes = 0;   // currently staged
  std::uint64_t evicted_objects = 0;
  std::uint64_t index_bytes = 0;    // currently charged
};

// --- the staging servers' side (internal; at namespace scope so the group
// core can name the Server type) ---

struct StagedObject {
  nda::Box box;
  nda::Slab slab;
  std::uint64_t bytes = 0;
  std::uint64_t registered = 0;  // RDMA-pinned bytes (0 on sockets/shm)
  int region = 0;  // staging region the box belongs to — the anchor of
                   // the replica chain this object must stay on
};
struct VersionEntry {
  std::vector<StagedObject> objects;
  // Position of the first placeholder still waiting for its PutCommit.
  // Every object before it holds content, and content is never taken
  // back, so a commit's scan starts here.
  std::size_t first_open = 0;
  // Spatial index over objects' boxes (ids are positions in `objects`),
  // so a get resolves overlaps without scanning every staged object.
  nda::BoxIndex index;
  std::uint64_t index_bytes = 0;
  // Variable descriptor (global dims + version), kept so the resilver can
  // rebuild a PutPrep for objects whose writer is long gone.
  nda::VarDesc desc;
};

// Server -> client protocol. Single-answer requests reply through a
// one-slot sim::Reply; a publish collects one ack per server on a Queue.
struct PutPrep {
  nda::VarDesc var;
  nda::Box box;
  std::uint64_t bytes;
  sim::Reply<Status>* reply;
  int region = 0;
};
struct PutCommit {
  nda::VarDesc var;
  nda::Slab slab;
};
struct GetReq {
  nda::VarDesc var;
  nda::Box box;
  net::Endpoint client;
  sim::Reply<Result<std::vector<nda::Slab>>>* reply;
};
using Request = std::variant<PutPrep, PutCommit, GetReq, staging::Publish,
                             staging::WaitVersion, staging::Shutdown>;

struct Server : staging::ServerBase<Request> {
  // Transparent comparators: hot-path lookups take string_view keys
  // without materializing std::string temporaries.
  std::map<std::string, std::map<int, VersionEntry>, std::less<>> staged;
  // Cube-model SFC bucket tables are per variable (one structure whose
  // entries are updated per version), charged on first contact.
  std::map<std::string, std::uint64_t, std::less<>> index_charged;
  ServerStats stats;
};

// The staging service on its server group (staging/server_group.h), which
// deploys the servers, keeps the version board, handles crashes and walks
// the replica chains.
class DataSpaces final : public staging::ServerGroup<Server, DataSpaces> {
 public:
  DataSpaces(sim::Engine& engine, hpc::Cluster& cluster,
             net::Transport& transport, Config config);

  const Config& config() const { return config_; }
  const ServerStats& server_stats(int s) const;

  // Aggregates across servers (benches).
  std::uint64_t total_staged_bytes() const;
  std::uint64_t total_index_bytes() const;

  // A per-rank client handle. The handle does not own the process memory;
  // the workflow harness allocates one ProcessMemory per rank.
  class Client {
   public:
    Client(DataSpaces& ds, net::Endpoint self, mem::ProcessMemory& memory)
        : ds_(&ds), self_(self), memory_(&memory) {}

    // dspaces_init: connect to every server (sockets consume descriptors,
    // RDMA acquires DRC credentials where required) and allocate the
    // client-side library pool.
    sim::Task<Status> init();

    // dspaces_put: stage one slab of `var`. Splits the slab by staging
    // region and moves each piece to its region's server in coordinate
    // order.
    sim::Task<Status> put(const nda::VarDesc& var, const nda::Slab& slab);

    // dspaces_get: retrieve `box` of `var`. The caller must have waited for
    // the version to be published.
    sim::Task<Result<nda::Slab>> get(const nda::VarDesc& var,
                                     const nda::Box& box);

    // dspaces_unlock_on_write: publish a completed version (called by one
    // designated writer after all ranks' puts finished). Triggers eviction
    // of versions older than max_versions.
    sim::Task<Status> publish(const nda::VarDesc& var) {
      return ds_->publish(self_, var);
    }

    // dspaces_lock_on_read: block until `version` of `var` is published.
    sim::Task<Status> wait_version(const std::string& var, int version) {
      return ds_->wait_version(self_, var, version);
    }

    // dspaces_finalize: release connections and the client pool.
    void finalize();

   private:
    DataSpaces* ds_;
    net::Endpoint self_;
    mem::ProcessMemory* memory_;
    bool initialized_ = false;
  };

 private:
  friend class Client;
  friend ServerGroup;

  sim::Task<> server_loop(Server& server);
  // Frees the staged objects and index tables a server still holds when it
  // exits its loop on Shutdown (the group then frees the rest).
  void teardown_server(Server& server);
  void evict_versions(Server& server, std::string_view var,
                      int newest_version);
  // Frees one version's staged objects and index entries.
  void release(Server& server, const VersionEntry& entry);
  // One staging attempt: eviction, index charge, memory + registration.
  Status try_stage(Server& server, const PutPrep& req);
  void handle_put_prep(Server& server, PutPrep& req);
  sim::Task<> retry_put_prep(Server& server, PutPrep req);
  // One attempt of the wait-and-retry loop (driven by fault::retry).
  sim::Task<Status> stage_attempt(Server& server, const PutPrep& req,
                                  int attempt);

  // --- what the group's replication core asks (staging/server_group.h) ---
  // A staged object's chain is anchored at its region's owner; a copy is
  // the PutPrep (reply-less) that stages it.
  using Replica = PutPrep;
  struct Chain {
    std::string var;
    int region;
    int anchor;
  };
  // Every region of every variable a client used, by name then region.
  std::vector<Chain> chains() const;
  // The chain's objects `server` stages, by version then staging order.
  std::vector<Replica> replicas(const Server& server,
                                const Chain& chain) const;
  bool holds(const Server& server, const Replica& replica) const;
  static std::uint64_t resilver_key(const Replica& replica);
  // One server-to-server object copy, for the resilver and the async put
  // alike: transfer out of the source's pinned staging memory, stage and
  // commit on the destination.
  sim::Task<Status> copy(int src_id, int dst_id, const Replica& replica);
  sim::Task<Status> forward(int src_id, int dst_id, const Replica& replica) {
    return copy(src_id, dst_id, replica);
  }

  void handle_put_commit(Server& server, PutCommit& req);
  sim::Task<> run_get(Server& server, GetReq req);

  const RegionSet& regions_of(const nda::VarDesc& var);

  // Per-request server costs: descriptor handling plus DHT/SFC index
  // insertion and uGNI handshakes. These fixed per-object costs are what
  // make the N-to-1 decomposition mismatch expensive at scale (each rank's
  // put shatters into one object per region, all served by the same
  // single-threaded servers in the same order).
  static constexpr double kServerServiceSeconds = 20e-6;
  static constexpr double kIndexOpSeconds = 60e-6;

  Config config_;
  // Values point into staging_regions_cached's process-lifetime cache.
  std::map<std::string, const RegionSet*, std::less<>> region_cache_;
};

}  // namespace imc::dataspaces

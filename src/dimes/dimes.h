// DIMES: in-situ staging with client-side storage (the DataSpaces library's
// second in-transit method, reimplemented from the paper's description).
//
// Differences from baseline DataSpaces that the paper's findings rest on:
//  * Staged data stays in the *writer's* memory (pre-registered RDMA buffer
//    of build-configurable size: -with-dimes-rdma-buffer-size); readers pull
//    directly memory-to-memory. Only metadata goes to the (few, standalone)
//    DIMES servers — the paper runs just 4 of them.
//  * Server memory is therefore small and flat (~154 MB in Fig. 6) while
//    client nodes carry the staging + registration burden — which is why
//    Laplace at 128 MB/proc exhausts Titan's registered memory on the
//    *compute* nodes (§III-B1).
//  * The spatial index is kept at the clients; metadata servers only map
//    (variable, version) -> object descriptors.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "fault/fault.h"
#include "ndarray/index.h"
#include "staging/server_group.h"

namespace imc::dimes {

struct Config {
  int num_servers = 4;  // metadata servers (paper §III-A)
  int servers_per_node = 2;
  // Build option -with-dimes-rdma-buffer-size (Table I: 1024/2048 MiB).
  std::uint64_t rdma_buffer_bytes = 1024 * kMiB;
  int max_versions = 1;
  bool use_32bit_dims = false;
  std::uint64_t client_base_bytes = 200 * kMiB;
  std::uint64_t server_base_bytes = 150 * kMiB;  // Fig. 6: ~154 MB flat
  std::uint64_t per_object_meta_bytes = 200;
  std::uint64_t materialize_cap_elems = 1ull << 22;
  // Metadata round trips (put descriptor / directory query) retry transient
  // transport timeouts under the shared policy; hard errors (kNotFound for
  // lagging readers, a crashed server's kConnectionFailed) surface
  // immediately.
  fault::RetryPolicy meta_retry{.max_attempts = 3, .initial_backoff = 2e-3};
};

struct ServerStats {
  std::uint64_t objects = 0;
  std::uint64_t queries = 0;
};

// --- the metadata servers' side (internal; at namespace scope so the group
// core can name the Server type) ---

struct ObjectDesc {
  nda::Box box;
  int owner_pid;
};
// One version's descriptors plus a spatial index over their boxes (ids
// are positions in `descs`), so queries skip non-intersecting objects.
struct VersionDescs {
  std::vector<ObjectDesc> descs;
  nda::BoxIndex index;
};

struct PutMeta {
  nda::VarDesc var;
  nda::Box box;
  int owner_pid;
  sim::Reply<Status>* reply;
};
struct QueryMeta {
  nda::VarDesc var;
  nda::Box box;
  sim::Reply<Result<std::vector<ObjectDesc>>>* reply;
};
using Request = std::variant<PutMeta, QueryMeta, staging::Publish,
                             staging::WaitVersion, staging::Shutdown>;

struct Server : staging::ServerBase<Request> {
  // var -> version -> descriptors (transparent comparator: lookups take
  // string_view keys without building std::string temporaries)
  std::map<std::string, std::map<int, VersionDescs>, std::less<>> directory;
  ServerStats stats;
};

// The DIMES metadata service on its server group (staging/server_group.h),
// which deploys the servers, keeps the version board, handles crashes and
// walks the replica chains.
class Dimes final : public staging::ServerGroup<Server, Dimes> {
 public:
  Dimes(sim::Engine& engine, hpc::Cluster& cluster, net::Transport& transport,
        Config config);

  const Config& config() const { return config_; }
  const ServerStats& server_stats(int s) const;

  class Client {
   public:
    Client(Dimes& dimes, net::Endpoint self, mem::ProcessMemory& memory)
        : dimes_(&dimes), self_(self), memory_(&memory) {}

    // dimes_init: register with the object directory, connect to metadata
    // servers and allocate the client pool.
    sim::Task<Status> init();

    // dimes_put: store the slab in the local RDMA buffer and publish its
    // descriptor to the responsible metadata server.
    sim::Task<Status> put(const nda::VarDesc& var, const nda::Slab& slab);

    // dimes_get: look up descriptors at the metadata server, then pull each
    // intersecting piece directly from its owner's memory.
    sim::Task<Result<nda::Slab>> get(const nda::VarDesc& var,
                                     const nda::Box& box);

    sim::Task<Status> publish(const nda::VarDesc& var) {
      return dimes_->publish(self_, var);
    }
    sim::Task<Status> wait_version(const std::string& var, int version) {
      return dimes_->wait_version(self_, var, version);
    }
    void finalize();

    std::uint64_t buffer_in_use() const { return buffer_used_; }

   private:
    friend class Dimes;

    struct LocalObject {
      nda::VarDesc var;
      nda::Slab slab;
      std::uint64_t bytes;
      std::uint64_t registered;
    };

    void evict_before(const std::string& var, int version);
    // Frees one staged object: staging memory, registration, audit entry.
    void release(const LocalObject& object);
    // One metadata round trip each (driven by fault::retry): control
    // message to the server, request, reply. The query variant delivers
    // its hits through `out`.
    sim::Task<Status> put_meta_once(Server& md, const nda::VarDesc& var,
                                    const nda::Box& box);
    sim::Task<Status> query_meta_once(Server& md, const nda::VarDesc& var,
                                      const nda::Box& box,
                                      std::vector<ObjectDesc>* out);

    Dimes* dimes_;
    net::Endpoint self_;
    mem::ProcessMemory* memory_;
    std::vector<LocalObject> store_;
    std::uint64_t buffer_used_ = 0;
    bool initialized_ = false;
  };

 private:
  friend class Client;
  friend ServerGroup;

  sim::Task<> server_loop(Server& server);

  // --- what the group's replication core asks (staging/server_group.h) ---
  // Staged data lives in client memory here, so what replication protects is
  // the *directory*: a variable's descriptors live on the chain anchored at
  // hash(name) % ns.
  int primary_of(const std::string& var_name) const {
    return static_cast<int>(std::hash<std::string>{}(var_name) %
                            servers_.size());
  }
  struct Replica {
    nda::VarDesc var;  // name and version
    ObjectDesc desc;
    std::uint64_t bytes;  // the directory entry's charge
  };
  struct Chain {
    std::string var;
    int anchor;
  };
  // Every variable a surviving directory holds, by name.
  std::vector<Chain> chains() const;
  // The variable's descriptors `server` holds, by version then put order.
  std::vector<Replica> replicas(const Server& server,
                                const Chain& chain) const;
  bool holds(const Server& server, const Replica& replica) const;
  static std::uint64_t resilver_key(const Replica& replica);
  // A control message to `dst`, which then inserts the descriptor: directly
  // for the resilver, as a queued PutMeta for the async put.
  sim::Task<Status> copy(int src, int dst, const Replica& replica);
  sim::Task<Status> forward(int src, int dst, const Replica& replica);

  static constexpr double kServerServiceSeconds = 8e-6;

  Config config_;
  std::map<int, Client*> clients_;  // pid -> client (object directory)
};

}  // namespace imc::dimes

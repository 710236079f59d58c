#include "dimes/dimes.h"

#include <functional>
#include <set>

#include "common/audit.h"
#include "trace/trace.h"

namespace imc::dimes {

Dimes::Dimes(sim::Engine& engine, hpc::Cluster& cluster,
             net::Transport& transport, Config config)
    : ServerGroup(engine, cluster, transport,
                  {.noun = "metadata",
                   .pid_base = 800000,
                   .memory_prefix = "dimes-server-",
                   .num_servers = config.num_servers,
                   .servers_per_node = config.servers_per_node,
                   .base_bytes = config.server_base_bytes}),
      config_(std::move(config)) {}

const ServerStats& Dimes::server_stats(int s) const {
  return servers_.at(static_cast<std::size_t>(s))->stats;
}

sim::Task<> Dimes::server_loop(Server& server) {
  for (;;) {
    Request request = co_await server.queue->pop();
    if (std::holds_alternative<staging::Shutdown>(request)) {
      // Free the metadata directory (the group then frees the base pool and
      // drops connections), so a finished run leaves nothing behind on the
      // staging nodes.
      std::uint64_t entries = 0;
      for (const auto& var : server.directory) {
        for (const auto& version : var.second) {
          entries += version.second.descs.size();
        }
      }
      server.memory->free(mem::Tag::kIndex,
                          config_.per_object_meta_bytes * entries);
      server.directory.clear();
      close(server);
      break;
    }
    if (server.crashed) {
      refuse(server, request);  // no service sleep either
      continue;
    }
    co_await engine_->sleep(kServerServiceSeconds);
    if (auto* put = std::get_if<PutMeta>(&request)) {
      if (Status st = server.memory->allocate(mem::Tag::kIndex,
                                              config_.per_object_meta_bytes);
          !st.is_ok()) {
        put->reply->push(st);
        continue;
      }
      VersionDescs& entry = server.directory[put->var.name][put->var.version];
      entry.descs.push_back(ObjectDesc{put->box, put->owner_pid});
      entry.index.insert(static_cast<int>(entry.descs.size()) - 1, put->box);
      ++server.stats.objects;
      put->reply->push(Status::ok());
    } else if (auto* query = std::get_if<QueryMeta>(&request)) {
      ++server.stats.queries;
      std::vector<ObjectDesc> hits;
      if (auto dit = server.directory.find(query->var.name);
          dit != server.directory.end()) {
        if (auto vit = dit->second.find(query->var.version);
            vit != dit->second.end()) {
          // Index hits arrive in publish order, matching the old scan.
          for (const auto& hit : vit->second.index.query(query->box)) {
            hits.push_back(
                vit->second.descs[static_cast<std::size_t>(hit.first)]);
          }
        }
      }
      if (hits.empty()) {
        query->reply->push(make_error(
            ErrorCode::kNotFound,
            "no descriptors for " + query->var.name + " v" +
                std::to_string(query->var.version)));
      } else {
        query->reply->push(std::move(hits));
      }
    } else if (auto* publish = std::get_if<staging::Publish>(&request)) {
      // Drop directory entries of evicted versions; clients evict their
      // local buffers on their own put/publish path.
      if (auto dit = server.directory.find(publish->var);
          dit != server.directory.end()) {
        auto& versions = dit->second;
        const int evict_upto = publish->version - config_.max_versions;
        for (auto it = versions.begin(); it != versions.end();) {
          if (it->first <= evict_upto) {
            server.memory->free(
                mem::Tag::kIndex,
                config_.per_object_meta_bytes * it->second.descs.size());
            it = versions.erase(it);
          } else {
            ++it;
          }
        }
      }
      board_publish(server, *publish);
    } else if (auto* wait = std::get_if<staging::WaitVersion>(&request)) {
      board_wait(*wait);
    }
  }
}

// -------------------------------------------------------- replication -----

std::vector<Dimes::Chain> Dimes::chains() const {
  std::set<std::string, std::less<>> names;
  for (const auto& server : servers_) {
    if (server->crashed) continue;
    for (const auto& var : server->directory) names.insert(var.first);
  }
  std::vector<Chain> chains;
  for (const std::string& name : names) {
    chains.push_back(Chain{name, primary_of(name)});
  }
  return chains;
}

std::vector<Dimes::Replica> Dimes::replicas(const Server& server,
                                            const Chain& chain) const {
  std::vector<Replica> held;
  auto dit = server.directory.find(chain.var);
  if (dit == server.directory.end()) return held;
  for (const auto& [version, entry] : dit->second) {
    for (const ObjectDesc& desc : entry.descs) {
      held.push_back(Replica{nda::VarDesc{chain.var, {}, version}, desc,
                             config_.per_object_meta_bytes});
    }
  }
  return held;
}

bool Dimes::holds(const Server& server, const Replica& replica) const {
  auto dit = server.directory.find(replica.var.name);
  if (dit == server.directory.end()) return false;
  auto vit = dit->second.find(replica.var.version);
  if (vit == dit->second.end()) return false;
  for (const ObjectDesc& held : vit->second.descs) {
    if (held.box == replica.desc.box &&
        held.owner_pid == replica.desc.owner_pid) {
      return true;
    }
  }
  return false;
}

std::uint64_t Dimes::resilver_key(const Replica& replica) {
  return splitmix64(std::hash<std::string>{}(replica.var.name) ^
                    static_cast<std::uint32_t>(replica.var.version));
}

sim::Task<Status> Dimes::copy(int src, int dst, const Replica& replica) {
  Server& from = server_at(src);
  Server& to = server_at(dst);
  if (Status st = co_await transport_->connect(from.endpoint, to.endpoint);
      !st.is_ok()) {
    co_return st;
  }
  if (Status st = co_await transport_->transfer(
          from.endpoint, to.endpoint, kCtrlBytes,
          {.src_pinned = true, .dst_pinned = true});
      !st.is_ok()) {
    co_return st;
  }
  co_await engine_->sleep(kServerServiceSeconds);
  // Re-validate after the awaits: either end may have crashed and the
  // source entry may have been evicted while the copy was in flight.
  if (from.crashed || to.crashed) {
    co_return crash_error(from.crashed ? src : dst, " mid-copy");
  }
  if (!holds(from, replica)) {
    co_return make_error(ErrorCode::kNotFound,
                         "source descriptor evicted mid-copy");
  }
  if (Status st = to.memory->allocate(mem::Tag::kIndex, replica.bytes);
      !st.is_ok()) {
    co_return st;
  }
  VersionDescs& entry = to.directory[replica.var.name][replica.var.version];
  entry.descs.push_back(replica.desc);
  entry.index.insert(static_cast<int>(entry.descs.size()) - 1,
                     replica.desc.box);
  ++to.stats.objects;
  co_return Status::ok();
}

sim::Task<Status> Dimes::forward(int src, int dst, const Replica& replica) {
  Server& from = server_at(src);
  Server& to = server_at(dst);
  if (from.crashed) co_return crash_error(src);
  if (Status st = co_await transport_->connect(from.endpoint, to.endpoint);
      !st.is_ok()) {
    co_return st;
  }
  if (Status st = co_await transport_->transfer(
          from.endpoint, to.endpoint, kCtrlBytes,
          {.src_pinned = true, .dst_pinned = true});
      !st.is_ok()) {
    co_return st;
  }
  sim::Reply<Status> reply(*engine_);
  to.queue->push(PutMeta{replica.var, replica.desc.box,
                         replica.desc.owner_pid, &reply});
  co_return co_await reply.pop();
}

// ------------------------------------------------------------- client -----

sim::Task<Status> Dimes::Client::init() {
  if (initialized_) co_return Status::ok();
  if (Status st = memory_->allocate(mem::Tag::kLibrary,
                                    dimes_->config_.client_base_bytes);
      !st.is_ok()) {
    co_return st;
  }
  if (Status st = co_await dimes_->connect(self_); !st.is_ok()) co_return st;
  dimes_->clients_[self_.pid] = this;
  initialized_ = true;
  co_return Status::ok();
}

void Dimes::Client::evict_before(const std::string& var, int version) {
  const int evict_upto = version - dimes_->config_.max_versions;
  auto it = store_.begin();
  while (it != store_.end()) {
    if (it->var.name == var && it->var.version <= evict_upto) {
      release(*it);
      it = store_.erase(it);
    } else {
      ++it;
    }
  }
}

void Dimes::Client::release(const LocalObject& object) {
  memory_->free(mem::Tag::kStaging, object.bytes);
  if (object.registered > 0) {
    self_.node->rdma().deregister(object.registered, memory_->audit_owner());
  }
  audit::release(audit::Resource::kStagedObject, memory_->audit_owner());
  buffer_used_ -= object.bytes;
}

sim::Task<Status> Dimes::Client::put(const nda::VarDesc& var,
                                     const nda::Slab& slab) {
  if (!initialized_) {
    co_return make_error(ErrorCode::kFailedPrecondition, "client not init'd");
  }
  if (dimes_->config_.use_32bit_dims) {
    if (Status st = nda::check_dims_32bit(var.global); !st.is_ok()) {
      co_return st;
    }
  }
  // Evict older versions from the local buffer first (max_versions).
  evict_before(var.name, var.version);

  const std::uint64_t bytes = slab.box().volume() * nda::kElementBytes;
  if (buffer_used_ + bytes > dimes_->config_.rdma_buffer_bytes) {
    co_return make_error(
        ErrorCode::kOutOfRdmaMemory,
        "DIMES RDMA buffer full: " + std::to_string(buffer_used_ + bytes) +
            " > " + std::to_string(dimes_->config_.rdma_buffer_bytes) + " B");
  }
  if (Status st = memory_->allocate(mem::Tag::kStaging, bytes); !st.is_ok()) {
    co_return st;
  }
  std::uint64_t registered = 0;
  if (dimes_->transport_is_rdma()) {
    // The staged object stays registered in the writer's memory until
    // evicted — this is what depletes compute-node registered memory at
    // 128 MB/proc on Titan (§III-B1).
    if (Status st =
            self_.node->rdma().register_memory(bytes, memory_->audit_owner());
        !st.is_ok()) {
      memory_->free(mem::Tag::kStaging, bytes);
      co_return st;
    }
    registered = bytes;
  }
  store_.push_back(LocalObject{var, slab.extract(slab.box()), bytes,
                               registered});
  audit::acquire(audit::Resource::kStagedObject, memory_->audit_owner());
  buffer_used_ += bytes;

  // Descriptor to the metadata chain. Each round trip retries transient
  // transport timeouts under the shared policy; a crashed server's
  // kConnectionFailed is not retryable — with replication on the walk skips
  // it and the descriptor re-homes on the next chain member.
  trace::Span span = trace::span(
      "dimes.put_meta", trace::Track{self_.node->id(), self_.pid});
  span.arg("bytes", static_cast<double>(bytes));
  const std::uint64_t meta_bytes = dimes_->config_.per_object_meta_bytes;
  Walk walk(*dimes_, dimes_->primary_of(var.name));
  while (Server* md = walk.next()) {
    fault::RetryPolicy policy = dimes_->config_.meta_retry;
    std::uint64_t key = 0;
    if (fault::Injector* injector = fault::active()) {
      key = injector->op_key(self_.pid, md->endpoint.pid);
      if (policy.seed == 0) policy.seed = injector->plan().seed;
    }
    Status st = co_await fault::retry(
        *dimes_->engine_, policy, key, "dimes put_meta",
        [this, md, &var, &slab](int) {
          return put_meta_once(*md, var, slab.box());
        },
        [](ErrorCode code) { return code == ErrorCode::kTimeout; });
    if (!st.is_ok()) {
      if (walk.skip(st)) continue;
      co_return st;
    }
    walk.acked(meta_bytes, [&] {
      return Replica{var, ObjectDesc{slab.box(), self_.pid}, meta_bytes};
    });
  }
  co_return walk.finish();
}

sim::Task<Status> Dimes::Client::put_meta_once(Server& md,
                                               const nda::VarDesc& var,
                                               const nda::Box& box) {
  if (Status st = co_await dimes_->transport_->transfer(
          self_, md.endpoint, kCtrlBytes,
          {.src_pinned = true, .dst_pinned = true});
      !st.is_ok()) {
    co_return st;
  }
  sim::Reply<Status> reply(*dimes_->engine_);
  md.queue->push(PutMeta{var, box, self_.pid, &reply});
  co_return co_await reply.pop();
}

sim::Task<Status> Dimes::Client::query_meta_once(
    Server& md, const nda::VarDesc& var, const nda::Box& box,
    std::vector<ObjectDesc>* out) {
  if (Status st = co_await dimes_->transport_->transfer(
          self_, md.endpoint, kCtrlBytes,
          {.src_pinned = true, .dst_pinned = true});
      !st.is_ok()) {
    co_return st;
  }
  sim::Reply<Result<std::vector<ObjectDesc>>> reply(*dimes_->engine_);
  md.queue->push(QueryMeta{var, box, &reply});
  Result<std::vector<ObjectDesc>> hits = co_await reply.pop();
  if (!hits.has_value()) co_return hits.status();
  *out = std::move(*hits);
  co_return Status::ok();
}

sim::Task<Result<nda::Slab>> Dimes::Client::get(const nda::VarDesc& var,
                                                const nda::Box& box) {
  if (!initialized_) {
    co_return make_error(ErrorCode::kFailedPrecondition, "client not init'd");
  }
  // Query the object directory (retrying transient transport timeouts),
  // probing the metadata chain past crashed members when replication is on.
  const trace::Track track{self_.node->id(), self_.pid};
  trace::Span query_span = trace::span("dimes.get.query", track);
  Walk walk(*dimes_, dimes_->primary_of(var.name));
  std::vector<ObjectDesc> descriptors;
  Status meta = Status::ok();
  while (Server* md = walk.next()) {
    fault::RetryPolicy policy = dimes_->config_.meta_retry;
    std::uint64_t key = 0;
    if (fault::Injector* injector = fault::active()) {
      key = injector->op_key(self_.pid, md->endpoint.pid);
      if (policy.seed == 0) policy.seed = injector->plan().seed;
    }
    meta = co_await fault::retry(
        *dimes_->engine_, policy, key, "dimes metadata query",
        [this, md, &var, &box, &descriptors](int) {
          return query_meta_once(*md, var, box, &descriptors);
        },
        [](ErrorCode code) { return code == ErrorCode::kTimeout; });
    if (meta.is_ok()) {
      walk.answered();
    } else if (!walk.skip(meta)) {
      break;
    }
  }
  query_span.end();
  if (!meta.is_ok()) {
    // Stopping or running out after a skipped dead member loses the
    // directory entries; the caller sees the last error as is.
    walk.lost();
    co_return meta;
  }

  // Pull each intersecting piece directly from its owner's memory.
  std::vector<nda::Slab> pieces;
  pieces.reserve(descriptors.size());
  std::uint64_t covered = 0;
  for (const auto& desc : descriptors) {
    auto overlap = nda::intersect(desc.box, box);
    if (!overlap) continue;
    Client* owner = dimes_->clients_[desc.owner_pid];
    if (owner == nullptr) {
      co_return make_error(ErrorCode::kNotFound,
                           "owner pid " + std::to_string(desc.owner_pid) +
                               " no longer registered");
    }
    if (Status st = co_await dimes_->transport_->connect(self_, owner->self_);
        !st.is_ok()) {
      co_return st;
    }
    net::TransferOptions opts;
    opts.src_pinned = true;  // staged data is pre-registered at the owner
    const std::uint64_t bytes = overlap->volume() * nda::kElementBytes;
    {
      trace::Span pull = trace::span("dimes.get.pull", track);
      pull.arg("bytes", static_cast<double>(bytes));
      if (Status st = co_await dimes_->transport_->transfer(owner->self_,
                                                            self_, bytes, opts);
          !st.is_ok()) {
        co_return st;
      }
    }
    for (const auto& object : owner->store_) {
      if (object.var == var && object.slab.box().contains(*overlap)) {
        pieces.push_back(object.slab.extract(*overlap));
        covered += overlap->volume();
        break;
      }
    }
  }
  if (covered < box.volume()) {
    co_return make_error(ErrorCode::kNotFound,
                         "descriptors cover only " + std::to_string(covered) +
                             " of " + std::to_string(box.volume()) +
                             " elements");
  }
  co_return nda::assemble(box, pieces, dimes_->config_.materialize_cap_elems);
}

void Dimes::Client::finalize() {
  if (!initialized_) return;
  for (const LocalObject& object : store_) release(object);
  store_.clear();
  dimes_->transport_->disconnect_all(self_);
  dimes_->clients_.erase(self_.pid);
  memory_->free(mem::Tag::kLibrary, dimes_->config_.client_base_bytes);
  initialized_ = false;
}

}  // namespace imc::dimes

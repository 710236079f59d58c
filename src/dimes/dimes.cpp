#include "dimes/dimes.h"

#include <algorithm>
#include <functional>

#include "common/audit.h"
#include "trace/trace.h"

namespace imc::dimes {
namespace {

// Whether `server`'s directory holds `desc` for version `version` of `name`.
bool holds(const Server& server, const std::string& name, int version,
           const ObjectDesc& desc) {
  auto dit = server.directory.find(name);
  if (dit == server.directory.end()) return false;
  auto vit = dit->second.find(version);
  if (vit == dit->second.end()) return false;
  for (const ObjectDesc& held : vit->second.descs) {
    if (held.box == desc.box && held.owner_pid == desc.owner_pid) return true;
  }
  return false;
}

}  // namespace

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
      for (const auto& [var, versions] : server.directory) {
        (void)var;
        for (const auto& [version, entry] : versions) {
          (void)version;
          entries += entry.descs.size();
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

sim::Task<> Dimes::async_put_meta(int src_id, nda::VarDesc var, nda::Box box,
                                  int owner_pid, int start_k, int want) {
  repl::Coordinator* coordinator = repl::active();
  const int ns = num_servers();
  const int primary = primary_of(var.name);
  Server& src = *servers_[static_cast<std::size_t>(src_id)];
  for (int k = start_k; k < ns && want > 0; ++k) {
    Server& md =
        *servers_[static_cast<std::size_t>(repl::chain_position(primary, k, ns))];
    if (md.crashed || src.crashed) continue;
    // Server-to-server descriptor forward: one control message plus the
    // destination's normal PutMeta service.
    if (Status st = co_await transport_->connect(src.endpoint, md.endpoint);
        !st.is_ok()) {
      continue;
    }
    if (Status st = co_await transport_->transfer(
            src.endpoint, md.endpoint, kCtrlBytes,
            {.src_pinned = true, .dst_pinned = true});
        !st.is_ok()) {
      continue;
    }
    sim::Reply<Status> reply(*engine_);
    md.queue->push(PutMeta{var, box, owner_pid, &reply});
    Status st = co_await reply.pop();
    if (st.is_ok()) {
      --want;
      if (coordinator != nullptr) {
        coordinator->note_replica_put(config_.per_object_meta_bytes);
      }
    }
  }
  if (want > 0 && coordinator != nullptr) coordinator->note_under_replicated();
}

sim::Task<Status> Dimes::meta_copy_once(std::string var_name, int version,
                                        ObjectDesc desc) {
  const int ns = num_servers();
  const int primary = primary_of(var_name);
  int src = -1;
  int dst = -1;
  for (int k = 0; k < ns; ++k) {
    const int id = repl::chain_position(primary, k, ns);
    Server& cand = *servers_[static_cast<std::size_t>(id)];
    if (cand.crashed) continue;
    const bool has = holds(cand, var_name, version, desc);
    if (has && src < 0) src = id;
    if (!has && dst < 0) dst = id;
  }
  if (src < 0) {
    co_return make_error(ErrorCode::kNotFound,
                         "no surviving descriptor of " + var_name + " v" +
                             std::to_string(version));
  }
  if (dst < 0) co_return Status::ok();  // chain already at target redundancy
  Server& from = *servers_[static_cast<std::size_t>(src)];
  Server& to = *servers_[static_cast<std::size_t>(dst)];
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
  if (!holds(from, var_name, version, desc)) {
    co_return make_error(ErrorCode::kNotFound,
                         "source descriptor evicted mid-copy");
  }
  if (Status st =
          to.memory->allocate(mem::Tag::kIndex, config_.per_object_meta_bytes);
      !st.is_ok()) {
    co_return st;
  }
  VersionDescs& entry = to.directory[var_name][version];
  entry.descs.push_back(desc);
  entry.index.insert(static_cast<int>(entry.descs.size()) - 1, desc.box);
  ++to.stats.objects;
  co_return Status::ok();
}

sim::Task<> Dimes::resilver(int crashed, double crashed_at) {
  repl::Coordinator* coordinator = repl::active();
  if (coordinator == nullptr) co_return;
  const Server& dead = *servers_[static_cast<std::size_t>(crashed)];
  trace::Span span = trace::span(
      "repl.resilver",
      trace::Track{dead.endpoint.node->id(), dead.endpoint.pid});
  span.arg("server", crashed);
  const fault::RetryPolicy policy = coordinator->policy().resilver_retry;
  const int ns = num_servers();
  std::uint64_t copies = 0;
  // Deterministic union of variable names across the surviving directories.
  std::map<std::string, int, std::less<>> names;
  for (const auto& server : servers_) {
    if (server->crashed) continue;
    for (const auto& [name, versions] : server->directory) {
      (void)versions;
      names.emplace(name, primary_of(name));
    }
  }
  for (const auto& [name, primary] : names) {
    int live = 0;
    Server* source = nullptr;
    for (int k = 0; k < ns; ++k) {
      Server& cand = *servers_[static_cast<std::size_t>(
          repl::chain_position(primary, k, ns))];
      if (cand.crashed) continue;
      ++live;
      if (source == nullptr && cand.directory.find(name) != cand.directory.end()) {
        source = &cand;
      }
    }
    const int goal = std::min(factor_, live);
    if (source == nullptr || goal == 0) continue;
    // Snapshot the surviving descriptors — the copy loop awaits, so iterate
    // the snapshot, not the live directory.
    struct Item {
      int version;
      ObjectDesc desc;
    };
    std::vector<Item> items;
    for (const auto& [version, entry] : source->directory.find(name)->second) {
      for (const ObjectDesc& desc : entry.descs) {
        items.push_back(Item{version, desc});
      }
    }
    for (const Item& item : items) {
      int holders = 0;
      for (int k = 0; k < ns; ++k) {
        Server& cand = *servers_[static_cast<std::size_t>(
            repl::chain_position(primary, k, ns))];
        if (!cand.crashed && holds(cand, name, item.version, item.desc)) {
          ++holders;
        }
      }
      for (int deficit = goal - holders; deficit > 0; --deficit) {
        const std::uint64_t op_key = splitmix64(
            std::hash<std::string>{}(name) ^
            static_cast<std::uint32_t>(item.version));
        Status st = co_await fault::retry(
            *engine_, policy, op_key, "dimes resilver copy",
            [this, &name, &item](int) {
              return meta_copy_once(name, item.version, item.desc);
            });
        if (st.is_ok()) {
          ++copies;
          coordinator->note_resilver_copy(config_.per_object_meta_bytes);
        } else if (st.code() == ErrorCode::kNotFound) {
          break;  // evicted mid-resilver — moot, not a failure
        } else {
          coordinator->note_resilver_failure();
          coordinator->note_under_replicated();
          break;
        }
      }
    }
  }
  span.arg("copies", static_cast<double>(copies));
  coordinator->note_redundancy_restored(engine_->now() - crashed_at);
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
      memory_->free(mem::Tag::kStaging, it->bytes);
      if (it->registered > 0) {
        self_.node->rdma().deregister(it->registered, memory_->audit_owner());
      }
      audit::release(audit::Resource::kStagedObject, memory_->audit_owner());
      buffer_used_ -= it->bytes;
      it = store_.erase(it);
    } else {
      ++it;
    }
  }
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
  const auto kind = dimes_->transport_->kind();
  if (kind == net::TransportKind::kRdmaUgni ||
      kind == net::TransportKind::kRdmaNnti) {
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
  const int ns = dimes_->num_servers();
  const int factor = dimes_->factor_;
  const int primary = dimes_->primary_of(var.name);
  const int probe_span = factor > 1 ? ns : 1;
  int acks = 0;
  int first_ack = -1;
  bool async_handoff = false;
  Status refusal = Status::ok();
  for (int k = 0; k < probe_span && acks < factor; ++k) {
    const int s = repl::chain_position(primary, k, ns);
    Server& md = *dimes_->servers_[static_cast<std::size_t>(s)];
    fault::RetryPolicy policy = dimes_->config_.meta_retry;
    std::uint64_t key = 0;
    if (fault::Injector* injector = fault::active()) {
      key = injector->op_key(self_.pid, md.endpoint.pid);
      if (policy.seed == 0) policy.seed = injector->plan().seed;
    }
    Status st = co_await fault::retry(
        *dimes_->engine_, policy, key, "dimes put_meta",
        [this, &md, &var, &slab](int) {
          return put_meta_once(md, var, slab.box());
        },
        [](ErrorCode code) { return code == ErrorCode::kTimeout; });
    if (!st.is_ok()) {
      if (factor > 1 && st.code() == ErrorCode::kConnectionFailed) {
        refusal = std::move(st);
        continue;
      }
      co_return st;
    }
    ++acks;
    if (first_ack < 0) first_ack = s;
    if (acks > 1) {
      if (repl::Coordinator* coordinator = repl::active()) {
        coordinator->note_replica_put(dimes_->config_.per_object_meta_bytes);
      }
    }
    if (dimes_->mode_ == repl::Mode::kAsync && acks >= dimes_->quorum_ &&
        acks < factor) {
      dimes_->engine_->spawn(dimes_->async_put_meta(
          first_ack, var, slab.box(), self_.pid, k + 1, factor - acks));
      async_handoff = true;
      break;
    }
  }
  if (acks == 0) {
    co_return refusal.is_ok()
                  ? make_error(ErrorCode::kConnectionFailed,
                               "no metadata server reachable for " + var.name)
                  : refusal;
  }
  if (acks < factor && !async_handoff) {
    if (repl::Coordinator* coordinator = repl::active()) {
      coordinator->note_under_replicated();
    }
  }
  co_return Status::ok();
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
  const int ns = dimes_->num_servers();
  const int factor = dimes_->factor_;
  const int primary = dimes_->primary_of(var.name);
  const int probe_span = factor > 1 ? ns : 1;
  std::vector<ObjectDesc> descriptors;
  int skipped = 0;
  bool resolved = false;
  Status meta = Status::ok();
  for (int k = 0; k < probe_span; ++k) {
    Server& md = *dimes_->servers_[static_cast<std::size_t>(
        repl::chain_position(primary, k, ns))];
    fault::RetryPolicy policy = dimes_->config_.meta_retry;
    std::uint64_t key = 0;
    if (fault::Injector* injector = fault::active()) {
      key = injector->op_key(self_.pid, md.endpoint.pid);
      if (policy.seed == 0) policy.seed = injector->plan().seed;
    }
    meta = co_await fault::retry(
        *dimes_->engine_, policy, key, "dimes metadata query",
        [this, &md, &var, &box, &descriptors](int) {
          return query_meta_once(md, var, box, &descriptors);
        },
        [](ErrorCode code) { return code == ErrorCode::kTimeout; });
    if (meta.is_ok()) {
      if (skipped > 0) {
        // Served past a dead chain member — transparent to the caller, but
        // the durability ledger records the degraded read.
        if (repl::Coordinator* coordinator = repl::active()) {
          coordinator->note_degraded_get();
        }
      }
      resolved = true;
      break;
    }
    if (factor > 1 && meta.code() == ErrorCode::kConnectionFailed) {
      ++skipped;
      continue;
    }
    if (factor > 1 && meta.code() == ErrorCode::kNotFound && skipped > 0) {
      // A dead member earlier in the chain may have re-homed the
      // descriptors further down (put-time failover); keep probing.
      continue;
    }
    break;
  }
  query_span.end();
  if (!resolved) {
    if (factor > 1 && skipped > 0) {
      // The whole chain refused or came up empty: the directory entries
      // out-lived their redundancy.
      if (repl::Coordinator* coordinator = repl::active()) {
        coordinator->note_object_lost();
      }
    }
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
  for (auto& object : store_) {
    memory_->free(mem::Tag::kStaging, object.bytes);
    if (object.registered > 0) {
      self_.node->rdma().deregister(object.registered,
                                    memory_->audit_owner());
    }
    audit::release(audit::Resource::kStagedObject, memory_->audit_owner());
  }
  store_.clear();
  buffer_used_ = 0;
  dimes_->transport_->disconnect_all(self_);
  dimes_->clients_.erase(self_.pid);
  memory_->free(mem::Tag::kLibrary, dimes_->config_.client_base_bytes);
  initialized_ = false;
}

}  // namespace imc::dimes

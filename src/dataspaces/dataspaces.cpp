#include "dataspaces/dataspaces.h"

#include <algorithm>
#include <cassert>

#include "common/audit.h"
#include "common/log.h"
#include "fault/fault.h"
#include "net/fabric.h"
#include "trace/trace.h"

namespace imc::dataspaces {
namespace {

// The copy of object (var, region, box) that `server` stages, if any.
const StagedObject* find_copy(const Server& server, const nda::VarDesc& var,
                              int region, const nda::Box& box) {
  auto sit = server.staged.find(var.name);
  if (sit == server.staged.end()) return nullptr;
  auto vit = sit->second.find(var.version);
  if (vit == sit->second.end()) return nullptr;
  for (const StagedObject& object : vit->second.objects) {
    if (object.region == region && object.box == box) return &object;
  }
  return nullptr;
}

// Resource exhaustion, which can clear as retired versions are evicted (a
// crashed server's kConnectionFailed never will).
bool exhausted(ErrorCode code) {
  return code == ErrorCode::kOutOfRdmaMemory ||
         code == ErrorCode::kOutOfRdmaHandlers ||
         code == ErrorCode::kOutOfMemory;
}

}  // namespace

DataSpaces::DataSpaces(sim::Engine& engine, hpc::Cluster& cluster,
                       net::Transport& transport, Config config)
    : ServerGroup(engine, cluster, transport,
                  {.noun = "staging",
                   .pid_base = 900000,
                   .memory_prefix = "ds-server-",
                   .num_servers = config.num_servers,
                   .servers_per_node = config.servers_per_node,
                   .base_bytes = config.server_base_bytes}),
      config_(std::move(config)) {}

const ServerStats& DataSpaces::server_stats(int s) const {
  return servers_.at(static_cast<std::size_t>(s))->stats;
}

std::uint64_t DataSpaces::total_staged_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->stats.staged_bytes;
  return total;
}

std::uint64_t DataSpaces::total_index_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->stats.index_bytes;
  return total;
}

const RegionSet& DataSpaces::regions_of(const nda::VarDesc& var) {
  auto it = region_cache_.find(var.name);
  if (it == region_cache_.end()) {
    it = region_cache_
             .emplace(var.name,
                      &staging_regions_cached(var.global, num_servers()))
             .first;
  }
  return *it->second;
}

// ------------------------------------------------------------- server -----

sim::Task<> DataSpaces::server_loop(Server& server) {
  for (;;) {
    Request request = co_await server.queue->pop();
    if (std::holds_alternative<staging::Shutdown>(request)) {
      teardown_server(server);
      close(server);
      break;
    }
    if (server.crashed) {
      refuse(server, request);
      continue;
    }
    // Serialized per-request service on the single-threaded server.
    co_await engine_->sleep(kServerServiceSeconds);
    if (std::holds_alternative<PutPrep>(request) ||
        std::holds_alternative<GetReq>(request)) {
      // DHT/SFC index update for an incoming object descriptor, or the
      // lookup resolving a requested box.
      TRACE_SPAN("ds.index_op", server.endpoint.node->id(),
                 server.endpoint.pid);
      co_await engine_->sleep(kIndexOpSeconds);
    }
    if (auto* prep = std::get_if<PutPrep>(&request)) {
      handle_put_prep(server, *prep);
    } else if (auto* commit = std::get_if<PutCommit>(&request)) {
      handle_put_commit(server, *commit);
    } else if (auto* get = std::get_if<GetReq>(&request)) {
      // Bulk movement overlaps with serving other requests (one-sided RDMA
      // from pinned staging memory).
      engine_->spawn(run_get(server, std::move(*get)));
    } else if (auto* publish = std::get_if<staging::Publish>(&request)) {
      evict_versions(server, publish->var, publish->version);
      board_publish(server, *publish);
    } else if (auto* wait = std::get_if<staging::WaitVersion>(&request)) {
      board_wait(*wait);
    }
  }
}

Status DataSpaces::try_stage(Server& server, const PutPrep& req) {
  auto& versions = server.staged[req.var.name];
  // max_versions also binds on the write path: when version v starts
  // arriving, versions older than the window *relative to the previous
  // version* are dropped (v-1 stays readable until v is published).
  evict_versions(server, req.var.name, req.var.version - 1);
  // Charge the SFC index: the cube bucket table once per variable; the
  // per-object entries (rank >= 3 data) per staged object, released with
  // the object's version.
  auto [vit, fresh_version] = versions.try_emplace(req.var.version);
  (void)fresh_version;
  vit->second.desc = req.var;
  const bool per_object_index = !index_uses_cube(req.var.global);
  std::uint64_t entries = 0;
  if (per_object_index) {
    entries = index_bytes_for_object(req.box.volume());
    if (Status st = server.memory->allocate(mem::Tag::kIndex, entries);
        !st.is_ok()) {
      return st;
    }
  } else {
    auto [iit, fresh_var] = server.index_charged.try_emplace(req.var.name, 0);
    if (fresh_var) {
      const std::uint64_t table =
          index_bytes_per_server(req.var.global, num_servers());
      if (Status st = server.memory->allocate(mem::Tag::kIndex, table);
          !st.is_ok()) {
        server.index_charged.erase(req.var.name);
        return st;
      }
      iit->second = table;
      server.stats.index_bytes += table;
    }
  }
  // A failed attempt gives its per-object entries back, so a put retried
  // under wait_retry_registration stays charged once.
  const auto unwind_index = [&] {
    if (per_object_index) server.memory->free(mem::Tag::kIndex, entries);
  };

  // Reserve staging memory for the incoming object.
  if (Status st = server.memory->allocate(mem::Tag::kStaging, req.bytes);
      !st.is_ok()) {
    unwind_index();
    return st;
  }
  // Pin it for one-sided RDMA; stays pinned while staged (§III-B1).
  std::uint64_t registered = 0;
  if (transport_is_rdma()) {
    if (Status st = server.endpoint.node->rdma().register_memory(
            req.bytes, server.memory->audit_owner());
        !st.is_ok()) {
      server.memory->free(mem::Tag::kStaging, req.bytes);
      unwind_index();
      return st;
    }
    registered = req.bytes;
  }
  vit->second.index_bytes += entries;
  server.stats.index_bytes += entries;
  // Record a placeholder; the content arrives with PutCommit.
  vit->second.objects.push_back(
      StagedObject{req.box, nda::Slab(), req.bytes, registered, req.region});
  vit->second.index.insert(
      static_cast<int>(vit->second.objects.size()) - 1, req.box);
  audit::acquire(audit::Resource::kStagedObject,
                 server.memory->audit_owner());
  server.stats.staged_bytes += req.bytes;
  ++server.stats.puts;
  return Status::ok();
}

void DataSpaces::handle_put_prep(Server& server, PutPrep& req) {
  Status st = try_stage(server, req);
  if (!st.is_ok() && exhausted(st.code()) && config_.wait_retry_registration) {
    // Table IV's resolve: wait and retry off the main service loop;
    // eviction of retired versions frees registered memory over time.
    engine_->spawn(retry_put_prep(server, std::move(req)));
    return;
  }
  req.reply->push(st);
}

sim::Task<Status> DataSpaces::stage_attempt(Server& server,
                                            const PutPrep& req, int attempt) {
  if (server.crashed) co_return crash_error(server.id);
  if (attempt >= 1) {
    // Waiting alone cannot help while the previous version stays pinned
    // (its publish waits on this very put). max_versions=1 permits
    // dropping versions older than the one arriving; lagging readers see
    // NOT_FOUND — the same trade the real library makes.
    evict_versions(server, req.var.name, req.var.version);
  }
  co_return try_stage(server, req);
}

sim::Task<> DataSpaces::retry_put_prep(Server& server, PutPrep req) {
  // The wait-and-retry resolve on the shared fault::RetryPolicy: a fixed
  // interval (multiplier 1, no jitter) preserves the historical 50 ms
  // cadence, and exhausting max_retry_attempts now surfaces a typed
  // kTimeout wrapping the last resource error instead of silently dropping
  // the put.
  fault::RetryPolicy policy;
  policy.max_attempts = config_.max_retry_attempts;
  policy.initial_backoff = config_.retry_interval_seconds;
  policy.backoff_multiplier = 1.0;
  policy.max_backoff = config_.retry_interval_seconds;
  policy.jitter = 0.0;
  policy.delay_first = true;
  Status st = co_await fault::retry(
      *engine_, policy, /*op_key=*/0, "ds put wait-and-retry",
      [this, &server, &req](int attempt) {
        return stage_attempt(server, req, attempt);
      },
      &exhausted);
  req.reply->push(st);
}

void DataSpaces::handle_put_commit(Server& server, PutCommit& req) {
  auto sit = server.staged.find(req.var.name);
  if (sit == server.staged.end()) return;  // evicted already
  auto vit = sit->second.find(req.var.version);
  if (vit == sit->second.end()) return;  // evicted already
  // The content lands in the first placeholder with an equal box; every
  // object before the cursor already holds content and cannot match.
  auto& objects = vit->second.objects;
  std::size_t& open = vit->second.first_open;
  for (std::size_t i = open; i < objects.size(); ++i) {
    if (objects[i].box == req.slab.box() && !objects[i].slab.box().volume()) {
      objects[i].slab = std::move(req.slab);
      while (open < objects.size() && objects[open].slab.box().volume()) {
        ++open;
      }
      return;
    }
  }
}

void DataSpaces::evict_versions(Server& server, std::string_view var,
                                int newest_version) {
  // Evict versions older than max_versions (Table I: max_versions=1 keeps
  // only the newest version).
  auto sit = server.staged.find(var);
  if (sit == server.staged.end()) return;
  // Versions are ordered, so the evicted ones are a prefix.
  auto& versions = sit->second;
  const int evict_upto = newest_version - config_.max_versions;
  while (!versions.empty() && versions.begin()->first <= evict_upto) {
    release(server, versions.begin()->second);
    server.stats.evicted_objects += versions.begin()->second.objects.size();
    versions.erase(versions.begin());
  }
}

void DataSpaces::release(Server& server, const VersionEntry& entry) {
  audit::Owner& owner = server.memory->audit_owner();
  for (const StagedObject& object : entry.objects) {
    server.memory->free(mem::Tag::kStaging, object.bytes);
    if (object.registered > 0) {
      server.endpoint.node->rdma().deregister(object.registered, owner);
    }
    audit::release(audit::Resource::kStagedObject, owner);
    server.stats.staged_bytes -= object.bytes;
  }
  server.memory->free(mem::Tag::kIndex, entry.index_bytes);
  server.stats.index_bytes -= entry.index_bytes;
}

void DataSpaces::teardown_server(Server& server) {
  for (const auto& var : server.staged) {
    for (const auto& version : var.second) release(server, version.second);
  }
  server.staged.clear();
  for (const auto& charged : server.index_charged) {
    server.memory->free(mem::Tag::kIndex, charged.second);
    server.stats.index_bytes -= charged.second;
  }
  server.index_charged.clear();
}

sim::Task<> DataSpaces::run_get(Server& server, GetReq req) {
  std::vector<nda::Slab> pieces;
  std::uint64_t total_bytes = 0;
  const VersionEntry* entry = nullptr;
  if (auto sit = server.staged.find(req.var.name); sit != server.staged.end()) {
    if (auto vit = sit->second.find(req.var.version); vit != sit->second.end()) {
      entry = &vit->second;
    }
  }
  if (entry != nullptr) {
    // Spatial-index lookup; hits come back in staging order, matching the
    // linear scan this replaces.
    const auto hits = entry->index.query(req.box);
    pieces.reserve(hits.size());
    for (const auto& [obj_idx, overlap] : hits) {
      const auto& object = entry->objects[static_cast<std::size_t>(obj_idx)];
      if (object.slab.box().volume() > 0) {
        pieces.push_back(object.slab.extract(overlap));
      } else {
        // Content never committed (put aborted mid-flight).
        pieces.push_back(nda::Slab::zeros(overlap));
      }
      total_bytes += overlap.volume() * nda::kElementBytes;
    }
  }
  if (pieces.empty()) {
    req.reply->push(make_error(
        ErrorCode::kNotFound, "no staged data for " + req.var.name +
                                  " v" + std::to_string(req.var.version) +
                                  " in " + req.box.to_string()));
    co_return;
  }
  ++server.stats.gets;
  // One-sided transfer out of pinned staging memory into the client.
  trace::Span span = trace::span(
      "ds.serve_get",
      trace::Track{server.endpoint.node->id(), server.endpoint.pid});
  span.arg("bytes", static_cast<double>(total_bytes));
  span.arg("pieces", static_cast<double>(pieces.size()));
  net::TransferOptions opts;
  opts.src_pinned = true;
  Status st = co_await transport_->transfer(server.endpoint, req.client,
                                            total_bytes, opts);
  if (!st.is_ok()) {
    req.reply->push(st);
    co_return;
  }
  req.reply->push(std::move(pieces));
}

// -------------------------------------------------------- replication -----

std::vector<DataSpaces::Chain> DataSpaces::chains() const {
  std::vector<Chain> chains;
  for (const auto& [var, regions] : region_cache_) {
    const int region_count = static_cast<int>(regions->boxes.size());
    for (int region = 0; region < region_count; ++region) {
      chains.push_back(
          Chain{var, region, server_of_region(region, num_servers())});
    }
  }
  return chains;
}

std::vector<DataSpaces::Replica> DataSpaces::replicas(
    const Server& server, const Chain& chain) const {
  std::vector<Replica> held;
  auto sit = server.staged.find(chain.var);
  if (sit == server.staged.end()) return held;
  for (const auto& [version, entry] : sit->second) {
    (void)version;
    for (const StagedObject& object : entry.objects) {
      if (object.region == chain.region) {
        held.push_back(Replica{entry.desc, object.box, object.bytes,
                               /*reply=*/nullptr, chain.region});
      }
    }
  }
  return held;
}

bool DataSpaces::holds(const Server& server, const Replica& replica) const {
  return find_copy(server, replica.var, replica.region, replica.box) !=
         nullptr;
}

std::uint64_t DataSpaces::resilver_key(const Replica& replica) {
  return splitmix64(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(replica.region))
       << 32) ^
      static_cast<std::uint32_t>(replica.var.version));
}

sim::Task<Status> DataSpaces::copy(int src_id, int dst_id,
                                   const Replica& replica) {
  Server& src = server_at(src_id);
  Server& dst = server_at(dst_id);
  if (src.crashed || dst.crashed) {
    co_return crash_error(src.crashed ? src_id : dst_id);
  }
  trace::Span span = trace::span(
      "repl.copy", trace::Track{dst.endpoint.node->id(), dst.endpoint.pid});
  span.arg("bytes", static_cast<double>(replica.bytes));
  // Server-to-server lanes are lazy: servers only talk to clients until the
  // first replica copy needs a peer connection (connect is idempotent).
  if (Status st = co_await transport_->connect(src.endpoint, dst.endpoint);
      !st.is_ok()) {
    co_return st;
  }
  // Descriptor handling + index insertion on the destination.
  co_await engine_->sleep(kServerServiceSeconds + kIndexOpSeconds);
  // One-sided movement between the two pinned staging regions.
  net::TransferOptions opts;
  opts.src_pinned = true;
  opts.dst_pinned = transport_is_rdma();
  if (Status st = co_await transport_->transfer(src.endpoint, dst.endpoint,
                                                replica.bytes, opts);
      !st.is_ok()) {
    co_return st;
  }
  // Re-validate after the awaits: either end may have crashed and the source
  // object may have been evicted while the copy was in flight.
  if (src.crashed || dst.crashed) {
    co_return crash_error(src.crashed ? src_id : dst_id, " mid-copy");
  }
  const nda::VarDesc& var = replica.var;
  const StagedObject* found = find_copy(src, var, replica.region, replica.box);
  if (found == nullptr) {
    co_return make_error(ErrorCode::kNotFound,
                         "source object of " + var.name + " v" +
                             std::to_string(var.version) +
                             " evicted mid-copy");
  }
  // Dedupe: a racing resilver (or the original put) may have landed the
  // object on `dst` while this copy was in flight.
  if (holds(dst, replica)) co_return Status::ok();
  if (Status st = try_stage(dst, replica); !st.is_ok()) co_return st;
  // No co_await between try_stage and this commit, so the placeholder just
  // pushed is still objects.back().
  dst.staged[var.name][var.version].objects.back().slab = found->slab;
  co_return Status::ok();
}

// ------------------------------------------------------------- client -----

sim::Task<Status> DataSpaces::Client::init() {
  if (initialized_) co_return Status::ok();
  if (Status st =
          memory_->allocate(mem::Tag::kLibrary, ds_->config_.client_base_bytes);
      !st.is_ok()) {
    co_return st;
  }
  if (Status st = co_await ds_->connect(self_); !st.is_ok()) co_return st;
  initialized_ = true;
  co_return Status::ok();
}

sim::Task<Status> DataSpaces::Client::put(const nda::VarDesc& var,
                                          const nda::Slab& slab) {
  if (!initialized_) {
    co_return make_error(ErrorCode::kFailedPrecondition, "client not init'd");
  }
  if (ds_->config_.use_32bit_dims) {
    if (Status st = nda::check_dims_32bit(var.global); !st.is_ok()) {
      co_return st;
    }
  }
  const RegionSet& regions = ds_->regions_of(var);
  // Sub-regions visited in coordinate order — every rank walks servers in
  // the same sequence (Finding 3's convoy when decompositions mismatch).
  const auto hits = regions.index.query(slab.box());
  // Fan-in degree: how many server regions one rank's output decomposes
  // into (the N-to-1 pressure behind Finding 3).
  trace::count("ds.put.fanout", static_cast<double>(hits.size()));
  trace::Span span =
      trace::span("ds.put", trace::Track{self_.node->id(), self_.pid});
  span.arg("fanout", static_cast<double>(hits.size()));
  for (const auto& [region_idx, overlap] : hits) {
    const std::uint64_t bytes = overlap.volume() * nda::kElementBytes;
    // The region owner's chain (the owner alone when unreplicated). A
    // crashed member's refused grant moves the piece down the chain; a
    // failed data transfer fails the put.
    Walk walk(*ds_, server_of_region(region_idx, ds_->num_servers()));
    while (Server* server = walk.next()) {
      // Descriptor request/grant round trip.
      sim::Reply<Status> reply(*ds_->engine_);
      co_await ds_->transport_->transfer(
          self_, server->endpoint, kCtrlBytes,
          {.src_pinned = true, .dst_pinned = true});
      server->queue->push(PutPrep{var, overlap, bytes, &reply, region_idx});
      Status granted = co_await reply.pop();
      if (!granted.is_ok()) {
        if (walk.skip(granted)) continue;
        co_return granted;
      }

      // One-sided data movement into the pinned staging region.
      net::TransferOptions opts;
      opts.dst_pinned = true;  // server pre-registered the staging object
      Status st = co_await ds_->transport_->transfer(self_, server->endpoint,
                                                     bytes, opts);
      if (!st.is_ok()) co_return st;

      server->queue->push(PutCommit{var, slab.extract(overlap)});
      walk.acked(bytes, [&] {
        return PutPrep{var, overlap, bytes, /*reply=*/nullptr, region_idx};
      });
    }
    if (Status st = walk.finish(); !st.is_ok()) co_return st;
  }
  co_return Status::ok();
}

sim::Task<Result<nda::Slab>> DataSpaces::Client::get(const nda::VarDesc& var,
                                                     const nda::Box& box) {
  if (!initialized_) {
    co_return make_error(ErrorCode::kFailedPrecondition, "client not init'd");
  }
  const RegionSet& regions = ds_->regions_of(var);
  trace::Span span =
      trace::span("ds.get", trace::Track{self_.node->id(), self_.pid});
  const auto hits = regions.index.query(box);
  std::vector<nda::Slab> pieces;
  pieces.reserve(hits.size());
  for (const auto& [region_idx, overlap] : hits) {
    // Failover probe down the region owner's chain until a live member
    // serves the piece (the owner alone when unreplicated).
    Walk walk(*ds_, server_of_region(region_idx, ds_->num_servers()));
    Status last = Status::ok();
    while (Server* server = walk.next()) {
      sim::Reply<Result<std::vector<nda::Slab>>> reply(*ds_->engine_);
      co_await ds_->transport_->transfer(
          self_, server->endpoint, kCtrlBytes,
          {.src_pinned = true, .dst_pinned = true});
      server->queue->push(GetReq{var, overlap, self_, &reply});
      auto piece = co_await reply.pop();
      if (piece.has_value()) {
        walk.answered();
        for (auto& p : *piece) pieces.push_back(std::move(p));
      } else {
        last = piece.status();
        if (!walk.skip(last)) co_return last;
      }
    }
    if (walk.lost()) {
      // The whole chain refused or came up empty: the object out-lived its
      // redundancy. This is the only place replication admits data loss.
      co_return make_error(ErrorCode::kNotFound,
                           "region " + std::to_string(region_idx) + " of " +
                               var.name + " v" +
                               std::to_string(var.version) + " lost (" +
                               std::to_string(walk.skipped()) +
                               " dead replica(s)); last error: " +
                               last.to_string());
    }
  }
  if (pieces.empty()) {
    co_return make_error(ErrorCode::kNotFound,
                         "nothing staged intersects " + box.to_string());
  }

  // Assemble the requested slab from the returned pieces.
  std::uint64_t covered = 0;
  for (const auto& p : pieces) covered += p.box().volume();
  if (covered < box.volume()) {
    co_return make_error(ErrorCode::kNotFound,
                         "staged data covers only " + std::to_string(covered) +
                             " of " + std::to_string(box.volume()) +
                             " elements of " + box.to_string());
  }
  co_return nda::assemble(box, pieces, ds_->config_.materialize_cap_elems);
}

void DataSpaces::Client::finalize() {
  if (!initialized_) return;
  ds_->transport_->disconnect_all(self_);
  memory_->free(mem::Tag::kLibrary, ds_->config_.client_base_bytes);
  initialized_ = false;
}

}  // namespace imc::dataspaces

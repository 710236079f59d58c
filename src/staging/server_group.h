// The server group both DataSpaces-package methods run on (paper Fig. 1,
// §III-A): dedicated staging servers for DataSpaces, metadata servers for
// DIMES. The group owns what the two share, written once: deployment, the
// version board that couples writers and readers (dspaces_lock_on_read /
// unlock_on_write), scheduled server crashes, the client side of
// publish/wait, and replication (imc::repl): the chain walks of puts and
// gets, the async forwarder and the resilver.
//
// Each library derives from ServerGroup<Server, Lib> (Lib is the library
// itself) and keeps its own server loop, request handlers and put/get
// loops. It calls in here for Shutdown, refusal while crashed, Publish and
// WaitVersion, and its loops walk replica chains with a Walk; nothing here
// runs per put/get request beyond those calls. The group calls back into
// Lib, non-virtually, once per server, per crash or per replica copy:
//   sim::Task<> server_loop(Server&);
//   std::vector<Chain> chains() const;  // scan order; Chain::anchor is the
//                                       // server at chain position 0
//   std::vector<Replica> replicas(const Server&, const Chain&) const;
//   bool holds(const Server&, const Replica&) const;
//   sim::Task<Status> copy(int src, int dst, const Replica&);     // resilver
//   sim::Task<Status> forward(int src, int dst, const Replica&);  // async put
//   static std::uint64_t resilver_key(const Replica&);  // retry op key
// where a Replica is one staged object and Replica::bytes what a copy
// charges.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"
#include "fault/fault.h"
#include "hpc/cluster.h"
#include "mem/memory.h"
#include "ndarray/ndarray.h"
#include "net/transport.h"
#include "repl/repl.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "trace/trace.h"

namespace imc::staging {

// Requests every group's servers answer, listed in each library's Request
// variant next to its own.
struct Publish {
  std::string var;
  int version;
  sim::Queue<Status>* reply = nullptr;  // one ack per server
};
struct WaitVersion {
  std::string var;
  int version;
  sim::Reply<Status>* reply;
};
struct Shutdown {};

// What the group keeps of one server; a library's Server derives from it
// and adds its own tables.
template <class R>
struct ServerBase {
  using Request = R;
  int id = 0;
  net::Endpoint endpoint;
  std::unique_ptr<mem::ProcessMemory> memory;
  std::unique_ptr<sim::Queue<Request>> queue;
  // Set by the fault layer's scheduled crash: a crashed server refuses
  // every request with kConnectionFailed (but still honors Shutdown, so
  // teardown keeps the leak ledger clean).
  bool crashed = false;
};

// What tells one library's group from another's.
struct GroupSpec {
  const char* noun;           // "<noun> server 3 crashed"
  int pid_base;               // server pids, distinct from rank pids
  const char* memory_prefix;  // server memory names, seen in leak lines
  int num_servers;
  int servers_per_node;
  std::uint64_t base_bytes;  // each server's library pool
};

template <class Server, class Lib>
class ServerGroup {
 public:
  ServerGroup(const ServerGroup&) = delete;
  ServerGroup& operator=(const ServerGroup&) = delete;

  // Places the servers onto the given staging nodes (servers_per_node per
  // node, block-wise), allocates each one's base pool and starts their
  // loops, then pins the replication knobs and arms the fault plan's
  // scheduled crashes.
  Status deploy(const std::vector<int>& staging_node_ids);

  // Asks all servers to exit their loops (draining queued requests first).
  void shutdown() {
    for (auto& server : servers_) server->queue->push(Shutdown{});
  }

  int num_servers() const { return static_cast<int>(servers_.size()); }
  net::Endpoint server_endpoint(int s) const {
    return servers_.at(static_cast<std::size_t>(s))->endpoint;
  }
  mem::ProcessMemory& server_memory(int s) {
    return *servers_.at(static_cast<std::size_t>(s))->memory;
  }

 protected:
  ServerGroup(sim::Engine& engine, hpc::Cluster& cluster,
              net::Transport& transport, GroupSpec spec)
      : engine_(&engine),
        transport_(&transport),
        cluster_(&cluster),
        spec_(spec) {}
  ~ServerGroup() = default;

  // "<noun> server <id> crashed<detail>", typed kConnectionFailed.
  Status crash_error(int id, std::string_view detail = {}) const {
    return make_error(ErrorCode::kConnectionFailed,
                      std::string(spec_.noun) + " server " +
                          std::to_string(id) + " crashed" +
                          std::string(detail));
  }
  Server& server_at(int id) {
    return *servers_[static_cast<std::size_t>(id)];
  }
  bool transport_is_rdma() const {
    const net::TransportKind kind = transport_->kind();
    return kind == net::TransportKind::kRdmaUgni ||
           kind == net::TransportKind::kRdmaNnti;
  }

  // --- calls a server loop makes ---
  // Shutdown, after the library freed its own tables: frees the base pool
  // and drops the server's connections.
  void close(Server& server) {
    server.memory->free(mem::Tag::kLibrary, spec_.base_bytes);
    transport_->disconnect_all(server.endpoint);
  }
  // A dead server answers nothing useful: every request that carries a
  // reply gets a typed refusal, so clients fail (or fall back) instead of
  // parking forever. Payload-only requests are simply lost.
  template <class Request>
  void refuse(const Server& server, Request& request) const {
    std::visit(
        [&](auto& req) {
          if constexpr (requires { req.reply; }) {
            if (req.reply != nullptr) req.reply->push(crash_error(server.id));
          }
        },
        request);
  }
  // Applies a publish to the version board and acks it; the library evicts
  // first. Only board members apply it (publishes are broadcast), and the
  // board is shared, so the first member to apply a publish wakes the
  // waiters and later members find the list drained — the wake time is the
  // minimum over members, schedule-invariant.
  void board_publish(const Server& server, const Publish& req) {
    if (board_member(server.id)) {
      int& published = board_.published[req.var];
      published = std::max(published, req.version);
      auto it = board_.waiters.begin();
      while (it != board_.waiters.end()) {
        if (it->var == req.var && published >= it->version) {
          it->reply->push(Status::ok());
          it = board_.waiters.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (req.reply != nullptr) req.reply->push(Status::ok());
  }
  // Answers a reader now, or parks it until its version is published.
  void board_wait(const WaitVersion& req) {
    auto it = board_.published.find(req.var);
    if (it != board_.published.end() && it->second >= req.version) {
      req.reply->push(Status::ok());
    } else {
      board_.waiters.push_back(req);
    }
  }

  // --- the client side ---
  // Connects a client to every server.
  sim::Task<Status> connect(net::Endpoint self);
  // dspaces_unlock_on_write: publishes a completed version to every server
  // (called by one designated writer after all ranks' puts finished).
  sim::Task<Status> publish(net::Endpoint self, const nda::VarDesc& var);
  // dspaces_lock_on_read: blocks until `version` of `var` is published.
  sim::Task<Status> wait_version(net::Endpoint self, const std::string& var,
                                 int version);

  // --- replication (imc::repl; factor 1 asks one member, nothing else) ---
  // One walk down the replica chain from `anchor`, kept inline in the
  // library's put or get loop (no frame of its own): the library sends its
  // own request to each member next() names and reports the answer,
  //   a put: skip() or acked() per member, then finish();
  //   a get: skip() or answered() per member, then lost().
  class Walk {
   public:
    Walk(ServerGroup& group, int anchor)
        : group_(&group),
          anchor_(anchor),
          span_(group.factor_ > 1 ? group.num_servers() : 1) {}

    // The next member to ask; nullptr once done or the chain ran out.
    Server* next() {
      if (done_ || k_ >= span_) return nullptr;
      member_ = group_->chain_id(anchor_, k_++);
      return &group_->server_at(member_);
    }
    // Whether to ask the next member after the error `st`: a replicated
    // walk skips a crashed member (a put's object re-homes further down,
    // where a get looks for it) and, after one, a member lacking the object.
    bool skip(const Status& st) {
      if (group_->factor_ == 1) return false;
      if (st.code() == ErrorCode::kConnectionFailed) {
        ++skipped_;
        refusal_ = st;
        return true;
      }
      return st.code() == ErrorCode::kNotFound && skipped_ > 0;
    }
    // A put's member staged `bytes`; acks past the first are replica puts.
    // Async mode ends the walk at the quorum and forwards the missing
    // copies of make_replica() (built only then) from the first acked
    // member in the background.
    template <class MakeReplica>
    void acked(std::uint64_t bytes, MakeReplica make_replica) {
      if (first_ack_ < 0) first_ack_ = member_;
      if (++acks_ > 1) note(&repl::Coordinator::note_replica_put, bytes);
      done_ = acks_ >= group_->factor_;
      if (!done_ && group_->mode_ == repl::Mode::kAsync &&
          acks_ >= group_->quorum_) {
        group_->engine_->spawn(group_->forward_rest(
            first_ack_, anchor_, k_, group_->factor_ - acks_, make_replica()));
        done_ = true;
      }
    }
    // Ends a put: the last refusal if no member acked; else OK, counting an
    // under-replicated put if the chain ran out before factor_ acks.
    Status finish() {
      if (acks_ == 0) {
        if (!refusal_.is_ok()) return refusal_;
        return make_error(ErrorCode::kConnectionFailed,
                          std::string("no ") + group_->spec_.noun +
                              " server reachable from server " +
                              std::to_string(anchor_));
      }
      if (!done_) note(&repl::Coordinator::note_under_replicated);
      return Status::ok();
    }
    // A get's member answered: a degraded read if a dead one was skipped.
    void answered() {
      done_ = true;
      if (skipped_ > 0) note(&repl::Coordinator::note_degraded_get);
    }
    // Ends a get: true if no member answered, which loses the object
    // (counted) when a dead member was skipped.
    bool lost() {
      if (done_) return false;
      if (skipped_ > 0) note(&repl::Coordinator::note_object_lost);
      return true;
    }
    int skipped() const { return skipped_; }

   private:
    ServerGroup* group_;
    int anchor_;
    int span_;
    int k_ = 0;
    int member_ = -1;
    int acks_ = 0;
    int first_ack_ = -1;
    int skipped_ = 0;
    bool done_ = false;
    Status refusal_ = Status::ok();
  };

  static constexpr std::uint64_t kCtrlBytes = 128;

  sim::Engine* engine_;
  net::Transport* transport_;
  std::vector<std::unique_ptr<Server>> servers_;
  // Effective replication knobs, captured from the bound repl::Coordinator
  // at deploy() so every request of the deployment sees one policy. The
  // defaults reproduce the unreplicated behavior byte-for-byte.
  int factor_ = 1;
  int quorum_ = 1;
  repl::Mode mode_ = repl::Mode::kSync;

 private:
  // The version board, kept on servers 0..board_span_-1.
  struct Board {
    std::map<std::string, int> published;  // var -> highest version
    std::vector<WaitVersion> waiters;
  };

  Lib& lib() { return static_cast<Lib&>(*this); }
  // Calls a repl::Coordinator stats hook when one is bound.
  template <class... Args>
  static void note(void (repl::Coordinator::*hook)(Args...), Args... args) {
    if (repl::Coordinator* coordinator = repl::active()) {
      (coordinator->*hook)(args...);
    }
  }
  // Server id at position k of the chain anchored at `anchor`.
  int chain_id(int anchor, int k) const {
    return repl::chain_position(anchor, k, num_servers());
  }
  bool board_member(int id) const { return id < board_span_; }
  int live_board_members() const {
    int live = 0;
    for (int s = 0; s < board_span_; ++s) {
      if (!servers_[static_cast<std::size_t>(s)]->crashed) ++live;
    }
    return live;
  }
  // Scheduled server crash (fault plan): marks the server crashed at time
  // `at`, fails parked version waiters with a typed error when the last
  // board replica dies, and kicks off the resilver when a replication
  // policy is bound.
  sim::Task<> crash_watcher(int index, double at);

  // The async put's background copies: `replica` from server `src` to the
  // first `want` live members from chain position `start_k` on. Detached,
  // so it takes everything by value.
  template <class Replica>
  sim::Task<> forward_rest(int src, int anchor, int start_k, int want,
                           Replica replica);
  // Rebuilds redundancy after server `crashed` died at `crashed_at`.
  sim::Task<> resilver(int crashed, double crashed_at);
  // One resilver copy attempt from the first live holder to the first live
  // member lacking the object, both re-picked per attempt so a follow-on
  // crash mid-retry re-routes instead of hammering a dead server.
  template <class Replica>
  sim::Task<Status> copy_once(int anchor, const Replica& replica);

  hpc::Cluster* cluster_;
  GroupSpec spec_;
  Board board_;
  // Servers 0..board_span_-1 replicate the version board; waiters only fail
  // when the last of them dies.
  int board_span_ = 1;
};

template <class Server, class Lib>
Status ServerGroup<Server, Lib>::deploy(
    const std::vector<int>& staging_node_ids) {
  if (staging_node_ids.empty() || spec_.num_servers <= 0) {
    return make_error(ErrorCode::kInvalidArgument,
                      "deploy requires staging nodes and num_servers > 0");
  }
  for (int s = 0; s < spec_.num_servers; ++s) {
    auto server = std::make_unique<Server>();
    server->id = s;
    const int node_id =
        staging_node_ids[static_cast<std::size_t>(s / spec_.servers_per_node) %
                         staging_node_ids.size()];
    hpc::Node& node = cluster_->node(node_id);
    server->endpoint = net::Endpoint{spec_.pid_base + s, /*job=*/2, &node};
    server->memory = std::make_unique<mem::ProcessMemory>(
        *engine_, spec_.memory_prefix + std::to_string(s), &node.memory());
    server->queue = std::make_unique<sim::Queue<typename Server::Request>>(
        *engine_);
    // The library's base pool (DART communication buffers, descriptor
    // tables).
    if (Status st =
            server->memory->allocate(mem::Tag::kLibrary, spec_.base_bytes);
        !st.is_ok()) {
      return st;
    }
    servers_.push_back(std::move(server));
  }
  for (auto& server : servers_) engine_->spawn(lib().server_loop(*server));
  // Replication knobs are pinned per deployment: every request of this
  // world walks chains of the same effective factor.
  if (repl::Coordinator* coordinator = repl::active()) {
    factor_ = coordinator->factor_for(num_servers());
    quorum_ = coordinator->quorum_for(factor_);
    mode_ = coordinator->policy().mode;
  }
  board_span_ = factor_ > 1 ? std::min(factor_, num_servers()) : 1;
  if (fault::Injector* injector = fault::active()) {
    for (const fault::Plan::ServerCrash& crash :
         injector->plan().crash_schedule()) {
      if (crash.server >= 0 && crash.server < num_servers()) {
        engine_->spawn(crash_watcher(crash.server, crash.at));
      }
    }
  }
  return Status::ok();
}

template <class Server, class Lib>
sim::Task<> ServerGroup<Server, Lib>::crash_watcher(int index, double at) {
  co_await engine_->sleep(std::max(0.0, at - engine_->now()));
  Server& dead = server_at(index);
  if (dead.crashed) co_return;
  dead.crashed = true;
  if (fault::Injector* injector = fault::active()) {
    injector->note_server_crash();
  }
  {
    trace::Span span = trace::span(
        "fault.server_crash",
        trace::Track{dead.endpoint.node->id(), dead.endpoint.pid});
    span.arg("server", index);
  }
  // A dead board takes parked readers with it: fail them with a typed error
  // now instead of hanging to the end of the run. With replication on, the
  // board survives on servers 0..board_span_-1, so waiters only fail when
  // the last board replica dies.
  if (board_member(dead.id) && live_board_members() == 0) {
    for (WaitVersion& waiter : board_.waiters) {
      waiter.reply->push(crash_error(index, " (no board replica left)"));
    }
    board_.waiters.clear();
  }
  // Rebuild lost redundancy in the background, racing any follow-on
  // crashes.
  if (factor_ > 1) {
    repl::Coordinator* coordinator = repl::active();
    if (coordinator != nullptr && coordinator->policy().resilver) {
      engine_->spawn(resilver(index, at));
    }
  }
}

template <class Server, class Lib>
template <class Replica>
sim::Task<> ServerGroup<Server, Lib>::forward_rest(int src, int anchor,
                                                   int start_k, int want,
                                                   Replica replica) {
  repl::Coordinator* coordinator = repl::active();
  for (int k = start_k; k < num_servers() && want > 0; ++k) {
    const int dst = chain_id(anchor, k);
    if (server_at(dst).crashed) continue;
    Status st = co_await lib().forward(src, dst, replica);
    if (st.is_ok()) {
      --want;
      if (coordinator != nullptr) coordinator->note_replica_put(replica.bytes);
    }
  }
  if (want > 0 && coordinator != nullptr) coordinator->note_under_replicated();
}

template <class Server, class Lib>
sim::Task<> ServerGroup<Server, Lib>::resilver(int crashed, double crashed_at) {
  repl::Coordinator* coordinator = repl::active();
  if (coordinator == nullptr) co_return;
  const Server& dead = server_at(crashed);
  trace::Span span = trace::span(
      "repl.resilver",
      trace::Track{dead.endpoint.node->id(), dead.endpoint.pid});
  span.arg("server", crashed);
  const fault::RetryPolicy policy = coordinator->policy().resilver_retry;
  std::uint64_t copies = 0;
  // Per chain, the first live member holding any of its objects is the
  // source, and each of its objects is copied until min(factor_, live
  // members) hold it. The copy loop awaits, so it iterates snapshots (the
  // chain list, the source's objects), never the live tables.
  const std::vector<typename Lib::Chain> chains = lib().chains();
  for (const typename Lib::Chain& chain : chains) {
    int live = 0;
    std::vector<typename Lib::Replica> replicas;
    for (int k = 0; k < num_servers(); ++k) {
      const Server& member = server_at(chain_id(chain.anchor, k));
      if (member.crashed) continue;
      ++live;
      if (replicas.empty()) replicas = lib().replicas(member, chain);
    }
    const int goal = std::min(factor_, live);
    for (const typename Lib::Replica& replica : replicas) {
      int holders = 0;
      for (int k = 0; k < num_servers(); ++k) {
        const Server& member = server_at(chain_id(chain.anchor, k));
        if (!member.crashed && lib().holds(member, replica)) ++holders;
      }
      for (int deficit = goal - holders; deficit > 0; --deficit) {
        // The retry key is a pure function of the object's identity, never
        // the clock, so backoff jitter is schedule-invariant.
        Status st = co_await fault::retry(
            *engine_, policy, Lib::resilver_key(replica), "repl resilver copy",
            [this, &replica, anchor = chain.anchor](int) {
              return copy_once(anchor, replica);
            });
        if (st.is_ok()) {
          ++copies;
          coordinator->note_resilver_copy(replica.bytes);
        } else if (st.code() == ErrorCode::kNotFound) {
          // Evicted mid-resilver (normal max_versions churn): the copy is
          // moot, not a failure.
          break;
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

template <class Server, class Lib>
template <class Replica>
sim::Task<Status> ServerGroup<Server, Lib>::copy_once(int anchor,
                                                      const Replica& replica) {
  int src = -1;
  int dst = -1;
  for (int k = 0; k < num_servers(); ++k) {
    const int id = chain_id(anchor, k);
    const Server& member = server_at(id);
    if (member.crashed) continue;
    const bool holds = lib().holds(member, replica);
    if (holds && src < 0) src = id;
    if (!holds && dst < 0) dst = id;
  }
  if (src < 0) {
    co_return make_error(ErrorCode::kNotFound, "no surviving replica");
  }
  if (dst < 0) co_return Status::ok();  // every live member already holds it
  Status st = co_await lib().copy(src, dst, replica);
  co_return st;
}

template <class Server, class Lib>
sim::Task<Status> ServerGroup<Server, Lib>::connect(net::Endpoint self) {
  for (auto& server : servers_) {
    if (Status st = co_await transport_->connect(self, server->endpoint);
        !st.is_ok()) {
      co_return st;
    }
  }
  co_return Status::ok();
}

template <class Server, class Lib>
sim::Task<Status> ServerGroup<Server, Lib>::publish(net::Endpoint self,
                                                    const nda::VarDesc& var) {
  if (factor_ > 1) {
    // Replicated publish: per-server ack queues so refusals are attributable.
    // A crashed server's refusal is tolerated — what it held lives on chain
    // replicas — as long as one live board member applied the version bump.
    std::vector<std::unique_ptr<sim::Queue<Status>>> acks;
    acks.reserve(servers_.size());
    for (auto& server : servers_) {
      acks.push_back(std::make_unique<sim::Queue<Status>>(*engine_));
      co_await transport_->transfer(self, server->endpoint, kCtrlBytes,
                                    {.src_pinned = true, .dst_pinned = true});
      server->queue->push(Publish{var.name, var.version, acks.back().get()});
    }
    bool board_applied = false;
    Status hard = Status::ok();
    Status refused = Status::ok();
    for (std::size_t s = 0; s < acks.size(); ++s) {
      Status ack = co_await acks[s]->pop();
      if (ack.is_ok()) {
        if (board_member(static_cast<int>(s))) board_applied = true;
      } else if (ack.code() == ErrorCode::kConnectionFailed) {
        refused = std::move(ack);
      } else {
        hard = std::move(ack);
      }
    }
    if (!hard.is_ok()) co_return hard;
    if (!board_applied) {
      co_return refused.is_ok()
                    ? make_error(ErrorCode::kConnectionFailed,
                                 "no live board replica acknowledged publish "
                                 "of " + var.name)
                    : refused;
    }
    co_return Status::ok();
  }
  sim::Queue<Status> acks(*engine_);
  for (auto& server : servers_) {
    co_await transport_->transfer(self, server->endpoint, kCtrlBytes,
                                  {.src_pinned = true, .dst_pinned = true});
    server->queue->push(Publish{var.name, var.version, &acks});
  }
  // The publish is synchronous: wait until every server applied it (and its
  // eviction). A crashed server acks with an error, which the publisher
  // must surface — its share of the step is not readable.
  Status worst = Status::ok();
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    Status ack = co_await acks.pop();
    if (!ack.is_ok()) worst = std::move(ack);
  }
  co_return worst;
}

template <class Server, class Lib>
sim::Task<Status> ServerGroup<Server, Lib>::wait_version(
    net::Endpoint self, const std::string& var, int version) {
  // Probe the board replicas in chain order; a refused member (crashed) is
  // skipped while a live one remains. Unreplicated runs keep the historical
  // master-only behavior.
  Status last = Status::ok();
  for (int s = 0; s < board_span_; ++s) {
    Server& member = server_at(s);
    sim::Reply<Status> reply(*engine_);
    co_await transport_->transfer(self, member.endpoint, kCtrlBytes,
                                  {.src_pinned = true, .dst_pinned = true});
    member.queue->push(WaitVersion{var, version, &reply});
    last = co_await reply.pop();
    if (factor_ <= 1 || last.code() != ErrorCode::kConnectionFailed) {
      co_return last;
    }
  }
  co_return last;
}

}  // namespace imc::staging

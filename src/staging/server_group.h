// The server group both DataSpaces-package methods run on (paper Fig. 1,
// §III-A): dedicated staging servers for DataSpaces, metadata servers for
// DIMES. The group owns what the two share, written once: deployment, the
// version board that couples writers and readers (dspaces_lock_on_read /
// unlock_on_write), chain placement knobs for replication, scheduled server
// crashes, and the client side of publish/wait.
//
// Each library derives from ServerGroup<Server>, keeps its own server loop
// and request handlers, and calls in here for the requests every group
// answers: Shutdown (after the library's own teardown), refusal while
// crashed, Publish (after the library's own eviction) and WaitVersion.
// Nothing here runs per put/get request beyond those calls.
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

template <class Server>
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

  // The library's server loop, spawned once per server by deploy().
  virtual sim::Task<> server_loop(Server& server) = 0;
  // Background re-replication after server `crashed` died at `crashed_at`;
  // spawned by the crash watcher when a resilvering policy is bound.
  virtual sim::Task<> resilver(int crashed, double crashed_at) = 0;

  // "<noun> server <id> crashed<detail>", typed kConnectionFailed.
  Status crash_error(int id, std::string_view detail = {}) const {
    return make_error(ErrorCode::kConnectionFailed,
                      std::string(spec_.noun) + " server " +
                          std::to_string(id) + " crashed" +
                          std::string(detail));
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
  // board replica dies, and kicks off the library's resilver when a
  // replication policy is bound.
  sim::Task<> crash_watcher(int index, double at);

  hpc::Cluster* cluster_;
  GroupSpec spec_;
  Board board_;
  // Servers 0..board_span_-1 replicate the version board; waiters only fail
  // when the last of them dies.
  int board_span_ = 1;
};

template <class Server>
Status ServerGroup<Server>::deploy(const std::vector<int>& staging_node_ids) {
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
  for (auto& server : servers_) engine_->spawn(server_loop(*server));
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

template <class Server>
sim::Task<> ServerGroup<Server>::crash_watcher(int index, double at) {
  co_await engine_->sleep(std::max(0.0, at - engine_->now()));
  Server& server = *servers_[static_cast<std::size_t>(index)];
  if (server.crashed) co_return;
  server.crashed = true;
  if (fault::Injector* injector = fault::active()) {
    injector->note_server_crash();
  }
  {
    trace::Span span = trace::span(
        "fault.server_crash",
        trace::Track{server.endpoint.node->id(), server.endpoint.pid});
    span.arg("server", index);
  }
  // A dead board takes parked readers with it: fail them with a typed error
  // now instead of hanging to the end of the run. With replication on, the
  // board survives on servers 0..board_span_-1, so waiters only fail when
  // the last board replica dies.
  if (board_member(server.id) && live_board_members() == 0) {
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

template <class Server>
sim::Task<Status> ServerGroup<Server>::connect(net::Endpoint self) {
  for (auto& server : servers_) {
    if (Status st = co_await transport_->connect(self, server->endpoint);
        !st.is_ok()) {
      co_return st;
    }
  }
  co_return Status::ok();
}

template <class Server>
sim::Task<Status> ServerGroup<Server>::publish(net::Endpoint self,
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

template <class Server>
sim::Task<Status> ServerGroup<Server>::wait_version(net::Endpoint self,
                                                    const std::string& var,
                                                    int version) {
  // Probe the board replicas in chain order; a refused member (crashed) is
  // skipped while a live one remains. Unreplicated runs keep the historical
  // master-only behavior.
  Status last = Status::ok();
  for (int s = 0; s < board_span_; ++s) {
    Server& member = *servers_[static_cast<std::size_t>(s)];
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

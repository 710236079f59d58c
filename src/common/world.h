// The current world (imc::World): what a simulated world's hooks reach
// without a parameter. The sweep layer runs one world per worker thread, so
// it lives in one thread-local, read inline by audit::global(),
// arena::current(), fault::active(), repl::active(), trace::global() and
// prof::meter(). A null field means the unbound default: the process-wide
// ledger, the global heap, no faults, replication factor 1, tracing off, no
// prof lane, log lines to stderr and trace chunks to the sink.
//
// BindWorld makes a World current for its scope and restores the previous
// one on destruction. Callers copy the current World and set what they
// own, inheriting the rest:
//   World w = world(); w.fault = &injector; BindWorld bind(w);
#pragma once

#include <vector>

namespace imc {

class LogText;
namespace audit {
class Auditor;
}
namespace arena {
class Arena;
}
namespace fault {
class Injector;
}
namespace repl {
class Coordinator;
}
namespace trace {
class Recorder;
struct RunChunk;
}  // namespace trace
namespace prof {
class Meter;
}

struct World {
  audit::Auditor* auditor = nullptr;
  arena::Arena* arena = nullptr;
  fault::Injector* fault = nullptr;
  repl::Coordinator* repl = nullptr;
  trace::Recorder* recorder = nullptr;
  prof::Meter* meter = nullptr;
  LogText* log = nullptr;
  std::vector<trace::RunChunk>* chunks = nullptr;
};

namespace detail {
// Constant-initialized, so reading it calls no TLS wrapper.
inline constinit thread_local World t_world{};
}  // namespace detail

inline const World& world() { return detail::t_world; }

class BindWorld {
 public:
  explicit BindWorld(const World& w) : previous_(detail::t_world) {
    detail::t_world = w;
  }
  ~BindWorld() { detail::t_world = previous_; }
  BindWorld(const BindWorld&) = delete;
  BindWorld& operator=(const BindWorld&) = delete;

 private:
  World previous_;
};

}  // namespace imc

// Invariant / leak auditor for simulated resources.
//
// Every pool in the simulator (process memory, RDMA registrations and
// handlers, sockets, DRC credentials, DataSpaces locks, staged objects)
// reports acquire/release pairs here, tagged with an owner string. At
// scenario teardown anything still outstanding is a leak — the simulated
// analogue of the memory-growth failure modes the paper documents (F4/F8).
//
// Each simulated world is single-threaded, but the sweep layer (see
// src/sweep/) runs many worlds concurrently on worker threads, so "the"
// auditor is a thread-local binding: workflow::run (and every sweep job)
// binds a fresh per-world Auditor via ScopedAuditor for its duration, and
// the instrumentation hooks resolve global() to whatever is bound on the
// calling thread. With no binding, global() falls back to a process-wide
// auditor (direct API use outside any run). All hooks compile to no-ops
// when the IMC_CHECK CMake option is off, and become runtime no-ops when
// the IMC_CHECK *environment variable* is set to 0.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/flat_map.h"

namespace imc::audit {

enum class Resource : int {
  kProcessBytes = 0,  // mem::ProcessMemory tagged allocations
  kRdmaBytes,         // hpc::RdmaPool registered bytes
  kRdmaHandlers,      // hpc::RdmaPool connection handlers
  kSockets,           // hpc::SocketPool descriptors
  kDrcCredential,     // net::DrcService credentials
  kDsLock,            // dataspaces::LockService held locks
  kStagedObject,      // objects resident in a staging store
};
inline constexpr int kResourceCount = 7;

std::string_view to_string(Resource r);

class Auditor {
 public:
  void acquire(Resource r, const std::string& owner, std::uint64_t n = 1);
  void release(Resource r, const std::string& owner, std::uint64_t n = 1);
  void violation(const std::string& what);

  std::uint64_t outstanding(Resource r) const;
  // Formatted "resource: N outstanding (owner tag)" lines, by resource and
  // then by owner, plus any recorded violations; empty means the scenario
  // tore down cleanly. Owners whose count is back to zero are skipped.
  std::vector<std::string> leaks() const;
  const std::vector<std::string>& violations() const { return violations_; }
  bool clean() const;
  void reset();

 private:
  // owner -> outstanding count, per resource class. Hashed: leaks() sorts
  // the owners, so the report never depends on bucket order. Entries are
  // never erased (only reset() drops them) and a rehash moves no element,
  // so their addresses are stable.
  using Ledger = std::unordered_map<std::string, std::uint64_t>;
  using Entry = Ledger::value_type;

  // Ledger entry of `owner`, or null when absent and !create. The hot
  // owners (ProcessMemory, RdmaPool) pass the same long-lived std::string
  // on every call, so a per-resource index from the string object's
  // address to its entry skips hashing the text. A hit is trusted only
  // after the entry's own key compares equal to `owner`: the address may
  // since hold another string (a temporary reusing a stack slot).
  Entry* lookup(int idx, const std::string& owner, bool create);

  Ledger ledger_[kResourceCount];
  FlatMap<Entry*> by_address_[kResourceCount];
  std::uint64_t totals_[kResourceCount] = {};
  std::vector<std::string> violations_;
};

// The auditor used by all instrumentation hooks: the innermost Auditor
// bound on this thread via ScopedAuditor, else the process-wide fallback.
Auditor& global();

// Binds `auditor` as this thread's audit target for the scope's lifetime.
// Bindings nest (the previous one is restored on destruction), keeping
// IMC_CHECK leak ledgers attributed to the right world when scenario sweeps
// run on a thread pool.
class ScopedAuditor {
 public:
  explicit ScopedAuditor(Auditor& auditor);
  ~ScopedAuditor();
  ScopedAuditor(const ScopedAuditor&) = delete;
  ScopedAuditor& operator=(const ScopedAuditor&) = delete;

 private:
  Auditor* previous_;
};

// Runtime gate: IMC_CHECK=0 in the environment disables the (compiled-in)
// instrumentation hooks; unset or IMC_CHECK=1 leaves them on. Parsed once
// on first use; garbage values terminate with a clear error.
bool runtime_enabled();

// Guarded entry points — call these from instrumented code, never
// Auditor methods directly, so the whole layer disappears under
// -DIMC_CHECK=OFF.
inline void acquire(Resource r, const std::string& owner,
                    std::uint64_t n = 1) {
#if IMC_CHECK_ENABLED
  if (runtime_enabled()) global().acquire(r, owner, n);
#else
  (void)r;
  (void)owner;
  (void)n;
#endif
}

inline void release(Resource r, const std::string& owner,
                    std::uint64_t n = 1) {
#if IMC_CHECK_ENABLED
  if (runtime_enabled()) global().release(r, owner, n);
#else
  (void)r;
  (void)owner;
  (void)n;
#endif
}

inline void violation(const std::string& what) {
#if IMC_CHECK_ENABLED
  if (runtime_enabled()) global().violation(what);
#else
  (void)what;
#endif
}

}  // namespace imc::audit

// Invariant / leak auditor for simulated resources.
//
// Every pool in the simulator (process memory, RDMA registrations and
// handlers, sockets, DRC credentials, staged objects)
// reports acquire/release pairs here, tagged with an owner string. At
// scenario teardown anything still outstanding is a leak — the simulated
// analogue of the memory-growth failure modes the paper documents (F4/F8).
//
// "The" auditor is the current World's ledger (common/world.h): a sweep
// job charges its WorldContext's ledger, a direct workflow::run call its
// own. With none bound, global() falls back to a process-wide auditor
// (direct API use outside any run). All hooks compile to no-ops when the
// IMC_CHECK CMake option is off; that is the one switch.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/world.h"

namespace imc::audit {

enum class Resource : int {
  kProcessBytes = 0,  // mem::ProcessMemory tagged allocations
  kRdmaBytes,         // hpc::RdmaPool registered bytes
  kRdmaHandlers,      // hpc::RdmaPool connection handlers
  kSockets,           // hpc::SocketPool descriptors
  kDrcCredential,     // net::DrcService credentials
  kStagedObject,      // objects resident in a staging store
};
inline constexpr int kResourceCount = 6;

std::string_view to_string(Resource r);

// An owner tag that keeps its ledger slot. The hot owners (a process's
// memory tags, its staged objects and RDMA registrations, a transport's
// transient registrations) hold one and charge through it: the slot is
// resolved by text once per bound Auditor, after which a charge is an id
// compare and two adds. The slot is trusted only while its Auditor id
// matches the charged Auditor's, which every Auditor instance and every
// reset() renews, so a slot never outlives the ledger it points into.
class Owner {
 public:
  Owner() = default;
  explicit Owner(std::string text) : text_(std::move(text)) {}

 private:
  friend class Auditor;

  std::string text_;
  std::uint64_t auditor_ = 0;       // Auditor id the slot belongs to; 0: none
  std::uint64_t* counts_ = nullptr;  // that ledger's counts of text_
};

class Auditor {
 public:
  Auditor();
  // Not copyable: a copy would carry the id, but not the entries that
  // slots resolved under it point into.
  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  void acquire(Resource r, const std::string& owner, std::uint64_t n = 1);
  void release(Resource r, const std::string& owner, std::uint64_t n = 1);
  void acquire(Resource r, Owner& owner, std::uint64_t n = 1) {
    const int idx = static_cast<int>(r);
    slot(owner)[idx] += n;
    totals_[idx] += n;
  }
  void release(Resource r, Owner& owner, std::uint64_t n = 1) {
    take(static_cast<int>(r), slot(owner), n);
  }
  void violation(const std::string& what);

  std::uint64_t outstanding(Resource r) const;
  // Formatted "resource: N outstanding (owner tag)" lines, by resource and
  // then by owner, plus any recorded violations; empty means the scenario
  // tore down cleanly. Owners whose count is back to zero are skipped.
  std::vector<std::string> leaks() const;
  const std::vector<std::string>& violations() const { return violations_; }
  bool clean() const;
  // Drops every entry and takes a fresh id, so no slot resolved before the
  // reset is used after it.
  void reset();

 private:
  using Counts = std::array<std::uint64_t, kResourceCount>;

  std::uint64_t* slot(Owner& owner) {
    if (owner.auditor_ != id_) {
      owner.counts_ = ledger_[owner.text_].data();
      owner.auditor_ = id_;
    }
    return owner.counts_;
  }

  // Releases min(n, outstanding): releases that outlive a reset() (e.g. a
  // test fixture tearing down after a nested workflow::run) find a zero
  // count and are clamped rather than reported; leak detection only needs
  // the outstanding side of the ledger.
  void take(int idx, std::uint64_t* counts, std::uint64_t n) {
    const std::uint64_t taken = n < counts[idx] ? n : counts[idx];
    counts[idx] -= taken;
    totals_[idx] -= taken;
  }

  // owner text -> outstanding count per resource. Hashed: leaks() sorts the
  // owners, so the report never depends on bucket order. Entries are never
  // erased (only reset() drops them) and a rehash moves no element, so a
  // slot's pointer stays valid until the next reset().
  std::unordered_map<std::string, Counts> ledger_;
  std::uint64_t id_;
  Counts totals_ = {};
  std::vector<std::string> violations_;
};

namespace detail {
Auditor& process_wide();
}  // namespace detail

// The auditor used by all instrumentation hooks: the current World's
// ledger, else the process-wide fallback.
inline Auditor& global() {
  Auditor* bound = world().auditor;
  return bound != nullptr ? *bound : detail::process_wide();
}

// Guarded entry points — call these from instrumented code, never
// Auditor methods directly, so the whole layer disappears under
// -DIMC_CHECK=OFF.
inline void acquire(Resource r, const std::string& owner,
                    std::uint64_t n = 1) {
#if IMC_CHECK_ENABLED
  global().acquire(r, owner, n);
#else
  (void)r;
  (void)owner;
  (void)n;
#endif
}

inline void release(Resource r, const std::string& owner,
                    std::uint64_t n = 1) {
#if IMC_CHECK_ENABLED
  global().release(r, owner, n);
#else
  (void)r;
  (void)owner;
  (void)n;
#endif
}

inline void acquire(Resource r, Owner& owner, std::uint64_t n = 1) {
#if IMC_CHECK_ENABLED
  global().acquire(r, owner, n);
#else
  (void)r;
  (void)owner;
  (void)n;
#endif
}

inline void release(Resource r, Owner& owner, std::uint64_t n = 1) {
#if IMC_CHECK_ENABLED
  global().release(r, owner, n);
#else
  (void)r;
  (void)owner;
  (void)n;
#endif
}

inline void violation(const std::string& what) {
#if IMC_CHECK_ENABLED
  global().violation(what);
#else
  (void)what;
#endif
}

}  // namespace imc::audit

#include "common/audit.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/env.h"

namespace imc::audit {

std::string_view to_string(Resource r) {
  switch (r) {
    case Resource::kProcessBytes:
      return "process-bytes";
    case Resource::kRdmaBytes:
      return "rdma-bytes";
    case Resource::kRdmaHandlers:
      return "rdma-handlers";
    case Resource::kSockets:
      return "sockets";
    case Resource::kDrcCredential:
      return "drc-credentials";
    case Resource::kDsLock:
      return "ds-locks";
    case Resource::kStagedObject:
      return "staged-objects";
  }
  return "unknown";
}

Auditor::Entry* Auditor::lookup(int idx, const std::string& owner,
                                bool create) {
  const auto address = reinterpret_cast<std::uintptr_t>(&owner);
  Entry** cached = by_address_[idx].find(address);
  if (cached != nullptr && (*cached)->first == owner) return *cached;
  Ledger& ledger = ledger_[idx];
  auto it = create ? ledger.try_emplace(owner, 0).first : ledger.find(owner);
  if (it == ledger.end()) return nullptr;
  by_address_[idx][address] = &*it;
  return &*it;
}

void Auditor::acquire(Resource r, const std::string& owner, std::uint64_t n) {
  if (n == 0) return;
  const int idx = static_cast<int>(r);
  lookup(idx, owner, /*create=*/true)->second += n;
  totals_[idx] += n;
}

void Auditor::release(Resource r, const std::string& owner, std::uint64_t n) {
  if (n == 0) return;
  const int idx = static_cast<int>(r);
  // Releases that outlive a reset() (e.g. a test fixture tearing down after
  // a nested workflow::run) find no entry or a zero count and are clamped
  // rather than reported: leak detection only needs the outstanding side
  // of the ledger.
  Entry* e = lookup(idx, owner, /*create=*/false);
  if (e == nullptr) return;
  const std::uint64_t take = n < e->second ? n : e->second;
  e->second -= take;
  totals_[idx] -= take;
}

void Auditor::violation(const std::string& what) {
  violations_.push_back(what);
}

std::uint64_t Auditor::outstanding(Resource r) const {
  return totals_[static_cast<int>(r)];
}

bool Auditor::clean() const {
  for (std::uint64_t total : totals_) {
    if (total != 0) return false;
  }
  return violations_.empty();
}

std::vector<std::string> Auditor::leaks() const {
  std::vector<std::string> out;
  for (int idx = 0; idx < kResourceCount; ++idx) {
    std::vector<std::pair<std::string_view, std::uint64_t>> owners;
    for (const auto& [owner, count] : ledger_[idx]) {
      if (count != 0) owners.emplace_back(owner, count);
    }
    std::sort(owners.begin(), owners.end());
    for (const auto& [owner, count] : owners) {
      std::ostringstream line;
      line << to_string(static_cast<Resource>(idx)) << ": " << count
           << " outstanding (" << owner << ")";
      out.push_back(line.str());
    }
  }
  for (const auto& v : violations_) out.push_back("violation: " + v);
  return out;
}

void Auditor::reset() {
  for (auto& ledger : ledger_) ledger.clear();
  for (auto& index : by_address_) index.clear();
  for (auto& total : totals_) total = 0;
  violations_.clear();
}

namespace {

// Innermost ScopedAuditor binding on this thread; null outside any scope.
thread_local Auditor* t_bound = nullptr;

}  // namespace

Auditor& global() {
  if (t_bound != nullptr) return *t_bound;
  static Auditor process_wide;
  return process_wide;
}

ScopedAuditor::ScopedAuditor(Auditor& auditor) : previous_(t_bound) {
  t_bound = &auditor;
}

ScopedAuditor::~ScopedAuditor() { t_bound = previous_; }

bool runtime_enabled() {
  static const bool enabled = env::flag_or_die("IMC_CHECK", true);
  return enabled;
}

}  // namespace imc::audit

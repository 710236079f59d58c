#include "common/audit.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <utility>

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
    case Resource::kStagedObject:
      return "staged-objects";
  }
  return "unknown";
}

namespace {

// Source of Auditor ids: process-unique, never 0 (a fresh Owner's "none").
std::atomic<std::uint64_t> g_next_id{1};

std::uint64_t fresh_id() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Auditor::Auditor() : id_(fresh_id()) {}

void Auditor::acquire(Resource r, const std::string& owner, std::uint64_t n) {
  if (n == 0) return;
  const int idx = static_cast<int>(r);
  ledger_[owner][idx] += n;
  totals_[idx] += n;
}

void Auditor::release(Resource r, const std::string& owner, std::uint64_t n) {
  auto it = ledger_.find(owner);
  if (it != ledger_.end()) take(static_cast<int>(r), it->second.data(), n);
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
    for (const auto& [owner, counts] : ledger_) {
      const std::uint64_t count = counts[static_cast<std::size_t>(idx)];
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
  ledger_.clear();
  totals_.fill(0);
  violations_.clear();
  id_ = fresh_id();
}

Auditor& detail::process_wide() {
  static Auditor auditor;
  return auditor;
}

}  // namespace imc::audit

// Memory accounting: the repo's stand-in for the paper's Valgrind profiles.
//
// Figures 5-7 and 11 of the paper are byte-accounting over time, split by
// what consumed the memory (numerical calculation vs. library buffers vs.
// staged data vs. spatial index vs. data-model transformation). Every
// allocation the simulated libraries make flows through a ProcessMemory with
// one of those tags and a virtual timestamp, so the benches can regenerate
// the same timelines and breakdowns.
//
// NodeMemory enforces the physical DRAM capacity of a compute node; the
// "out of main memory" failures of Table IV surface here as kOutOfMemory.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/audit.h"
#include "common/status.h"
#include "sim/engine.h"
#include "trace/trace.h"

namespace imc::mem {

// What a piece of memory is used for. Mirrors the paper's breakdown in
// Fig. 7 (raw staged data vs. extra buffering vs. transformation) and Fig. 6
// (index).
enum class Tag : std::uint8_t {
  kCalculation,  // the application's own numerical state
  kLibrary,      // library-internal buffers (bounce buffers, queues)
  kStaging,      // staged copies of application data
  kIndex,        // spatial index (DataSpaces SFC)
  kTransform,    // high-level data-model flattening (Decaf/Bredala)
};
inline constexpr int kTagCount = 5;

std::string_view to_string(Tag tag);

// Tracks the DRAM of one compute node. Multiple processes placed on the
// node share it.
class NodeMemory {
 public:
  NodeMemory(std::uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  Status reserve(std::uint64_t bytes) {
    if (used_ + bytes > capacity_) {
      return make_error(ErrorCode::kOutOfMemory,
                        "node DRAM exhausted: need " + std::to_string(bytes) +
                            " B, free " + std::to_string(capacity_ - used_) +
                            " B");
    }
    used_ += bytes;
    peak_ = std::max(peak_, used_);
    return Status::ok();
  }

  void release(std::uint64_t bytes) {
    used_ -= std::min(bytes, used_);
  }

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t used() const { return used_; }
  std::uint64_t free_bytes() const { return capacity_ - used_; }
  std::uint64_t peak() const { return peak_; }

 private:
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t peak_ = 0;
};

// Per-process tagged accounting with a (virtual-time, total-bytes) timeline.
// The timeline is decimated once it exceeds a bound so arbitrarily long runs
// stay O(1) in memory per process.
class ProcessMemory {
 public:
  struct Sample {
    double time;
    std::uint64_t total;
  };

  ProcessMemory(sim::Engine& engine, std::string name,
                NodeMemory* node = nullptr)
      : engine_(&engine), name_(std::move(name)), node_(node) {
    by_tag_.fill(0);
#if IMC_CHECK_ENABLED
    audit_owner_ = audit::Owner(name_);
    for (int i = 0; i < kTagCount; ++i) {
      tag_owners_[static_cast<std::size_t>(i)] = audit::Owner(
          name_ + "/" + std::string(to_string(static_cast<Tag>(i))));
    }
#endif
  }

  // Accounts bytes; fails (and accounts nothing) if the node is out of DRAM.
  Status allocate(Tag tag, std::uint64_t bytes) {
    if (node_ != nullptr) {
      if (Status s = node_->reserve(bytes); !s.is_ok()) return s;
    }
    by_tag_[static_cast<int>(tag)] += bytes;
    total_ += bytes;
    peak_ = std::max(peak_, total_);
    audit::acquire(audit::Resource::kProcessBytes, tag_owner(tag), bytes);
    record();
    return Status::ok();
  }

  void free(Tag tag, std::uint64_t bytes) {
    auto& slot = by_tag_[static_cast<int>(tag)];
    bytes = std::min(bytes, slot);
    slot -= bytes;
    total_ -= bytes;
    if (node_ != nullptr) node_->release(bytes);
    audit::release(audit::Resource::kProcessBytes, tag_owner(tag), bytes);
    record();
  }

  std::uint64_t current(Tag tag) const {
    return by_tag_[static_cast<int>(tag)];
  }
  std::uint64_t total() const { return total_; }
  std::uint64_t peak() const { return peak_; }
  const std::string& name() const { return name_; }
  NodeMemory* node() const { return node_; }
  // The process itself as an audit owner, tagged by its name: what staging
  // libraries charge the objects and RDMA registrations it holds to.
  audit::Owner& audit_owner() { return audit_owner_; }

  const std::vector<Sample>& timeline() const { return timeline_; }

  // Peak per tag over the whole run (for Fig. 7's breakdown bars).
  std::uint64_t peak_of(Tag tag) const {
    return peak_by_tag_[static_cast<int>(tag)];
  }

 private:
  // The audit ledger's "name/tag" owner, built once per tag.
  audit::Owner& tag_owner(Tag tag) {
    return tag_owners_[static_cast<std::size_t>(tag)];
  }

  void record() {
    for (int i = 0; i < kTagCount; ++i) {
      peak_by_tag_[i] = std::max(peak_by_tag_[i], by_tag_[i]);
    }
#if IMC_TRACE_ENABLED
    // Per-process allocation gauge (Fig. 5 timelines in Perfetto). The
    // gauge name is built lazily so the disabled path stays a null check.
    if (trace::Recorder* recorder = trace::global()) {
      if (trace_name_.empty()) trace_name_ = "mem." + name_;
      recorder->gauge(trace_name_, trace::Track{},
                      static_cast<double>(total_));
    }
#endif
    const double now = engine_->now();
    if (!timeline_.empty() && timeline_.back().time == now) {
      timeline_.back().total = total_;
      return;
    }
    timeline_.push_back({now, total_});
    if (timeline_.size() > kMaxSamples) decimate();
  }

  void decimate() {
    // Keep every other sample; repeated decimation halves resolution but
    // preserves the envelope of the curve.
    std::vector<Sample> kept;
    kept.reserve(timeline_.size() / 2 + 1);
    for (std::size_t i = 0; i < timeline_.size(); i += 2) {
      kept.push_back(timeline_[i]);
    }
    kept.push_back(timeline_.back());
    timeline_ = std::move(kept);
  }

  static constexpr std::size_t kMaxSamples = 4096;

  sim::Engine* engine_;
  std::string name_;
  std::string trace_name_;  // lazily built "mem.<name>" gauge key
  // Audit owners, with empty text without IMC_CHECK.
  audit::Owner audit_owner_;
  std::array<audit::Owner, kTagCount> tag_owners_;
  NodeMemory* node_;
  std::array<std::uint64_t, kTagCount> by_tag_{};
  std::array<std::uint64_t, kTagCount> peak_by_tag_{};
  std::uint64_t total_ = 0;
  std::uint64_t peak_ = 0;
  std::vector<Sample> timeline_;
};

// RAII for a tagged allocation (exception- and early-return-safe).
class ScopedAlloc {
 public:
  ScopedAlloc() = default;
  ScopedAlloc(ProcessMemory& owner, Tag tag, std::uint64_t bytes, Status* out)
      : owner_(&owner), tag_(tag) {
    Status s = owner.allocate(tag, bytes);
    if (s.is_ok()) bytes_ = bytes;
    if (out != nullptr) *out = s;
  }
  ~ScopedAlloc() { reset(); }
  ScopedAlloc(ScopedAlloc&& other) noexcept { *this = std::move(other); }
  ScopedAlloc& operator=(ScopedAlloc&& other) noexcept {
    if (this != &other) {
      reset();
      owner_ = other.owner_;
      tag_ = other.tag_;
      bytes_ = other.bytes_;
      other.bytes_ = 0;
    }
    return *this;
  }
  ScopedAlloc(const ScopedAlloc&) = delete;
  ScopedAlloc& operator=(const ScopedAlloc&) = delete;

  void reset() {
    if (bytes_ != 0 && owner_ != nullptr) owner_->free(tag_, bytes_);
    bytes_ = 0;
  }

  std::uint64_t bytes() const { return bytes_; }

 private:
  ProcessMemory* owner_ = nullptr;
  Tag tag_ = Tag::kLibrary;
  std::uint64_t bytes_ = 0;
};

}  // namespace imc::mem

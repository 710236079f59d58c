#include "flexpath/flexpath.h"

#include <algorithm>
#include <cassert>

#include "fault/fault.h"
#include "trace/trace.h"

namespace imc::flexpath {

Flexpath::Flexpath(sim::Engine& engine, hpc::Cluster& cluster,
                   net::Transport& transport, Config config)
    : engine_(&engine),
      cluster_(&cluster),
      transport_(&transport),
      config_(std::move(config)) {}

Flexpath::~Flexpath() = default;

// -------------------------------------------------------------- writer ----

Flexpath::Writer::Writer(Flexpath& fp, net::Endpoint self,
                         mem::ProcessMemory& memory)
    : fp_(&fp), self_(self), memory_(&memory) {}

Flexpath::Writer::~Writer() { close(); }

sim::Task<Status> Flexpath::Writer::open(const std::string& group) {
  if (open_) co_return Status::ok();
  if (Status st =
          memory_->allocate(mem::Tag::kLibrary, fp_->config_.client_base_bytes);
      !st.is_ok()) {
    co_return st;
  }
  // Register the FFS format for this group (deduped across writers).
  serial::FormatDesc format;
  format.name = group;
  format.fields = {{"step", serial::FieldType::kUInt64, 1},
                   {"box", serial::FieldType::kUInt64, 6},
                   {"data", serial::FieldType::kFloat64, 0}};
  format_id_ = fp_->formats_.register_format(format);
  queue_slots_ = std::make_unique<sim::Semaphore>(
      *fp_->engine_, static_cast<std::uint64_t>(fp_->config_.queue_size));
  fp_->writers_[self_.pid] = this;
  open_ = true;
  co_return Status::ok();
}

sim::Task<Status> Flexpath::Writer::write_step(const nda::VarDesc& var,
                                               const nda::Slab& slab) {
  if (!open_) {
    co_return make_error(ErrorCode::kFailedPrecondition, "writer not open");
  }
  // Back-pressure: with queue_size staged steps outstanding, block until a
  // reader cohort releases one.
  {
    TRACE_SPAN("flexpath.queue_wait", self_.node->id(), self_.pid);
    co_await queue_slots_->acquire();
  }

  const std::uint64_t bytes = slab.box().volume() * nda::kElementBytes;
  if (Status st = memory_->allocate(mem::Tag::kStaging, bytes); !st.is_ok()) {
    queue_slots_->release();
    co_return st;
  }
  auto [it, inserted] = steps_.try_emplace(var.version);
  Step& step = it->second;
  step.var = var;
  step.slab = slab.extract(slab.box());
  step.bytes = bytes;
  step.remaining_releases =
      fp_->config_.num_readers > 0
          ? fp_->config_.num_readers
          : std::max<int>(1, static_cast<int>(fp_->readers_.size()));
  if (!step.available) {
    step.available = std::make_unique<sim::Event>(*fp_->engine_);
  }
  step.available->set();
  co_return Status::ok();
}

void Flexpath::Writer::release_step(int step) {
  auto it = steps_.find(step);
  if (it == steps_.end()) return;
  if (--it->second.remaining_releases > 0) return;
  memory_->free(mem::Tag::kStaging, it->second.bytes);
  steps_.erase(it);
  queue_slots_->release();
}

void Flexpath::Writer::close() {
  if (!open_) return;
  for (auto& [step, entry] : steps_) {
    memory_->free(mem::Tag::kStaging, entry.bytes);
  }
  steps_.clear();
  fp_->writers_.erase(self_.pid);
  fp_->transport_->disconnect_all(self_);
  memory_->free(mem::Tag::kLibrary, fp_->config_.client_base_bytes);
  open_ = false;
}

// -------------------------------------------------------------- reader ----

Flexpath::Reader::Reader(Flexpath& fp, net::Endpoint self,
                         mem::ProcessMemory& memory)
    : fp_(&fp), self_(self), memory_(&memory) {}

Flexpath::Reader::~Reader() { close(); }

sim::Task<Status> Flexpath::Reader::open(const std::string& group) {
  (void)group;
  if (open_) co_return Status::ok();
  if (Status st =
          memory_->allocate(mem::Tag::kLibrary, fp_->config_.client_base_bytes);
      !st.is_ok()) {
    co_return st;
  }
  // Registration only; connections and the per-writer FFS format handshake
  // happen lazily on first fetch (as EVPath does) — which also makes the
  // shared-memory transport usable when each reader only ever pulls from
  // colocated writers (§III-B7).
  fp_->readers_.push_back(this);
  open_ = true;
  co_return Status::ok();
}

sim::Task<Status> Flexpath::Reader::ensure_connected(Writer& writer) {
  if (formats_fetched_[writer.self_.pid]) co_return Status::ok();
  fault::Injector* injector = fault::active();
  if (injector == nullptr) {
    // No fault plan bound: fail fast, as EVPath does when the peer is
    // genuinely out of resources (keeps fault-free timing unchanged).
    co_return co_await connect_once(writer);
  }
  co_return co_await fault::retry(
      *fp_->engine_, injector->transport_policy(),
      injector->op_key(self_.pid, writer.self_.pid), "flexpath reconnect",
      [this, &writer](int) { return connect_once(writer); });
}

sim::Task<Status> Flexpath::Reader::connect_once(Writer& writer) {
  if (Status st = co_await fp_->transport_->connect(self_, writer.self_);
      !st.is_ok()) {
    co_return st;
  }
  const serial::FormatDesc* format = fp_->formats_.lookup(writer.format_id_);
  assert(format != nullptr);
  net::TransferOptions opts;
  opts.src_pinned = true;
  opts.dst_pinned = true;
  if (Status st = co_await fp_->transport_->transfer(
          writer.self_, self_, format->description_bytes(), opts);
      !st.is_ok()) {
    co_return st;
  }
  formats_fetched_[writer.self_.pid] = true;
  co_return Status::ok();
}

sim::Task<Result<nda::Slab>> Flexpath::Reader::read_step(
    const nda::VarDesc& var, const nda::Box& box) {
  if (!open_) {
    co_return make_error(ErrorCode::kFailedPrecondition, "reader not open");
  }
  std::vector<nda::Slab> pieces;
  std::uint64_t covered = 0;
  // Snapshot the writer set (stable during a coupled run).
  std::vector<Writer*> writers;
  writers.reserve(fp_->writers_.size());
  for (auto& [pid, writer] : fp_->writers_) writers.push_back(writer);

  const trace::Track track{self_.node->id(), self_.pid};
  for (Writer* writer : writers) {
    // Wait until the writer published this step.
    trace::Span fetch = trace::span("flexpath.fetch", track);
    auto [it, inserted] = writer->steps_.try_emplace(var.version);
    if (!it->second.available) {
      it->second.available = std::make_unique<sim::Event>(*fp_->engine_);
    }
    co_await it->second.available->wait();
    Writer::Step& step = writer->steps_.at(var.version);

    auto overlap = nda::intersect(step.slab.box(), box);
    if (!overlap) continue;
    if (Status st = co_await ensure_connected(*writer); !st.is_ok()) {
      co_return st;
    }
    const std::uint64_t bytes = overlap->volume() * nda::kElementBytes;
    fetch.arg("bytes", static_cast<double>(bytes));

    // Request event (small), FFS encode at the writer, wire transfer, FFS
    // decode at the reader.
    net::TransferOptions ctrl_opts;
    ctrl_opts.src_pinned = true;
    ctrl_opts.dst_pinned = true;
    if (Status st = co_await fp_->transport_->transfer(
            self_, writer->self_, kCtrlBytes, ctrl_opts);
        !st.is_ok()) {
      co_return st;
    }
    co_await fp_->engine_->sleep(
        serial::Encoder::encode_seconds(bytes, fp_->config_.cpu_speed));
    Status st = co_await fp_->transport_->transfer(
        writer->self_, self_, bytes + serial::kEventHeaderBytes, {});
    if (!st.is_ok()) co_return st;
    co_await fp_->engine_->sleep(
        serial::Encoder::encode_seconds(bytes, fp_->config_.cpu_speed));

    pieces.push_back(step.slab.extract(*overlap));
    covered += overlap->volume();
  }

  if (covered < box.volume()) {
    co_return make_error(ErrorCode::kNotFound,
                         "writers cover only " + std::to_string(covered) +
                             " of " + std::to_string(box.volume()) +
                             " elements of " + box.to_string());
  }
  co_return nda::assemble(box, pieces, fp_->config_.materialize_cap_elems);
}

sim::Task<Status> Flexpath::Reader::release_step(int step) {
  std::vector<Writer*> writers;
  writers.reserve(fp_->writers_.size());
  for (auto& [pid, writer] : fp_->writers_) writers.push_back(writer);
  for (Writer* writer : writers) {
    if (formats_fetched_[writer->self_.pid]) {
      net::TransferOptions opts;
      opts.src_pinned = true;
      opts.dst_pinned = true;
      if (Status st = co_await fp_->transport_->transfer(self_, writer->self_,
                                                         kCtrlBytes, opts);
          !st.is_ok()) {
        co_return st;
      }
    }
    writer->release_step(step);
  }
  co_return Status::ok();
}

void Flexpath::Reader::close() {
  if (!open_) return;
  auto& readers = fp_->readers_;
  readers.erase(std::remove(readers.begin(), readers.end(), this),
                readers.end());
  fp_->transport_->disconnect_all(self_);
  memory_->free(mem::Tag::kLibrary, fp_->config_.client_base_bytes);
  open_ = false;
}

}  // namespace imc::flexpath

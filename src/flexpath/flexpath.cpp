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
      config_(std::move(config)),
      writers_(std::make_shared<const std::vector<Writer*>>()) {}

Flexpath::~Flexpath() = default;

void Flexpath::set_writer(int pid, Writer* writer) {
  auto next = std::make_shared<std::vector<Writer*>>(*writers_);
  auto it = std::lower_bound(
      next->begin(), next->end(), pid,
      [](const Writer* w, int key) { return w->self_.pid < key; });
  const bool present = it != next->end() && (*it)->self_.pid == pid;
  if (writer == nullptr) {
    if (!present) return;
    next->erase(it);
  } else if (present) {
    *it = writer;
  } else {
    next->insert(it, writer);
  }
  writers_ = std::move(next);
}

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
  if (slot_ < 0) slot_ = fp_->writer_slots_++;
  fp_->set_writer(self_.pid, this);
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
  Step& step = find_or_add_step(var.version);
  step.var = var;
  step.slab = slab.extract(slab.box());
  step.bytes = bytes;
  step.remaining_releases =
      fp_->config_.num_readers > 0
          ? fp_->config_.num_readers
          : std::max<int>(1, static_cast<int>(fp_->readers_.size()));
  step.available.set();
  co_return Status::ok();
}

Flexpath::Writer::Step& Flexpath::Writer::find_or_add_step(int version) {
  auto it = std::find_if(steps_.begin(), steps_.end(),
                         [&](const auto& s) { return s->version >= version; });
  if (it != steps_.end() && (*it)->version == version) return **it;
  auto step = std::make_unique<Step>(*fp_->engine_);
  step->version = version;
  return **steps_.insert(it, std::move(step));
}

void Flexpath::Writer::release_step(int version) {
  auto it = std::find_if(steps_.begin(), steps_.end(),
                         [&](const auto& s) { return s->version == version; });
  if (it == steps_.end()) return;
  if (--(*it)->remaining_releases > 0) return;
  memory_->free(mem::Tag::kStaging, (*it)->bytes);
  steps_.erase(it);
  queue_slots_->release();
}

void Flexpath::Writer::close() {
  if (!open_) return;
  for (const auto& step : steps_) {
    memory_->free(mem::Tag::kStaging, step->bytes);
  }
  steps_.clear();
  fp_->set_writer(self_.pid, nullptr);
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
  if (handshake_done(writer)) co_return Status::ok();
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
  const auto slot = static_cast<std::size_t>(writer.slot_);
  if (slot >= handshakes_.size()) handshakes_.resize(slot + 1);
  handshakes_[slot] = true;
  co_return Status::ok();
}

sim::Task<Result<nda::Slab>> Flexpath::Reader::read_step(
    const nda::VarDesc& var, const nda::Box& box) {
  if (!open_) {
    co_return make_error(ErrorCode::kFailedPrecondition, "reader not open");
  }
  std::vector<nda::Slab> pieces;
  std::uint64_t covered = 0;
  // The writer set this read starts with (stable during a coupled run).
  const std::shared_ptr<const std::vector<Writer*>> writers = fp_->writers_;

  const trace::Track track{self_.node->id(), self_.pid};
  for (Writer* writer : *writers) {
    // Wait until the writer published this step, whether or not it holds
    // part of the box: every reader waits on every writer, in pid order.
    trace::Span fetch = trace::span("flexpath.fetch", track);
    Writer::Step& step = writer->find_or_add_step(var.version);
    co_await step.available.wait();

    if (!nda::overlaps(step.slab.box(), box)) continue;
    const nda::Box overlap = *nda::intersect(step.slab.box(), box);
    if (Status st = co_await ensure_connected(*writer); !st.is_ok()) {
      co_return st;
    }
    const std::uint64_t bytes = overlap.volume() * nda::kElementBytes;
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
        serial::encode_seconds(bytes, fp_->config_.cpu_speed));
    Status st = co_await fp_->transport_->transfer(
        writer->self_, self_, bytes + serial::kEventHeaderBytes, {});
    if (!st.is_ok()) co_return st;
    co_await fp_->engine_->sleep(
        serial::encode_seconds(bytes, fp_->config_.cpu_speed));

    pieces.push_back(step.slab.extract(overlap));
    covered += overlap.volume();
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
  const std::shared_ptr<const std::vector<Writer*>> writers = fp_->writers_;
  for (Writer* writer : *writers) {
    if (handshake_done(*writer)) {
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

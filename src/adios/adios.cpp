#include "adios/adios.h"

namespace imc::adios {

// ---------------------------------------------------------- MPI-IO ----

namespace {
// Per-variable BP metadata footer and the min/max statistics scan rate.
constexpr std::uint64_t kBpFooterBytes = 4 * kKiB;
constexpr double kStatsScanBandwidth = 10e9;  // bytes/s at Titan speed

Status no_step_open() {
  return make_error(ErrorCode::kFailedPrecondition, "no step open");
}
}  // namespace

MpiIoClient::MpiIoClient(lustre::FileSystem& fs, hpc::Node& node,
                         staging::Role role, std::string base_path)
    : fs_(&fs), node_(&node), role_(role), base_path_(std::move(base_path)) {}

sim::Task<Status> MpiIoClient::begin_step(int step) {
  // adios_open: Table I stripes with lfs setstripe -S 1m -c -1.
  path_ = base_path_ + "." + std::to_string(step);
  auto file = co_await fs_->open(path_);
  if (!file.has_value()) co_return file.status();
  file_ = std::move(*file);
  co_return Status::ok();
}

sim::Task<Status> MpiIoClient::put(const nda::VarDesc& var,
                                   const nda::Slab& slab) {
  if (!file_) co_return no_step_open();
  const std::uint64_t bytes = slab.box().volume() * nda::kElementBytes;
  Status st = co_await file_->write(*node_, file_->size(),
                                    bytes + kBpFooterBytes);
  if (st.is_ok()) fs_->record_object(path_, var, slab);
  co_return st;
}

sim::Task<Status> MpiIoClient::end_step(int /*step*/) {
  // adios_close on a written file: one more metadata operation per rank
  // per step on the (few) Lustre MDS.
  if (role_ == staging::Role::kWriter && file_) co_await fs_->close(*file_);
  co_return Status::ok();
}

sim::Task<Result<nda::Slab>> MpiIoClient::get(const nda::VarDesc& var,
                                              const nda::Box& box) {
  if (!file_) co_return no_step_open();
  const std::uint64_t bytes = box.volume() * nda::kElementBytes;
  if (Status st = co_await file_->read(*node_, 0, bytes); !st.is_ok()) {
    co_return st;
  }
  auto hits = fs_->find_objects(path_, var, box);
  std::uint64_t covered = 0;
  for (const auto* slab : hits) {
    covered += nda::intersect(slab->box(), box)->volume();
  }
  if (covered < box.volume()) {
    co_return make_error(ErrorCode::kNotFound,
                         "file covers only " + std::to_string(covered) +
                             " of " + std::to_string(box.volume()) +
                             " elements");
  }
  co_return nda::assemble(box, hits, kMpiIoReadCapElems);
}

sim::Task<> MpiIoClient::finalize() {
  file_.reset();
  co_return;
}

// -------------------------------------------------------------- Io ----

Io::Io(sim::Engine& engine, const AdiosConfig& config,
       std::unique_ptr<staging::Client> inner, mem::ProcessMemory& memory,
       double cpu_speed)
    : engine_(&engine),
      config_(&config),
      inner_(std::move(inner)),
      memory_(&memory),
      cpu_speed_(cpu_speed) {}

sim::Task<Status> Io::open() {
  if (Status st = co_await inner_->open(); !st.is_ok()) co_return st;
  open_ = true;
  co_return Status::ok();
}

sim::Task<Status> Io::put(const nda::VarDesc& var, const nda::Slab& slab) {
  if (!open_) {
    co_return make_error(ErrorCode::kFailedPrecondition, "file not open");
  }
  const std::uint64_t bytes = slab.box().volume() * nda::kElementBytes;
  if (buffered_bytes_ + bytes > config_->buffer_bytes) {
    co_return make_error(
        ErrorCode::kOutOfMemory,
        "ADIOS buffer exceeded: " + std::to_string(buffered_bytes_ + bytes) +
            " > " + std::to_string(config_->buffer_bytes) +
            " B (raise <buffer size-MB>)");
  }
  if (Status st = memory_->allocate(mem::Tag::kLibrary, bytes); !st.is_ok()) {
    co_return st;
  }
  buffered_bytes_ += bytes;
  if (config_->stats) {
    // min/max/avg statistics pass over the payload.
    co_await engine_->sleep(static_cast<double>(bytes) /
                            (kStatsScanBandwidth * cpu_speed_));
  }
  pending_.push_back(Pending{var, slab.extract(slab.box())});
  co_return Status::ok();
}

sim::Task<Status> Io::end_step(int step) {
  Status result = Status::ok();
  for (auto& pending : pending_) {
    const std::uint64_t bytes =
        pending.slab.box().volume() * nda::kElementBytes;
    if (Status st = co_await inner_->put(pending.var, pending.slab);
        !st.is_ok()) {
      result = st;
    }
    memory_->free(mem::Tag::kLibrary, bytes);
    buffered_bytes_ -= bytes;
  }
  pending_.clear();
  if (!result.is_ok()) co_return result;
  co_return co_await inner_->end_step(step);
}

sim::Task<Result<nda::Slab>> Io::get(const nda::VarDesc& var,
                                     const nda::Box& box) {
  if (!open_) {
    co_return make_error(ErrorCode::kFailedPrecondition, "file not open");
  }
  co_return co_await inner_->get(var, box);
}

sim::Task<> Io::finalize() {
  co_await inner_->finalize();
  open_ = false;
}

}  // namespace imc::adios

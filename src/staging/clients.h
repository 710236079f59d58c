// The staging libraries' step clients (staging/client.h). MPI-IO's BP-file
// client lives with ADIOS, its only packaging (adios/adios.h).
#pragma once

#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "dataspaces/dataspaces.h"
#include "decaf/decaf.h"
#include "dimes/dimes.h"
#include "flexpath/flexpath.h"
#include "mem/memory.h"
#include "staging/client.h"

namespace imc::staging {

// DataSpaces and DIMES, whose clients share one shape: puts stay invisible
// until the writer root publishes the version (dspaces_unlock_on_write),
// and a get first waits for that publish (dspaces_lock_on_read).
template <class Lib>
class VersionedClient final : public Client {
 public:
  VersionedClient(Lib& lib, net::Endpoint self, mem::ProcessMemory& memory)
      : client_(lib, self, memory) {}

  sim::Task<Status> open() override { return client_.init(); }
  sim::Task<Status> put(const nda::VarDesc& var,
                        const nda::Slab& slab) override {
    return client_.put(var, slab);
  }
  sim::Task<Status> commit(const nda::VarDesc& var) override {
    return client_.publish(var);
  }
  sim::Task<Result<nda::Slab>> get(const nda::VarDesc& var,
                                   const nda::Box& box) override {
    if (Status st = co_await client_.wait_version(var.name, var.version);
        !st.is_ok()) {
      co_return st;
    }
    co_return co_await client_.get(var, box);
  }
  sim::Task<> finalize() override {
    client_.finalize();
    co_return;
  }
  // DIMES keeps staged data in the writer's RDMA buffer.
  Coupling coupling() const override {
    return {.writers_outlive_readers = std::is_same_v<Lib, dimes::Dimes>};
  }

 private:
  typename Lib::Client client_;
};

// Flexpath: a writer publishes each step into its own queue, so it outlives
// the readers pulling from it; a reader subscribes once every writer is
// open and releases each step when its analysis is done with it.
class FlexpathClient final : public Client {
 public:
  FlexpathClient(flexpath::Flexpath& fp, net::Endpoint self,
                 mem::ProcessMemory& memory, Role role, std::string group)
      : group_(std::move(group)) {
    if (role == Role::kWriter) {
      writer_.emplace(fp, self, memory);
    } else {
      reader_.emplace(fp, self, memory);
    }
  }

  sim::Task<Status> open() override {
    return writer_ ? writer_->open(group_) : reader_->open(group_);
  }
  sim::Task<Status> put(const nda::VarDesc& var,
                        const nda::Slab& slab) override {
    return writer_->write_step(var, slab);
  }
  sim::Task<Status> end_step(int step) override {
    return reader_ ? reader_->release_step(step) : Client::end_step(step);
  }
  sim::Task<Result<nda::Slab>> get(const nda::VarDesc& var,
                                   const nda::Box& box) override {
    return reader_->read_step(var, box);
  }
  sim::Task<> finalize() override {
    if (writer_) writer_->close();
    if (reader_) reader_->close();
    co_return;
  }
  Coupling coupling() const override {
    return {.readers_open_after_writers = true,
            .writers_outlive_readers = true};
  }

 private:
  std::string group_;  // the ADIOS group: the FFS format's name
  std::optional<flexpath::Flexpath::Writer> writer_;
  std::optional<flexpath::Flexpath::Reader> reader_;
};

// Decaf: producers push each step through the dataflow ranks and announce
// the end of their stream at finalize; consumers pull from the dataflow.
// Every rank holds the Bredala client pool from open to finalize (Fig. 5d:
// ~40% above the other libraries' clients). The dataflow couples the
// producers, so they skip the writers' barrier and commit.
class DecafClient final : public Client {
 public:
  // `index` is the rank's producer or consumer index; a producer announces
  // `steps` steps at finalize.
  DecafClient(decaf::Dataflow& dflow, mem::ProcessMemory& memory, Role role,
              int index, int steps)
      : dflow_(&dflow), memory_(&memory), role_(role), index_(index),
        steps_(steps) {}

  sim::Task<Status> open() override {
    Status st;
    pool_ = mem::ScopedAlloc(*memory_, mem::Tag::kLibrary,
                             dflow_->config().client_base_bytes, &st);
    co_return st;
  }
  sim::Task<Status> put(const nda::VarDesc& var,
                        const nda::Slab& slab) override {
    return dflow_->put(index_, var, slab);
  }
  sim::Task<Result<nda::Slab>> get(const nda::VarDesc& var,
                                   const nda::Box& box) override {
    return dflow_->get(index_, var, box);
  }
  sim::Task<> finalize() override {
    if (role_ == Role::kWriter) co_await dflow_->stop(index_, steps_);
    pool_.reset();
  }
  Coupling coupling() const override { return {.step_barrier = false}; }

 private:
  decaf::Dataflow* dflow_;
  mem::ProcessMemory* memory_;
  Role role_;
  int index_;
  int steps_;
  mem::ScopedAlloc pool_;  // the Bredala client pool, open to finalize
};

}  // namespace imc::staging

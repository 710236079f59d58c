#include "decaf/decaf.h"

#include <algorithm>
#include <cassert>

#include "trace/trace.h"

namespace imc::decaf {

namespace {

// Per-step tag layout (positive tags; collectives use negative ones).
constexpr int kTagStride = 4;
int data_tag(int step) { return 1 + kTagStride * step; }
int request_tag(int step) { return 2 + kTagStride * step; }
int reply_tag(int step) { return 3 + kTagStride * step; }

}  // namespace

Dataflow::Dataflow(sim::Engine& engine, mpi::Comm& world, int prod_base,
                   int nprod, int dflow_base, int ndflow, int con_base,
                   int ncon, Config config,
                   std::vector<mem::ProcessMemory*> rank_memory)
    : engine_(&engine),
      world_(&world),
      prod_base_(prod_base),
      nprod_(nprod),
      dflow_base_(dflow_base),
      ndflow_(ndflow),
      con_base_(con_base),
      ncon_(ncon),
      config_(std::move(config)),
      rank_memory_(std::move(rank_memory)),
      steps_done_(static_cast<std::size_t>(ndflow), 0) {
  assert(static_cast<int>(rank_memory_.size()) == world_->size());
}

std::vector<nda::Box> Dataflow::split_for(const nda::Box& box, int parts) {
  if (box.empty()) return {};
  // Split along the box's longest extent.
  int longest = 0;
  for (int d = 1; d < box.dims(); ++d) {
    if (box.extent(d) > box.extent(longest)) longest = d;
  }
  const int usable =
      static_cast<int>(std::min<std::uint64_t>(
          static_cast<std::uint64_t>(parts), box.extent(longest)));
  // decompose_1d works on whole domains; shift the box to origin and back.
  nda::Dims extents(box.lb.size());
  for (std::size_t d = 0; d < extents.size(); ++d) extents[d] = box.extent(
      static_cast<int>(d));
  auto pieces = nda::decompose_1d(extents, usable, longest);
  for (auto& piece : pieces) {
    for (std::size_t d = 0; d < extents.size(); ++d) {
      piece.lb[d] += box.lb[d];
      piece.ub[d] += box.lb[d];
    }
  }
  return pieces;
}

std::vector<int> Dataflow::dflow_targets(int producer_index) const {
  const long long p = producer_index, P = nprod_, D = ndflow_;
  const int lo = static_cast<int>(p * D / P);
  const int hi = std::max(lo + 1, static_cast<int>((p + 1) * D / P));
  std::vector<int> targets;
  for (int d = lo; d < hi && d < ndflow_; ++d) targets.push_back(d);
  return targets;
}

int Dataflow::expected_senders(int dflow_index) const {
  const long long d = dflow_index, P = nprod_, D = ndflow_;
  if (P >= D) {
    // Producers p with floor(p*D/P) == d, i.e. p in
    // [ceil(d*P/D), ceil((d+1)*P/D)).
    const long long lo = (d * P + D - 1) / D;
    const long long hi = ((d + 1) * P + D - 1) / D;
    return static_cast<int>(hi - lo);
  }
  // Exactly one producer owns each dflow: p = d*P/D.
  return 1;
}

std::vector<int> Dataflow::dflow_queries(int consumer_index) const {
  // Proportional range plus one dflow of padding on each side, covering
  // boundary overlap between consumer and producer decompositions.
  const long long c = consumer_index, C = ncon_, D = ndflow_;
  const int lo = std::max(0LL, c * D / C - 1);
  const int hi = std::min(static_cast<long long>(ndflow_),
                          (c + 1) * D / C + 1);
  std::vector<int> targets;
  for (int d = static_cast<int>(lo); d < hi; ++d) targets.push_back(d);
  return targets;
}

int Dataflow::expected_requests(int dflow_index) const {
  // Exact inverse of dflow_queries, evaluated once per dflow rank.
  const long long d = dflow_index, C = ncon_, D = ndflow_;
  int count = 0;
  for (long long c = 0; c < C; ++c) {
    const long long lo = std::max(0LL, c * D / C - 1);
    const long long hi =
        std::min(static_cast<long long>(ndflow_), (c + 1) * D / C + 1);
    if (d >= lo && d < hi) ++count;
    if (lo > d) break;  // lo is nondecreasing in c
  }
  return count;
}

sim::Task<Status> Dataflow::put(int producer_index, const nda::VarDesc& var,
                                const nda::Slab& slab) {
  const int me = prod_base_ + producer_index;
  mem::ProcessMemory& memory = *rank_memory_[static_cast<std::size_t>(me)];
  const std::uint64_t raw = slab.box().volume() * nda::kElementBytes;
  const net::Endpoint self = world_->endpoint(me);
  trace::Span span =
      trace::span("decaf.put", trace::Track{self.node->id(), self.pid});
  span.arg("bytes", static_cast<double>(raw));

  // Bredala pipeline on the producer: wrap the raw array into a semantic
  // container (2x), then flatten it into a contiguous wire buffer (1x).
  Status st;
  mem::ScopedAlloc container(memory, mem::Tag::kTransform, 2 * raw, &st);
  if (!st.is_ok()) co_return st;  // "out of main memory" abort of Table IV
  mem::ScopedAlloc flat(memory, mem::Tag::kTransform, raw, &st);
  if (!st.is_ok()) co_return st;
  co_await engine_->sleep(serial::encode_seconds(raw, config_.cpu_speed));

  // Split by count and ship. Each target dataflow rank receives exactly one
  // message from this producer per step (possibly an empty chunk), so the
  // dataflow's gather count is deterministic.
  const std::vector<int> targets = dflow_targets(producer_index);
  auto chunks = split_for(slab.box(), static_cast<int>(targets.size()));
  for (std::size_t j = 0; j < targets.size(); ++j) {
    Chunk chunk;
    chunk.var = var;
    if (j < chunks.size()) chunk.slab = slab.extract(chunks[j]);
    const std::uint64_t bytes =
        chunk.slab.box().volume() * nda::kElementBytes +
        serial::kEventHeaderBytes;
    co_await world_->send(me, dflow_base_ + targets[j], data_tag(var.version),
                          bytes, std::move(chunk));
  }
  co_return Status::ok();
}

sim::Task<> Dataflow::stop(int producer_index, int after_step) {
  // The stop marker rides the data tag of the step after the last one, so
  // the dataflow's per-step gather terminates without a side channel.
  const int me = prod_base_ + producer_index;
  for (int d : dflow_targets(producer_index)) {
    Chunk marker;
    marker.last = true;
    marker.var.version = -1;
    co_await world_->send(me, dflow_base_ + d, data_tag(after_step),
                          serial::kEventHeaderBytes, std::move(marker));
  }
}

bool Dataflow::dflow_aborted(int dflow_index, const Status& st) {
  if (st.is_ok()) return false;
  engine_->record_failure("decaf dflow " + std::to_string(dflow_index) +
                          " aborted: " + st.to_string());
  return true;
}

sim::Task<> Dataflow::dflow_loop(int dflow_index) {
  const int me = dflow_base_ + dflow_index;
  mem::ProcessMemory& memory = *rank_memory_[static_cast<std::size_t>(me)];

  const int senders = expected_senders(dflow_index);
  const int requests_per_step = expected_requests(dflow_index);
  const net::Endpoint self = world_->endpoint(me);
  const trace::Track track{self.node->id(), self.pid};

  for (int step = 0;; ++step) {
    trace::Span step_span = trace::span("decaf.dflow_step", track);
    // Gather one chunk from each producer routed to this rank (or stop
    // markers riding the same tag).
    std::vector<Chunk> chunks;
    std::uint64_t recv_bytes = 0;
    bool stopped = false;
    for (int p = 0; p < senders; ++p) {
      mpi::Message m = co_await world_->recv(me, mpi::kAnySource,
                                             data_tag(step));
      Chunk chunk = std::any_cast<Chunk>(std::move(m.payload));
      if (chunk.last) {
        stopped = true;
        continue;
      }
      recv_bytes += chunk.slab.box().volume() * nda::kElementBytes;
      chunks.push_back(std::move(chunk));
    }
    if (stopped) break;
    step_span.arg("bytes", static_cast<double>(recv_bytes));

    // Bredala pipeline on the dataflow rank; S = this rank's share.
    // Peak: recv wire (1S) + decoded containers (2S) + merged container
    // (2S) + retained staged container (2S) = 7S (Fig. 7).
    const std::uint64_t s = recv_bytes;
    Status st;
    mem::ScopedAlloc recv_buffers(memory, mem::Tag::kLibrary, s, &st);
    if (dflow_aborted(dflow_index, st)) co_return;
    mem::ScopedAlloc decoded(memory, mem::Tag::kTransform, 2 * s, &st);
    if (dflow_aborted(dflow_index, st)) co_return;
    co_await engine_->sleep(serial::encode_seconds(s, config_.cpu_speed));
    mem::ScopedAlloc merged(memory, mem::Tag::kTransform, 2 * s, &st);
    if (dflow_aborted(dflow_index, st)) co_return;
    co_await engine_->sleep(serial::encode_seconds(s, config_.cpu_speed));
    mem::ScopedAlloc staged(memory, mem::Tag::kStaging, 2 * s, &st);
    if (dflow_aborted(dflow_index, st)) co_return;
    recv_buffers.reset();
    decoded.reset();
    merged.reset();

    // Serve every consumer request routed to this rank for this step.
    for (int c = 0; c < requests_per_step; ++c) {
      mpi::Message m = co_await world_->recv(me, mpi::kAnySource,
                                             request_tag(step));
      auto request = std::any_cast<PieceRequest>(std::move(m.payload));
      std::vector<nda::Slab> pieces;
      std::uint64_t piece_bytes = 0;
      for (const Chunk& chunk : chunks) {
        if (auto overlap = nda::intersect(chunk.slab.box(), request.box)) {
          pieces.push_back(chunk.slab.extract(*overlap));
          piece_bytes += overlap->volume() * nda::kElementBytes;
        }
      }
      mem::ScopedAlloc reply_buffer(memory, mem::Tag::kLibrary, piece_bytes,
                                    &st);
      if (dflow_aborted(dflow_index, st)) co_return;
      co_await engine_->sleep(
          serial::encode_seconds(piece_bytes, config_.cpu_speed));
      co_await world_->send(me, m.source, reply_tag(step),
                            piece_bytes + serial::kEventHeaderBytes,
                            std::move(pieces));
    }
    staged.reset();
    ++steps_done_[static_cast<std::size_t>(dflow_index)];
  }
}

sim::Task<Result<nda::Slab>> Dataflow::get(int consumer_index,
                                           const nda::VarDesc& var,
                                           const nda::Box& box) {
  const int me = con_base_ + consumer_index;
  mem::ProcessMemory& memory = *rank_memory_[static_cast<std::size_t>(me)];
  const net::Endpoint self = world_->endpoint(me);
  trace::Span span =
      trace::span("decaf.get", trace::Track{self.node->id(), self.pid});

  const std::vector<int> queried = dflow_queries(consumer_index);
  for (int d : queried) {
    // Hoisted: GCC 12 mis-times the destruction of non-trivial temporaries
    // inside co_await argument expressions.
    PieceRequest request{box};
    co_await world_->send(me, dflow_base_ + d, request_tag(var.version),
                          serial::kEventHeaderBytes, std::move(request));
  }
  std::vector<nda::Slab> pieces;
  std::uint64_t covered = 0;
  std::uint64_t received_bytes = 0;
  for (std::size_t i = 0; i < queried.size(); ++i) {
    mpi::Message m = co_await world_->recv(me, mpi::kAnySource,
                                           reply_tag(var.version));
    auto batch = std::any_cast<std::vector<nda::Slab>>(std::move(m.payload));
    for (auto& piece : batch) {
      covered += piece.box().volume();
      received_bytes += piece.box().volume() * nda::kElementBytes;
      pieces.push_back(std::move(piece));
    }
  }
  span.arg("bytes", static_cast<double>(received_bytes));
  // Decode received containers (transient, then handed to the app).
  Status st;
  mem::ScopedAlloc decode_buffer(memory, mem::Tag::kLibrary, received_bytes,
                                 &st);
  if (!st.is_ok()) co_return st;
  co_await engine_->sleep(
      serial::encode_seconds(received_bytes, config_.cpu_speed));

  if (covered < box.volume()) {
    co_return make_error(ErrorCode::kNotFound,
                         "dataflow delivered " + std::to_string(covered) +
                             " of " + std::to_string(box.volume()) +
                             " elements of " + box.to_string());
  }
  co_return nda::assemble(box, pieces, config_.materialize_cap_elems);
}

}  // namespace imc::decaf

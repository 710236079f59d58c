// Microbenchmarks (google-benchmark): throughput of the simulation engine
// and the hot paths of the library — useful when tuning the simulator
// itself and as a regression guard for the paper-scale sweeps.
#include <benchmark/benchmark.h>

#include "apps/analysis.h"
#include "apps/kernels.h"
#include "bench_util.h"
#include "dataspaces/dataspaces.h"
#include "hpc/cluster.h"
#include "ndarray/index.h"
#include "ndarray/ndarray.h"
#include "net/fabric.h"
#include "net/transport.h"
#include "common/log.h"
#include "prof/prof.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sweep/sweep.h"
#include "trace/trace.h"

using namespace imc;

namespace {

// Raw event throughput: N processes ping-ponging through the queue.
void BM_EngineEventThroughput(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    engine.spawn([](sim::Engine& e, int hops) -> sim::Task<> {
      for (int i = 0; i < hops; ++i) co_await e.sleep(1e-6);
    }(engine, hops));
    const std::size_t events = engine.run();
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_EngineEventThroughput)->Arg(1000)->Arg(100000);

void BM_MailboxRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    sim::Queue<int> ping(engine), pong(engine);
    engine.spawn([](sim::Queue<int>& in, sim::Queue<int>& out) -> sim::Task<> {
      for (int i = 0; i < 1000; ++i) out.push(co_await in.pop());
    }(ping, pong));
    engine.spawn([](sim::Queue<int>& out, sim::Queue<int>& in) -> sim::Task<> {
      for (int i = 0; i < 1000; ++i) {
        out.push(i);
        benchmark::DoNotOptimize(co_await in.pop());
      }
    }(ping, pong));
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MailboxRoundTrip);

// Same-instant scheduling churn: a few processes yield()-storming while a
// large population of far-future sleepers keeps the event heap deep. The
// ready-batch fast path services the yields without touching the heap; the
// parked sleepers are reaped unprocessed when the engine is destroyed.
void BM_EngineSameInstantChurn(benchmark::State& state) {
  const int yields = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1024; ++i) {
      engine.spawn([](sim::Engine& e) -> sim::Task<> {
        co_await e.sleep(1e9);
      }(engine));
    }
    for (int p = 0; p < 4; ++p) {
      engine.spawn([](sim::Engine& e, int n) -> sim::Task<> {
        for (int i = 0; i < n; ++i) co_await e.yield();
      }(engine, yields));
    }
    const std::size_t events = engine.run_until(1.0);
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(state.iterations() * 4 * yields);
}
BENCHMARK(BM_EngineSameInstantChurn)->Arg(4096);

// Box-query pair: the staged-object lookup over a 16x16x16 decomposition of
// a 256^3 domain (4096 objects), querying a 40^3 sub-box (27 hits). Scan is
// the pre-index baseline (nda::intersecting); Index is the bucketed grid
// (nda::BoxIndex) the staging servers now use.
const nda::Dims kQueryGlobal = {256, 256, 256};
const nda::Box kQueryTarget({100, 100, 100}, {140, 140, 140});

void BM_BoxQueryScan(benchmark::State& state) {
  const auto boxes = nda::decompose_grid(kQueryGlobal, {16, 16, 16});
  for (auto _ : state) {
    auto hits = nda::intersecting(boxes, kQueryTarget);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoxQueryScan);

void BM_BoxQueryIndex(benchmark::State& state) {
  const auto boxes = nda::decompose_grid(kQueryGlobal, {16, 16, 16});
  const nda::BoxIndex index = nda::BoxIndex::build(boxes);
  benchmark::DoNotOptimize(index.query(kQueryTarget).data());  // warm build
  for (auto _ : state) {
    auto hits = index.query(kQueryTarget);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoxQueryIndex);

// Slab-copy pair over an n^3 overlap into a larger target. Naive is the
// pre-optimization per-coordinate odometer through the public element API;
// Strided is fill_from's row-run kernel.
void BM_SlabCopyNaive(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  const nda::Box src_box({16, 16, 16}, {16 + n, 16 + n, 16 + n});
  nda::Slab src = nda::Slab::zeros(src_box);
  nda::Slab dst = nda::Slab::zeros(nda::Box({0, 0, 0}, {n + 32, n + 32, n + 32}));
  for (auto _ : state) {
    nda::Dims coord = src_box.lb;
    for (;;) {
      dst.set(coord, src.at(coord));
      std::size_t d = coord.size();
      bool done = true;
      while (d-- > 0) {
        if (++coord[d] < src_box.ub[d]) {
          done = false;
          break;
        }
        coord[d] = src_box.lb[d];
      }
      if (done) break;
    }
    benchmark::DoNotOptimize(dst.data().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(src_box.volume() * 8));
}
BENCHMARK(BM_SlabCopyNaive)->Arg(64);

void BM_SlabCopyStrided(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  const nda::Box src_box({16, 16, 16}, {16 + n, 16 + n, 16 + n});
  nda::Slab src = nda::Slab::zeros(src_box);
  nda::Slab dst = nda::Slab::zeros(nda::Box({0, 0, 0}, {n + 32, n + 32, n + 32}));
  for (auto _ : state) {
    dst.fill_from(src);
    benchmark::DoNotOptimize(dst.data().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(src_box.volume() * 8));
}
BENCHMARK(BM_SlabCopyStrided)->Arg(64);

// Synthetic-source fill: the same overlap materialized from the pure
// content function (per-row hash prefix vs per-element full chain).
void BM_SlabFillSyntheticNaive(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  const nda::Box src_box({16, 16, 16}, {16 + n, 16 + n, 16 + n});
  nda::Slab src = nda::Slab::synthetic(src_box, 42);
  nda::Slab dst = nda::Slab::zeros(nda::Box({0, 0, 0}, {n + 32, n + 32, n + 32}));
  for (auto _ : state) {
    nda::Dims coord = src_box.lb;
    for (;;) {
      dst.set(coord, src.at(coord));
      std::size_t d = coord.size();
      bool done = true;
      while (d-- > 0) {
        if (++coord[d] < src_box.ub[d]) {
          done = false;
          break;
        }
        coord[d] = src_box.lb[d];
      }
      if (done) break;
    }
    benchmark::DoNotOptimize(dst.data().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(src_box.volume() * 8));
}
BENCHMARK(BM_SlabFillSyntheticNaive)->Arg(64);

void BM_SlabFillSyntheticStrided(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  const nda::Box src_box({16, 16, 16}, {16 + n, 16 + n, 16 + n});
  nda::Slab src = nda::Slab::synthetic(src_box, 42);
  nda::Slab dst = nda::Slab::zeros(nda::Box({0, 0, 0}, {n + 32, n + 32, n + 32}));
  for (auto _ : state) {
    dst.fill_from(src);
    benchmark::DoNotOptimize(dst.data().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(src_box.volume() * 8));
}
BENCHMARK(BM_SlabFillSyntheticStrided)->Arg(64);

// Tracing overhead pair: the per-span cost with no recorder bound (the
// compiled-in-but-disabled fast path every run pays) vs. the full record
// path with a live recorder. The Traced variants below repeat the hot
// kernels with a disabled span in the loop so scripts/bench.py can assert
// the off-by-default overhead stays under its budget on real work.
void BM_TraceSpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    TRACE_SPAN("bench.noop", 0, 0);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanDisabled);

#if IMC_TRACE_ENABLED
void BM_TraceSpanEnabled(benchmark::State& state) {
  sim::Engine engine;
  trace::Recorder recorder(engine, "bench", 4096);
  BindWorld bind({.recorder = &recorder});
  std::size_t recorded = 0;
  for (auto _ : state) {
    TRACE_SPAN("bench.noop", 0, 0);
    if (++recorded == 4096) {
      // Drain below the event cap so every iteration takes the append path.
      benchmark::DoNotOptimize(recorder.take_chunk().digest);
      recorded = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanEnabled);
#endif

// Profiling overhead pair, mirroring the tracing pair above: PROF_TIMER
// with no meter bound is the fast path every run pays when IMC_PROF is
// compiled in but no collector is installed — one thread-local null check,
// no clock read. The Profiled kernel variants further down repeat the hot
// kernels with a disabled timer in the loop so scripts/bench.py can assert
// the off-by-default overhead stays under its budget on real work.
void BM_ProfTimerDisabled(benchmark::State& state) {
  for (auto _ : state) {
    PROF_TIMER("bench.noop");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfTimerDisabled);

#if IMC_PROF_ENABLED
void BM_ProfTimerEnabled(benchmark::State& state) {
  prof::Meter meter("bench");
  BindWorld bind({.meter = &meter});
  for (auto _ : state) {
    PROF_TIMER("bench.noop");
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(meter.stats().size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfTimerEnabled);
#endif

void BM_BoxQueryIndexTraced(benchmark::State& state) {
  const auto boxes = nda::decompose_grid(kQueryGlobal, {16, 16, 16});
  const nda::BoxIndex index = nda::BoxIndex::build(boxes);
  benchmark::DoNotOptimize(index.query(kQueryTarget).data());  // warm build
  for (auto _ : state) {
    TRACE_SPAN("bench.box_query", 0, 0);
    auto hits = index.query(kQueryTarget);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoxQueryIndexTraced);

void BM_SlabCopyStridedTraced(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  const nda::Box src_box({16, 16, 16}, {16 + n, 16 + n, 16 + n});
  nda::Slab src = nda::Slab::zeros(src_box);
  nda::Slab dst = nda::Slab::zeros(nda::Box({0, 0, 0}, {n + 32, n + 32, n + 32}));
  for (auto _ : state) {
    TRACE_SPAN("bench.slab_copy", 0, 0);
    dst.fill_from(src);
    benchmark::DoNotOptimize(dst.data().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(src_box.volume() * 8));
}
BENCHMARK(BM_SlabCopyStridedTraced)->Arg(64);

// Disabled-profiling kernel variants: same hot kernels with an unbound
// PROF_TIMER in the loop. bench.py compares these against the untimed
// kernels (BM_BoxQueryIndex / BM_SlabFillSyntheticStrided) to keep the
// compiled-in-but-off cost under its <2% budget.
void BM_BoxQueryIndexProfiled(benchmark::State& state) {
  const auto boxes = nda::decompose_grid(kQueryGlobal, {16, 16, 16});
  const nda::BoxIndex index = nda::BoxIndex::build(boxes);
  benchmark::DoNotOptimize(index.query(kQueryTarget).data());  // warm build
  for (auto _ : state) {
    PROF_TIMER("bench.box_query");
    auto hits = index.query(kQueryTarget);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoxQueryIndexProfiled);

void BM_SlabCopyStridedProfiled(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  const nda::Box src_box({16, 16, 16}, {16 + n, 16 + n, 16 + n});
  nda::Slab src = nda::Slab::zeros(src_box);
  nda::Slab dst = nda::Slab::zeros(nda::Box({0, 0, 0}, {n + 32, n + 32, n + 32}));
  for (auto _ : state) {
    PROF_TIMER("bench.slab_copy");
    dst.fill_from(src);
    benchmark::DoNotOptimize(dst.data().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(src_box.volume() * 8));
}
BENCHMARK(BM_SlabCopyStridedProfiled)->Arg(64);

// Per-sweep dispatch overhead: the pool's cost of running trivial jobs —
// worker recruitment, context rebinding, ordered log/chunk flush — with no
// actual work inside. Arg is the worker count (1 = the sequential path).
void BM_SweepOverhead(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr std::size_t kJobs = 256;
  for (auto _ : state) {
    sweep::Pool(threads).run_indexed(kJobs, [](std::size_t i) {
      benchmark::DoNotOptimize(i);
    });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kJobs));
}
BENCHMARK(BM_SweepOverhead)->Arg(1)->Arg(2);

// Per-world context cost, isolated from the pool: Fresh builds a new
// WorldContext (auditor ledger maps, arena chunk) for every job; Reused is
// the pool's actual pattern — one context whose run() resets the ledger and
// rewinds the arena. The gap between the two is what world reuse saves.
void BM_WorldSetupTeardownFresh(benchmark::State& state) {
  for (auto _ : state) {
    sweep::WorldContext world;
    world.run([] {
      IMC_WARN() << "world heartbeat";
      benchmark::ClobberMemory();
    });
    benchmark::DoNotOptimize(world.take_logs().size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorldSetupTeardownFresh);

void BM_WorldSetupTeardownReused(benchmark::State& state) {
  sweep::WorldContext world;
  for (auto _ : state) {
    world.run([] {
      IMC_WARN() << "world heartbeat";
      benchmark::ClobberMemory();
    });
    benchmark::DoNotOptimize(world.take_logs().size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorldSetupTeardownReused);

// Log capture cost: format N lines into a World's log capture. The chunked
// LogText append is what keeps this linear in bytes with no intermediate
// copies.
void BM_LogCapture(benchmark::State& state) {
  const int lines = static_cast<int>(state.range(0));
  std::size_t bytes = 0;
  for (auto _ : state) {
    LogText captured;
    {
      BindWorld capture({.log = &captured});
      for (int i = 0; i < lines; ++i) {
        log_message(LogLevel::kWarn, "staged object advanced a step");
      }
    }
    bytes = captured.size();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * lines);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_LogCapture)->Arg(1024);

void BM_SlabExtract(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  nda::Slab source = nda::Slab::zeros(nda::Box({0, 0}, {n, n}));
  const nda::Box sub({n / 4, n / 4}, {3 * n / 4, 3 * n / 4});
  for (auto _ : state) {
    nda::Slab piece = source.extract(sub);
    benchmark::DoNotOptimize(piece.data().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(sub.volume() * 8));
}
BENCHMARK(BM_SlabExtract)->Arg(64)->Arg(256);

void BM_FabricReserve(benchmark::State& state) {
  sim::Engine engine;
  hpc::Cluster cluster(hpc::titan());
  cluster.allocate_nodes(2);
  net::Fabric fabric(engine, cluster.config());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fabric.reserve_transfer(cluster.node(0), cluster.node(1), 1 << 20));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FabricReserve);

// The Laplace analytics' cost per call: MTA over one 512 x 1024 reader slab
// (a laplace-content reader at 512^2 per rank), 2048 samples, through the
// world's plan, which every call after the first reuses. The tiled slab
// repeats a 48 x 48 Jacobi grid, as kernel-backed writers stage it; the
// synthetic one is what paper-scale readers assemble.
void BM_MomentAnalysis(benchmark::State& state, bool tiled) {
  const nda::Box box({0, 1024}, {512, 2048});
  apps::JacobiLaplace kernel(apps::JacobiLaplace::Params{48, 48, 100.0});
  kernel.sweep(4);
  const nda::Slab field = tiled ? nda::Slab::tiled(box, {48, 48}, kernel.grid())
                                : nda::Slab::synthetic(box, 11);
  apps::SamplePlans plans;
  for (auto _ : state) {
    const std::vector<double> moments =
        apps::moment_analysis(field, 4, 2048, plans);
    benchmark::DoNotOptimize(moments.data());
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK_CAPTURE(BM_MomentAnalysis, tiled, true);
BENCHMARK_CAPTURE(BM_MomentAnalysis, synthetic, false);

// End-to-end simulated put/get pair through DataSpaces (one writer, one
// reader, 64 KiB objects) — the per-operation cost that bounds how large a
// sweep the figure benches can run.
void BM_DataspacesPutGet(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    hpc::Cluster cluster(hpc::titan());
    net::Fabric fabric(engine, cluster.config());
    net::RdmaTransport ugni(engine, fabric, net::TransportKind::kRdmaUgni);
    dataspaces::Config config;
    config.num_servers = 1;
    config.client_base_bytes = 0;
    config.server_base_bytes = 0;
    dataspaces::DataSpaces ds(engine, cluster, ugni, config);
    bench::must_ok(ds.deploy(cluster.allocate_nodes(1)), "deploy");
    mem::ProcessMemory memory(engine, "w");
    dataspaces::DataSpaces::Client client(
        ds, net::Endpoint{1, 0, &cluster.node(cluster.allocate_nodes(1)[0])},
        memory);
    engine.spawn([](dataspaces::DataSpaces::Client& c) -> sim::Task<> {
      bench::must_ok(co_await c.init(), "client init");
      const nda::Dims dims = {64, 128};
      for (int v = 0; v < 8; ++v) {
        nda::VarDesc var{"x", dims, v};
        nda::Slab slab = nda::Slab::synthetic(nda::Box::whole(dims), 1);
        bench::must_ok(co_await c.put(var, slab), "put");
        bench::must_ok(co_await c.publish(var), "publish");
        benchmark::DoNotOptimize(co_await c.get(var, nda::Box::whole(dims)));
      }
    }(client));
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_DataspacesPutGet);

}  // namespace

BENCHMARK_MAIN();

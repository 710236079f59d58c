#include <gtest/gtest.h>

#include "common/units.h"
#include "workflow/workflow.h"

namespace imc::workflow {
namespace {

// A small, fast spec: tiny per-rank outputs (content materialized and
// verified through the real pipeline), testbed-free — runs on the modeled
// Titan/Cori but with scaled-down geometry.
Spec small_spec(AppSel app, MethodSel method) {
  Spec spec;
  spec.app = app;
  spec.method = method;
  spec.machine = hpc::titan();
  spec.nsim = 8;
  spec.nana = 4;
  spec.steps = 2;
  spec.lammps_atoms_per_proc = 2000;     // 80 KB per rank
  spec.laplace_rows = 64;
  spec.laplace_cols_per_proc = 64;       // 32 KB per rank
  spec.synthetic_elements_per_proc = 10240;
  return spec;
}

class AllMethods : public ::testing::TestWithParam<MethodSel> {};

TEST_P(AllMethods, LammpsWorkflowCompletes) {
  auto result = run(small_spec(AppSel::kLammps, GetParam()));
  EXPECT_TRUE(result.ok) << result.failure_summary();
  EXPECT_GT(result.end_to_end, 0);
  EXPECT_GE(result.ana_span, result.sim_span * 0.5);
  EXPECT_GT(result.sim_compute, 0);
  EXPECT_GT(result.sim_staging, 0);
}

TEST_P(AllMethods, LaplaceWorkflowCompletes) {
  auto result = run(small_spec(AppSel::kLaplace, GetParam()));
  EXPECT_TRUE(result.ok) << result.failure_summary();
  EXPECT_GT(result.end_to_end, 0);
  // The Laplace field is near-harmonic, not constant: MTA's second moment
  // must be positive (the real analysis ran on real content).
  EXPECT_GT(result.sample_analysis_value, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, AllMethods,
    ::testing::Values(MethodSel::kMpiIo, MethodSel::kDataspacesAdios,
                      MethodSel::kDataspacesNative, MethodSel::kDimesAdios,
                      MethodSel::kDimesNative, MethodSel::kFlexpath,
                      MethodSel::kDecaf),
    [](const auto& info) {
      std::string name{to_string(info.param)};
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// reader_box computes one reader's share on its own; it must be exactly
// that reader's block of the whole decomposition, also when the extent
// does not divide evenly and for every application layout.
TEST(ReaderBox, EqualsItsBlockOfDecompose1d) {
  struct Layout {
    AppSel app;
    bool match_layout;
    int dim;  // the dimension the application decomposes over
  };
  for (const Layout layout : {Layout{AppSel::kLammps, false, 1},
                              Layout{AppSel::kLaplace, false, 1},
                              Layout{AppSel::kSynthetic, false, 1},
                              Layout{AppSel::kSynthetic, true, 2}}) {
    for (int nana : {1, 3, 4, 7}) {
      Spec spec = small_spec(layout.app, MethodSel::kDataspacesNative);
      spec.nsim = 10;
      spec.nana = nana;
      spec.lammps_atoms_per_proc = 7;
      spec.laplace_rows = 6;
      spec.laplace_cols_per_proc = 5;
      spec.synthetic_match_layout = layout.match_layout;
      spec.synthetic_elements_per_proc = 5 * 512 * 5;
      const nda::Dims global = global_desc(spec, 0).global;
      const auto extent = global[static_cast<std::size_t>(layout.dim)];
      if (nana > 1) {
        ASSERT_NE(extent % static_cast<std::uint64_t>(nana), 0u);
      }
      const auto boxes = nda::decompose_1d(global, nana, layout.dim);
      for (int a = 0; a < nana; ++a) {
        EXPECT_EQ(reader_box(spec, a), boxes[static_cast<std::size_t>(a)])
            << to_string(layout.app) << " match=" << layout.match_layout
            << " nana=" << nana << " a=" << a;
      }
    }
  }
}

TEST(Workflow, MsdIsComputedFromRealKernelData) {
  // With materialized content the MSD after some MD steps must be > 0 (the
  // melt actually moves atoms).
  Spec spec = small_spec(AppSel::kLammps, MethodSel::kDataspacesNative);
  spec.steps = 3;
  auto result = run(spec);
  ASSERT_TRUE(result.ok) << result.failure_summary();
  EXPECT_GT(result.sample_analysis_value, 0);
}

TEST(Workflow, MpiIoIsPostProcessing) {
  // Analytics starts only after the simulation finished.
  auto result = run(small_spec(AppSel::kLammps, MethodSel::kMpiIo));
  ASSERT_TRUE(result.ok) << result.failure_summary();
  EXPECT_GT(result.ana_span, result.sim_span);
}

TEST(Workflow, InMemoryOverlapsSimAndAnalytics) {
  auto result = run(small_spec(AppSel::kLammps, MethodSel::kDataspacesNative));
  ASSERT_TRUE(result.ok) << result.failure_summary();
  // Coupled run: analytics finishes shortly after the simulation, not after
  // a full serialized post-processing phase.
  EXPECT_LT(result.ana_span, result.sim_span + result.end_to_end * 0.5);
}

TEST(Workflow, CoriComputeRunsSlower) {
  Spec titan_spec = small_spec(AppSel::kLaplace, MethodSel::kFlexpath);
  Spec cori_spec = titan_spec;
  cori_spec.machine = hpc::cori_knl();
  auto titan_result = run(titan_spec);
  auto cori_result = run(cori_spec);
  ASSERT_TRUE(titan_result.ok) << titan_result.failure_summary();
  ASSERT_TRUE(cori_result.ok) << cori_result.failure_summary();
  // Paper: Cori compute time ~ Titan / 0.636.
  EXPECT_NEAR(cori_result.sim_compute / titan_result.sim_compute, 1.0 / 0.636,
              0.05);
}

TEST(Workflow, SharedNodeModeRejectedOnTitan) {
  Spec spec = small_spec(AppSel::kLammps, MethodSel::kDataspacesNative);
  spec.shared_node_mode = true;  // Titan: no node sharing (§III-B7)
  auto result = run(spec);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure_summary().find("does not allow"),
            std::string::npos);
}

TEST(Workflow, SharedNodeModeWorksOnCoriWithSockets) {
  Spec spec = small_spec(AppSel::kLammps, MethodSel::kDataspacesNative);
  spec.machine = hpc::cori_knl();
  spec.shared_node_mode = true;
  spec.transport = Spec::Transport::kSockets;  // paper: avoid DRC
  auto result = run(spec);
  EXPECT_TRUE(result.ok) << result.failure_summary();
}

TEST(Workflow, DecafSharedNodeRejectedWithoutHeterogeneousLaunch) {
  Spec spec = small_spec(AppSel::kLammps, MethodSel::kDecaf);
  spec.machine = hpc::cori_knl();  // allows sharing but not heterogeneous
  spec.shared_node_mode = true;
  auto result = run(spec);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure_summary().find("heterogeneous"), std::string::npos);
}

TEST(Workflow, SocketsSlowerThanRdma) {
  Spec rdma_spec = small_spec(AppSel::kLammps, MethodSel::kDataspacesNative);
  rdma_spec.lammps_atoms_per_proc = 200000;  // 8 MB/rank: transfer-visible
  Spec socket_spec = rdma_spec;
  socket_spec.transport = Spec::Transport::kSockets;
  auto rdma_result = run(rdma_spec);
  auto socket_result = run(socket_spec);
  ASSERT_TRUE(rdma_result.ok) << rdma_result.failure_summary();
  ASSERT_TRUE(socket_result.ok) << socket_result.failure_summary();
  EXPECT_GT(socket_result.sim_staging, rdma_result.sim_staging);
}

TEST(Workflow, DimensionOverflowCrashesLegacyBuild) {
  Spec spec = small_spec(AppSel::kLammps, MethodSel::kDataspacesNative);
  spec.nsim = 8;
  spec.lammps_atoms_per_proc = 120'000'000;  // 5*8*120e6 > 2^32 elements
  spec.use_32bit_dims = true;
  auto result = run(spec);
  EXPECT_FALSE(result.ok);
  bool found = false;
  for (const auto& f : result.failures) {
    found = found || f.find("DIMENSION_OVERFLOW") != std::string::npos;
  }
  EXPECT_TRUE(found) << result.failure_summary();
}

TEST(Workflow, ServerMemoryAccountedForDataspaces) {
  Spec spec = small_spec(AppSel::kLaplace, MethodSel::kDataspacesNative);
  auto result = run(spec);
  ASSERT_TRUE(result.ok) << result.failure_summary();
  EXPECT_GT(result.server_peak, 0u);
  // Staged bytes visible under the staging tag.
  EXPECT_GT(result.server_tag_peaks[static_cast<int>(mem::Tag::kStaging)], 0u);
}

TEST(Workflow, DecafServerPeaksAtSevenTimesShare) {
  Spec spec = small_spec(AppSel::kLaplace, MethodSel::kDecaf);
  spec.nsim = 4;
  spec.nana = 2;
  spec.num_servers = 2;
  auto result = run(spec);
  ASSERT_TRUE(result.ok) << result.failure_summary();
  // Each dflow rank receives 2 producers' slabs: share = 2 * 32 KiB.
  const std::uint64_t share = 2 * 64 * 64 * 8;
  EXPECT_EQ(result.server_peak, 7 * share);
}

TEST(Workflow, TimelinesCapturedOnRequest) {
  Spec spec = small_spec(AppSel::kLammps, MethodSel::kDataspacesNative);
  spec.capture_timelines = true;
  auto result = run(spec);
  ASSERT_TRUE(result.ok) << result.failure_summary();
  EXPECT_FALSE(result.sim_timeline.empty());
  EXPECT_FALSE(result.server_timeline.empty());
}

TEST(Workflow, FlexpathHasNoStandaloneServers) {
  auto result = run(small_spec(AppSel::kLammps, MethodSel::kFlexpath));
  ASSERT_TRUE(result.ok) << result.failure_summary();
  EXPECT_EQ(result.servers_used, 0);
  EXPECT_EQ(result.server_peak, 0u);
}

TEST(Workflow, MatchedSyntheticLayoutIsFaster) {
  // Fig. 9: matching the decomposition dimension to the staging layout
  // avoids the N-to-1 convoy.
  Spec mismatched = small_spec(AppSel::kSynthetic,
                               MethodSel::kDataspacesNative);
  mismatched.nsim = 16;
  mismatched.nana = 8;
  mismatched.num_servers = 4;  // several servers so the convoy is visible
  mismatched.synthetic_elements_per_proc = 1'280'000;  // 10 MB
  mismatched.synthetic_match_layout = false;
  Spec matched = mismatched;
  matched.synthetic_match_layout = true;
  auto slow = run(mismatched);
  auto fast = run(matched);
  ASSERT_TRUE(slow.ok) << slow.failure_summary();
  ASSERT_TRUE(fast.ok) << fast.failure_summary();
  EXPECT_GT(slow.sim_staging, fast.sim_staging * 1.5);
}

}  // namespace
}  // namespace imc::workflow

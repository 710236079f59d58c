// Tests of the benchmark itself: the reference check, the seeded order and
// the per-layer probes.
#include <gtest/gtest.h>

#include <set>

#include "gauge.h"
#include "probes.h"
#include "reference.h"
#include "workloads.h"

namespace wfbench {
namespace {

using imc::workflow::AppSel;
using imc::workflow::MethodSel;
using imc::workflow::Spec;

Spec small_spec(AppSel app, MethodSel method) {
  Spec spec;
  spec.app = app;
  spec.method = method;
  spec.nsim = 8;
  spec.nana = 4;
  spec.steps = 2;
  spec.lammps_atoms_per_proc = 4096;  // materialized slabs
  spec.laplace_rows = 128;
  spec.laplace_cols_per_proc = 128;
  return spec;
}

TEST(Reference, MatchingRunPassesAndCorruptedFieldFails) {
  const Spec spec = small_spec(AppSel::kLammps, MethodSel::kDataspacesNative);
  const auto result = imc::workflow::run(spec);
  ASSERT_TRUE(result.ok) << result.failure_summary();
  const std::string key = spec_key(spec);
  Reference ref;
  ref[key] = make_record(result);
  const Reference parsed = parse_reference(format_reference(ref));
  EXPECT_EQ(check_result(parsed, key, result), "");

  for (std::size_t field = 0; field < parsed.at(key).size(); ++field) {
    Reference corrupted = parsed;
    corrupted[key][field].second += "7";
    EXPECT_NE(check_result(corrupted, key, result), "")
        << "field " << corrupted[key][field].first;
  }
  EXPECT_NE(check_result(parsed, "other|key", result), "");

  auto leaked = result;
  leaked.leaks.push_back("rdma bytes outstanding");
  EXPECT_NE(check_result(parsed, key, leaked), "");
}

TEST(Reference, RejectsMalformedText) {
  EXPECT_THROW(parse_reference("key\tnot-a-field\n"), std::runtime_error);
  EXPECT_THROW(parse_reference("key\ta=1\nkey\ta=1\n"), std::runtime_error);
}

TEST(Gauge, SlicesTakeTime) {
  const HostGauge gauge;
  for (int i = 0; i < 3; ++i) {
    const double s = gauge.slice();
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1.0);
  }
}

TEST(Workloads, SeedGivesAStablePermutation) {
  const auto a = permutation(40, 7, 0);
  EXPECT_EQ(a, permutation(40, 7, 0));
  EXPECT_NE(a, permutation(40, 8, 0));
  EXPECT_NE(a, permutation(40, 7, 1));
  const std::set<std::size_t> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), 40u);
  EXPECT_EQ(*unique.rbegin(), 39u);
}

TEST(Workloads, KeysAreUniqueAndSizesMatchTheirDefinition) {
  const std::size_t sizes[] = {10, 28, 40};
  for (std::size_t i = 0; i < workload_names().size(); ++i) {
    const Workload w = make_workload(workload_names()[i], 4);
    EXPECT_EQ(w.specs.size(), sizes[i]) << w.name;
    std::set<std::string> keys;
    for (const auto& spec : w.specs) keys.insert(spec_key(spec));
    EXPECT_EQ(keys.size(), w.specs.size()) << w.name;
  }
  EXPECT_EQ(make_workload("sweep-mixed", 2).threads, 2);
  EXPECT_EQ(make_workload("sweep-mixed", 64).threads, 4);
  EXPECT_THROW(make_workload("nope", 4), std::invalid_argument);
}

TEST(Probes, EveryCoveredLayerReportsTime) {
  for (MethodSel method :
       {MethodSel::kDataspacesNative, MethodSel::kDimesNative,
        MethodSel::kFlexpath, MethodSel::kDecaf}) {
    for (AppSel app : {AppSel::kLammps, AppSel::kLaplace}) {
      const Spec spec = small_spec(app, method);
      const auto result = imc::workflow::run(spec);
      ASSERT_TRUE(result.ok) << result.failure_summary();
      Layers layers;
      probe_spec(spec, result, layers);
      EXPECT_GT(layers.advance_s, 0);
      EXPECT_GT(layers.output_s, 0);
      EXPECT_GT(layers.output_mb, 0);
      EXPECT_GT(layers.analysis_s, 0);
      EXPECT_GT(layers.assemble_s, 0);
      EXPECT_GT(layers.index_s, 0);
      EXPECT_EQ(layers.index_queries, 2u * 4u);
      EXPECT_EQ(layers.putget_s.size(), 1u);
      EXPECT_GT(layers.putget_s.begin()->second, 0);
      EXPECT_GT(layers.engine_replay_s, 0);
      EXPECT_GE(layers.engine_replay_events, result.events_processed);
      EXPECT_EQ(layers.output_compared, 8u);
    }
  }
}

TEST(Probes, SyntheticOutputsRepeatAcrossSteps) {
  Spec spec = small_spec(AppSel::kLammps, MethodSel::kDataspacesNative);
  spec.lammps_atoms_per_proc = 512000;  // above the content cap
  Layers layers;
  probe_spec(spec, imc::workflow::run(spec), layers);
  EXPECT_EQ(layers.output_compared, 8u);
  EXPECT_EQ(layers.output_repeats, 8u);
  EXPECT_EQ(layers.assemble_mb, 0);  // readers get synthetic slabs
  EXPECT_EQ(layers.analysis_touched, layers.analysis_built);
}

TEST(Probes, ReplayThatDriftsFromTheRunIsRefused) {
  for (MethodSel method : {MethodSel::kDataspacesNative, MethodSel::kDimesNative,
                           MethodSel::kDecaf}) {
    const Spec spec = small_spec(AppSel::kLammps, method);
    const auto result = imc::workflow::run(spec);
    ASSERT_TRUE(result.ok) << result.failure_summary();
    Layers layers;
    EXPECT_NO_THROW(probe_spec(spec, result, layers));
    auto other_servers = result;
    other_servers.server_peak += 1;
    EXPECT_THROW(probe_spec(spec, other_servers, layers), std::runtime_error);
    auto other_traffic = result;
    other_traffic.bytes_moved *= 1.1;
    EXPECT_THROW(probe_spec(spec, other_traffic, layers), std::runtime_error);
    // A run with another server count than the replay mirrors.
    Spec more_servers = spec;
    more_servers.num_servers = result.servers_used + 1;
    const auto other = imc::workflow::run(more_servers);
    ASSERT_TRUE(other.ok) << other.failure_summary();
    EXPECT_THROW(probe_spec(spec, other, layers), std::runtime_error)
        << imc::workflow::to_string(method);
  }
}

TEST(Probes, CapsComeFromTheLibraries) {
  EXPECT_GT(staging_cap(MethodSel::kDataspacesNative), 0u);
  EXPECT_EQ(staging_cap(MethodSel::kDataspacesAdios),
            staging_cap(MethodSel::kDataspacesNative));
}

}  // namespace
}  // namespace wfbench

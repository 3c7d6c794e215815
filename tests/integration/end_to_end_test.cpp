// Cross-module integration tests: run real (reduced) workloads through the
// full pipeline and check the paper's qualitative claims as invariants.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "layout/canonical.hpp"
#include "trace/analysis.hpp"
#include "trace/generator.hpp"
#include "workloads/suite.hpp"

namespace flo {
namespace {

core::ExperimentConfig default_config(core::Scheme scheme) {
  core::ExperimentConfig config;
  config.scheme = scheme;
  return config;
}

TEST(EndToEndTest, QioImprovesUnderInterNodeLayout) {
  const auto app = workloads::workload_by_name("qio");
  const auto base =
      core::run_experiment(app.program, default_config(core::Scheme::kDefault));
  const auto opt = core::run_experiment(
      app.program, default_config(core::Scheme::kInterNode));
  // Group 3: significant benefit.
  EXPECT_LT(opt.sim.exec_time, 0.9 * base.sim.exec_time);
  EXPECT_LT(opt.sim.io.misses(), base.sim.io.misses());
}

TEST(EndToEndTest, CcVer1DoesNotBenefit) {
  const auto app = workloads::workload_by_name("cc-ver-1");
  const auto base =
      core::run_experiment(app.program, default_config(core::Scheme::kDefault));
  const auto opt = core::run_experiment(
      app.program, default_config(core::Scheme::kInterNode));
  // Group 1: within a few percent of the default execution.
  EXPECT_NEAR(opt.sim.exec_time / base.sim.exec_time, 1.0, 0.05);
}

TEST(EndToEndTest, OptimizedFootprintShrinks) {
  // The Fig. 2 claim: the optimized layout reduces the number of distinct
  // blocks each thread touches.
  const auto app = workloads::workload_by_name("hf");
  const storage::StorageTopology topo(storage::TopologyConfig::paper_default());
  const parallel::ParallelSchedule schedule(app.program, 64);
  const core::FileLayoutOptimizer optimizer(topo);
  const auto opt = optimizer.optimize(app.program, schedule);
  const auto default_trace = trace::generate_trace(
      app.program, schedule, layout::default_layouts(app.program), topo);
  const auto opt_trace =
      trace::generate_trace(app.program, schedule, opt.layouts, topo);
  const auto before = trace::footprint_stats(default_trace, 64);
  const auto after = trace::footprint_stats(opt_trace, 64);
  EXPECT_LT(after.mean_distinct(), before.mean_distinct());
}

TEST(EndToEndTest, OptimizedFractionNearPaperAverage) {
  // Paper: "our approach was able to optimize about 72% of these arrays on
  // average". Count Step-I-partitionable arrays across the suite.
  const storage::StorageTopology topo(storage::TopologyConfig::paper_default());
  const core::FileLayoutOptimizer optimizer(topo);
  std::size_t total = 0, partitionable = 0;
  for (const auto& app : workloads::workload_suite()) {
    const parallel::ParallelSchedule schedule(app.program, 64);
    const auto result = optimizer.optimize(app.program, schedule);
    for (const auto& plan : result.plan.arrays) {
      ++total;
      if (plan.partitioning.partitioned) ++partitionable;
    }
  }
  const double fraction =
      static_cast<double>(partitionable) / static_cast<double>(total);
  EXPECT_GT(fraction, 0.55);
  EXPECT_LT(fraction, 0.95);
}

TEST(EndToEndTest, SmallerCachesIncreaseBenefit) {
  // Fig. 7(c): halving cache capacities increases the improvement.
  const auto app = workloads::workload_by_name("applu");
  auto small = default_config(core::Scheme::kDefault);
  small.topology.io_cache_bytes /= 2;
  small.topology.storage_cache_bytes /= 2;
  auto small_opt = small;
  small_opt.scheme = core::Scheme::kInterNode;

  const auto base_def = core::run_experiment(
      app.program, default_config(core::Scheme::kDefault));
  const auto base_opt = core::run_experiment(
      app.program, default_config(core::Scheme::kInterNode));
  const auto small_def = core::run_experiment(app.program, small);
  const auto small_o = core::run_experiment(app.program, small_opt);

  const double gain_default_caches =
      1.0 - base_opt.sim.exec_time / base_def.sim.exec_time;
  const double gain_small_caches =
      1.0 - small_o.sim.exec_time / small_def.sim.exec_time;
  EXPECT_GT(gain_small_caches, gain_default_caches - 0.02);
}

TEST(EndToEndTest, ExclusivePoliciesStillBenefit) {
  // Fig. 7(h): the optimization keeps working under KARMA and DEMOTE-LRU.
  const auto app = workloads::workload_by_name("swim");
  for (const auto policy :
       {storage::PolicyKind::kKarma, storage::PolicyKind::kDemoteLru}) {
    auto base = default_config(core::Scheme::kDefault);
    base.policy = policy;
    auto opt = default_config(core::Scheme::kInterNode);
    opt.policy = policy;
    const auto base_r = core::run_experiment(app.program, base);
    const auto opt_r = core::run_experiment(app.program, opt);
    EXPECT_LT(opt_r.sim.exec_time, base_r.sim.exec_time)
        << storage::policy_name(policy);
  }
}

TEST(EndToEndTest, SuiteRunsAreDeterministic) {
  const auto app = workloads::workload_by_name("bt");
  const auto a = core::run_experiment(app.program,
                                      default_config(core::Scheme::kInterNode));
  const auto b = core::run_experiment(app.program,
                                      default_config(core::Scheme::kInterNode));
  EXPECT_EQ(a.sim.exec_time, b.sim.exec_time);
  EXPECT_EQ(a.sim.disk_reads, b.sim.disk_reads);
}

}  // namespace
}  // namespace flo

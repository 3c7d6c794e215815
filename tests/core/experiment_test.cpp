#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "baselines/dimension_reindexing.hpp"
#include "ir/builder.hpp"
#include "layout/permutation.hpp"
#include "storage/simulator.hpp"
#include "trace/source.hpp"
#include "workloads/suite.hpp"

namespace flo::core {
namespace {

/// A compact transposed-heavy program that benefits from the optimizer,
/// over a reduced topology so each experiment runs in milliseconds.
ExperimentConfig small_config() {
  ExperimentConfig config;
  config.topology.compute_nodes = 8;
  config.topology.io_nodes = 4;
  config.topology.storage_nodes = 2;
  config.topology.block_size = 64;
  config.topology.io_cache_bytes = 512;
  config.topology.storage_cache_bytes = 1024;
  config.threads = 8;
  return config;
}

ir::Program bench_program() {
  return ir::ProgramBuilder("bench")
      .array("A", {64, 64})
      .nest("sweep", {{0, 63}, {0, 63}}, 0, 3)
      .read("A", {{0, 1}, {1, 0}})
      .done()
      .build();
}

TEST(ExperimentTest, InterNodeBeatsDefaultOnScatteredSweep) {
  auto config = small_config();
  const auto p = bench_program();
  const auto baseline = run_experiment(p, config);
  config.scheme = Scheme::kInterNode;
  const auto optimized = run_experiment(p, config);
  EXPECT_LT(optimized.sim.exec_time, baseline.sim.exec_time);
  EXPECT_LT(optimized.sim.io.misses(), baseline.sim.io.misses());
  EXPECT_EQ(optimized.plan.arrays.size(), 1u);
  EXPECT_TRUE(optimized.plan.arrays[0].optimized);
}

TEST(ExperimentTest, DefaultSchemeHasEmptyPlan) {
  const auto result = run_experiment(bench_program(), small_config());
  EXPECT_TRUE(result.plan.arrays.empty());
}

TEST(ExperimentTest, ThreadCountMustMatchComputeNodes) {
  auto config = small_config();
  config.threads = 4;
  EXPECT_THROW(run_experiment(bench_program(), config),
               std::invalid_argument);
}

TEST(ExperimentTest, LayerMaskedSchemesRun) {
  auto config = small_config();
  const auto p = bench_program();
  config.scheme = Scheme::kInterNodeIoOnly;
  const auto io_only = run_experiment(p, config);
  config.scheme = Scheme::kInterNodeStorageOnly;
  const auto storage_only = run_experiment(p, config);
  config.scheme = Scheme::kInterNode;
  const auto both = run_experiment(p, config);
  // All improve on default; both-layer targeting at least matches the
  // single layers on this workload.
  const auto base = run_experiment(p, small_config());
  EXPECT_LT(io_only.sim.exec_time, base.sim.exec_time);
  EXPECT_LT(storage_only.sim.exec_time, base.sim.exec_time);
  EXPECT_LE(both.sim.exec_time, 1.05 * io_only.sim.exec_time);
}

TEST(ExperimentTest, BaselineSchemesRun) {
  auto config = small_config();
  const auto p = bench_program();
  config.scheme = Scheme::kComputationMapping;
  const auto comp = run_experiment(p, config);
  EXPECT_GT(comp.sim.accesses, 0u);
  config.scheme = Scheme::kDimensionReindexing;
  const auto reindex = run_experiment(p, config);
  EXPECT_GT(reindex.profiler_runs, 0u);
  // Reindexing picks the best permutation; never worse than default.
  const auto base = run_experiment(p, small_config());
  EXPECT_LE(reindex.sim.exec_time, base.sim.exec_time * 1.0001);
}

TEST(ExperimentTest, PoliciesRun) {
  auto config = small_config();
  const auto p = bench_program();
  for (const auto policy :
       {storage::PolicyKind::kLruInclusive, storage::PolicyKind::kDemoteLru,
        storage::PolicyKind::kKarma}) {
    config.policy = policy;
    config.scheme = Scheme::kDefault;
    const auto base = run_experiment(p, config);
    config.scheme = Scheme::kInterNode;
    const auto opt = run_experiment(p, config);
    EXPECT_GT(base.sim.accesses, 0u) << storage::policy_name(policy);
    EXPECT_LT(opt.sim.exec_time, base.sim.exec_time)
        << storage::policy_name(policy);
  }
}

TEST(ExperimentTest, DeterministicResults) {
  auto config = small_config();
  config.scheme = Scheme::kInterNode;
  const auto p = bench_program();
  const auto a = run_experiment(p, config);
  const auto b = run_experiment(p, config);
  EXPECT_EQ(a.sim.exec_time, b.sim.exec_time);
  EXPECT_EQ(a.sim.io.hits, b.sim.io.hits);
}

TEST(ExperimentTest, MappingsProduceValidRuns) {
  auto config = small_config();
  const auto p = bench_program();
  for (const auto kind :
       {parallel::MappingKind::kIdentity, parallel::MappingKind::kPermutation2,
        parallel::MappingKind::kPermutation3,
        parallel::MappingKind::kPermutation4}) {
    config.mapping = kind;
    config.scheme = Scheme::kInterNode;
    const auto result = run_experiment(p, config);
    EXPECT_GT(result.sim.accesses, 0u) << parallel::mapping_name(kind);
  }
}

TEST(ExperimentTest, SchemeNames) {
  EXPECT_STREQ(scheme_name(Scheme::kDefault), "default");
  EXPECT_STREQ(scheme_name(Scheme::kInterNode), "inter-node");
  EXPECT_STREQ(scheme_name(Scheme::kDimensionReindexing),
               "dimension reindexing [27]");
}

std::vector<std::vector<std::size_t>> permutation_orders(
    const layout::LayoutMap& layouts) {
  std::vector<std::vector<std::size_t>> out;
  for (const auto& l : layouts) {
    out.push_back(
        dynamic_cast<const layout::DimensionPermutationLayout&>(*l).order());
  }
  return out;
}

// compile_experiment's reindexing profiler stops each candidate once it
// can no longer win. The layouts must match the unbounded search, which
// runs every candidate to completion through the public simulator API.
TEST(ExperimentTest, BoundedReindexingMatchesUnboundedOnSuiteApps) {
  for (const storage::SimCoreKind core :
       {storage::SimCoreKind::kClock, storage::SimCoreKind::kEvent}) {
    for (const char* app : {"afores", "cc-ver-2"}) {
      const ir::Program program = workloads::workload_by_name(app).program;
      ExperimentConfig config;
      config.scheme = Scheme::kDimensionReindexing;
      config.sim_core = core;
      const storage::StorageTopology topology(config.topology);
      const parallel::ParallelSchedule schedule(program, config.threads,
                                                config.mapping);
      std::vector<storage::NodeId> io_nodes(schedule.thread_count());
      for (parallel::ThreadId t = 0; t < schedule.thread_count(); ++t) {
        io_nodes[t] = topology.io_node_of(schedule.mapping().node_of(t));
      }
      const auto unbounded = [&](const layout::LayoutMap& candidate) {
        const trace::StreamingTraceSource source(program, schedule,
                                                 candidate, topology);
        storage::HierarchySimulator simulator(topology, config.policy,
                                              io_nodes);
        simulator.set_core(core);
        return simulator.run(source).exec_time;
      };
      const baselines::ReindexResult reference =
          baselines::apply_dimension_reindexing(program, unbounded);

      const CompiledExperiment bounded = compile_experiment(program, config);
      const std::string where =
          std::string(app) + " on the " + storage::sim_core_name(core) +
          " core";
      EXPECT_EQ(permutation_orders(bounded.layouts),
                permutation_orders(reference.layouts))
          << where;
      EXPECT_EQ(bounded.profiler_runs, reference.evaluations) << where;
      EXPECT_EQ(simulate_experiment(program, bounded, config).exec_time,
                unbounded(reference.layouts))
          << where;
    }
  }
}

}  // namespace
}  // namespace flo::core

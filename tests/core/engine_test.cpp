#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "ir/builder.hpp"
#include "workloads/suite.hpp"

namespace flo::core {
namespace {

/// Engine options with `workers` threads and every other field at its
/// default (brace-initializing only the first member trips
/// -Wmissing-field-initializers).
EngineOptions with_workers(std::size_t workers,
                           bool share_compilations = true) {
  EngineOptions options;
  options.workers = workers;
  options.share_compilations = share_compilations;
  return options;
}

ir::Program tiny_program(std::int64_t n = 32) {
  return ir::ProgramBuilder("tiny")
      .array("A", {n, n})
      .nest("scan", {{0, n - 1}, {0, n - 1}}, 0, /*repeat=*/2)
      .read("A", {{1, 0}, {0, 1}})
      .write("A", {{0, 1}, {1, 0}})
      .done()
      .build();
}

TEST(ExperimentEngineTest, ResultsComeBackInJobOrder) {
  const auto p = tiny_program();
  ExperimentConfig base;
  ExperimentConfig inter = base;
  inter.scheme = Scheme::kInterNode;
  ExperimentEngine engine(with_workers(4));
  const auto results =
      engine.run({{"base", &p, base}, {"inter", &p, inter},
                  {"base-again", &p, base}});
  ASSERT_EQ(results.size(), 3u);
  // Identical jobs give identical results, and each slot matches what a
  // direct serial run_experiment of that job produces.
  EXPECT_EQ(results[0].sim, results[2].sim);
  EXPECT_EQ(results[0].sim, run_experiment(p, base).sim);
  EXPECT_EQ(results[1].sim, run_experiment(p, inter).sim);
}

TEST(ExperimentEngineTest, EmptyJobListIsFine) {
  ExperimentEngine engine(with_workers(4));
  EXPECT_TRUE(engine.run({}).empty());
}

TEST(ExperimentEngineTest, WorkerCountResolved) {
  EXPECT_EQ(ExperimentEngine(with_workers(3)).workers(), 3u);
  EXPECT_GE(ExperimentEngine(with_workers(0)).workers(), 1u);
}

TEST(ExperimentEngineTest, NullProgramThrowsWithLowestJobIndexFirst) {
  const auto p = tiny_program();
  ExperimentConfig base;
  ExperimentEngine engine(with_workers(4));
  EXPECT_THROW(
      engine.run({{"ok", &p, base}, {"bad", nullptr, base}}),
      std::invalid_argument);
}

TEST(ExperimentEngineTest, SharedCompilationMatchesIndependentCompilation) {
  const auto p = tiny_program();
  ExperimentConfig base;
  ExperimentConfig karma = base;
  karma.policy = storage::PolicyKind::kKarma;
  // Same compile signature (scheme/layouts), different policy: the shared
  // compile cache must not change the simulated results.
  const std::vector<ExperimentJob> jobs{{"lru", &p, base},
                                        {"karma", &p, karma}};
  ExperimentEngine shared(with_workers(2, /*share_compilations=*/true));
  ExperimentEngine isolated(with_workers(2, /*share_compilations=*/false));
  const auto a = shared.run(jobs);
  const auto b = isolated.run(jobs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sim, b[i].sim) << jobs[i].label;
  }
}

TEST(ExperimentGridTest, ExpandsAppsOutermostSchemesInnermost) {
  const auto p = tiny_program();
  const auto q = tiny_program(16);
  ExperimentGrid grid;
  grid.apps = {{"p", &p}, {"q", &q}};
  grid.schemes = {Scheme::kDefault, Scheme::kInterNode};
  grid.policies = {storage::PolicyKind::kLruInclusive,
                   storage::PolicyKind::kKarma};
  const auto jobs = grid.expand();
  ASSERT_EQ(jobs.size(), 8u);
  EXPECT_EQ(jobs[0].program, &p);
  EXPECT_EQ(jobs[0].config.scheme, Scheme::kDefault);
  EXPECT_EQ(jobs[1].config.scheme, Scheme::kInterNode);
  EXPECT_EQ(jobs[2].config.policy, storage::PolicyKind::kKarma);
  EXPECT_EQ(jobs[4].program, &q);
}

TEST(ExperimentGridTest, EmptyAxesFallBackToBaseConfig) {
  const auto p = tiny_program();
  ExperimentGrid grid;
  grid.apps = {{"p", &p}};
  grid.base.policy = storage::PolicyKind::kDemoteLru;
  const auto jobs = grid.expand();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].config.policy, storage::PolicyKind::kDemoteLru);
}

// Satellite acceptance: 1 worker and N workers produce byte-identical
// SimulationResults over the full Table 2 grid (both schemes, every
// workload). SimulationResult::operator== is bitwise-strict, including
// per-thread times.
TEST(ExperimentEngineTest, DeterministicAcrossWorkerCounts) {
  const auto suite = workloads::workload_suite();
  ExperimentGrid grid;
  for (const auto& app : suite) grid.apps.push_back({app.name, &app.program});
  grid.schemes = {Scheme::kDefault, Scheme::kInterNode};
  const auto jobs = grid.expand();

  ExperimentEngine serial(with_workers(1));
  ExperimentEngine pooled(with_workers(4));
  const auto a = serial.run(jobs);
  const auto b = pooled.run(jobs);
  ASSERT_EQ(a.size(), jobs.size());
  ASSERT_EQ(b.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(a[i].sim, b[i].sim) << jobs[i].label;
    EXPECT_EQ(a[i].plan.to_string(), b[i].plan.to_string()) << jobs[i].label;
  }
}

}  // namespace
}  // namespace flo::core

// IoLowerBound tests: the synthetic cases pin the counting model
// (compulsory fills per I/O cache, repetition pressure beyond capacity,
// global footprint at the storage layer, the policy/fault gates) and the
// suite cases hold the end-to-end invariant the bench tables rely on —
// every simulated byte count sits at or above its computed lower bound.
#include "core/io_lower_bound.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "storage/topology.hpp"
#include "storage/trace_source.hpp"
#include "workloads/suite.hpp"

namespace flo::core {
namespace {

storage::StorageTopology tiny_topology(std::uint64_t io_cache_blocks) {
  storage::TopologyConfig c;
  c.compute_nodes = 4;
  c.io_nodes = 2;
  c.storage_nodes = 1;
  c.block_size = 64;
  c.io_cache_bytes = io_cache_blocks * c.block_size;
  c.storage_cache_bytes = 16 * c.block_size;
  return storage::StorageTopology(c);
}

/// One phase, one file of `blocks` blocks; per_thread[t] holds thread t's
/// events.
storage::TraceProgram one_phase(std::vector<storage::ThreadTrace> per_thread,
                                std::uint64_t blocks, std::uint32_t repeat) {
  storage::TraceProgram trace;
  trace.file_blocks = {blocks};
  trace.phases.push_back({std::move(per_thread), repeat});
  return trace;
}

TEST(IoLowerBoundTest, CompulsoryFillsOnly) {
  // 8 distinct blocks, touched once by one thread: the bound is exactly
  // the compulsory fills at both layers.
  const auto trace =
      one_phase({{{0, 0, 1, false, 8}}}, /*blocks=*/8, /*repeat=*/1);
  const storage::MaterializedTraceSource source(trace);
  const auto topology = tiny_topology(/*io_cache_blocks=*/16);
  const IoBound bound = compute_io_lower_bound(
      source, {0}, topology, storage::PolicyKind::kLruInclusive);
  EXPECT_EQ(bound.io_bound_bytes, 8u * 64u);
  EXPECT_EQ(bound.storage_bound_bytes, 8u * 64u);
}

TEST(IoLowerBoundTest, RepeatsBeyondCapacityRefill) {
  // 8 distinct blocks replayed 3 times through a 4-block I/O cache: at
  // most 4 blocks survive each barrier, so every replay refills at least
  // 8 - 4 = 4 blocks. Bound = 8 + 2 * 4 = 16 fills. The storage layer's
  // bound stays compulsory-only (its model ignores repetition).
  const auto trace =
      one_phase({{{0, 0, 1, false, 8}}}, /*blocks=*/8, /*repeat=*/3);
  const storage::MaterializedTraceSource source(trace);
  const auto topology = tiny_topology(/*io_cache_blocks=*/4);
  const IoBound bound = compute_io_lower_bound(
      source, {0}, topology, storage::PolicyKind::kLruInclusive);
  EXPECT_EQ(bound.io_bound_bytes, 16u * 64u);
  EXPECT_EQ(bound.storage_bound_bytes, 8u * 64u);
}

TEST(IoLowerBoundTest, RepeatsWithinCapacityAddNothing) {
  const auto trace =
      one_phase({{{0, 0, 1, false, 3}}}, /*blocks=*/8, /*repeat=*/5);
  const storage::MaterializedTraceSource source(trace);
  const auto topology = tiny_topology(/*io_cache_blocks=*/4);
  const IoBound bound = compute_io_lower_bound(
      source, {0}, topology, storage::PolicyKind::kLruInclusive);
  EXPECT_EQ(bound.io_bound_bytes, 3u * 64u);
}

TEST(IoLowerBoundTest, CountsPerIoCacheButOncePerStorage) {
  // Two threads on different I/O nodes reading the same 4 blocks: each
  // I/O cache takes its own compulsory fills (8 total) while the shared
  // storage cache needs only the 4 distinct blocks.
  const storage::ThreadTrace same = {{0, 0, 1, false, 4}};
  const auto trace = one_phase({same, same}, /*blocks=*/4, /*repeat=*/1);
  const storage::MaterializedTraceSource source(trace);
  const auto topology = tiny_topology(/*io_cache_blocks=*/16);
  const IoBound bound = compute_io_lower_bound(
      source, {0, 1}, topology, storage::PolicyKind::kLruInclusive);
  EXPECT_EQ(bound.io_bound_bytes, 8u * 64u);
  EXPECT_EQ(bound.storage_bound_bytes, 4u * 64u);
}

TEST(IoLowerBoundTest, WritesFillLikeReads) {
  // The simulator write-allocates, so written blocks are compulsory fills
  // exactly like read ones.
  const auto trace =
      one_phase({{{0, 0, 1, true, 6}}}, /*blocks=*/8, /*repeat=*/1);
  const storage::MaterializedTraceSource source(trace);
  const auto topology = tiny_topology(/*io_cache_blocks=*/16);
  const IoBound bound = compute_io_lower_bound(
      source, {0}, topology, storage::PolicyKind::kLruInclusive);
  EXPECT_EQ(bound.io_bound_bytes, 6u * 64u);
  EXPECT_EQ(bound.storage_bound_bytes, 6u * 64u);
}

TEST(IoLowerBoundTest, KarmaClaimsZero) {
  // KARMA places blocks at exactly one level from hints; neither layer's
  // fill traffic is bounded below by the inclusive-LRU model, so the
  // calculator makes no claim at all.
  const auto trace =
      one_phase({{{0, 0, 1, false, 8}}}, /*blocks=*/8, /*repeat=*/1);
  const storage::MaterializedTraceSource source(trace);
  const auto topology = tiny_topology(/*io_cache_blocks=*/4);
  const IoBound bound = compute_io_lower_bound(source, {0}, topology,
                                               storage::PolicyKind::kKarma);
  EXPECT_EQ(bound.io_bound_bytes, 0u);
  EXPECT_EQ(bound.storage_bound_bytes, 0u);
}

TEST(IoLowerBoundTest, DemoteLruGatesOnlyStorage) {
  // DEMOTE-LRU fills the storage cache via demotions rather than on the
  // read path, so only the storage side of the bound is withdrawn.
  const auto trace =
      one_phase({{{0, 0, 1, false, 8}}}, /*blocks=*/8, /*repeat=*/1);
  const storage::MaterializedTraceSource source(trace);
  const auto topology = tiny_topology(/*io_cache_blocks=*/4);
  const IoBound bound = compute_io_lower_bound(
      source, {0}, topology, storage::PolicyKind::kDemoteLru);
  EXPECT_EQ(bound.io_bound_bytes, 8u * 64u);
  EXPECT_EQ(bound.storage_bound_bytes, 0u);
}

TEST(IoLowerBoundTest, FaultedTopologyClaimsZero) {
  const auto trace =
      one_phase({{{0, 0, 1, false, 8}}}, /*blocks=*/8, /*repeat=*/1);
  const storage::MaterializedTraceSource source(trace);
  storage::TopologyConfig c = tiny_topology(4).config();
  c.fault.enabled = true;
  const storage::StorageTopology faulted(c);
  const IoBound bound = compute_io_lower_bound(
      source, {0}, faulted, storage::PolicyKind::kLruInclusive);
  EXPECT_EQ(bound.io_bound_bytes, 0u);
  EXPECT_EQ(bound.storage_bound_bytes, 0u);
}

TEST(IoLowerBoundTest, ShortThreadVectorThrows) {
  const auto trace = one_phase({{{0, 0, 1, false, 2}}, {{0, 2, 1, false, 2}}},
                               /*blocks=*/4, /*repeat=*/1);
  const storage::MaterializedTraceSource source(trace);
  const auto topology = tiny_topology(4);
  EXPECT_THROW(compute_io_lower_bound(source, {0}, topology,
                                      storage::PolicyKind::kLruInclusive),
               std::invalid_argument);
}

// End-to-end invariant over the paper suite: run_experiment threads the
// bound into SimulationResult, the bound is non-trivial, and the simulator
// never beats it. This is the same invariant BM_SolverAblation enforces,
// pinned here at unit-test granularity for the default layouts and the
// inter-node layouts of both Step I backends.
TEST(IoLowerBoundSuiteTest, AchievedNeverBeatsBound) {
  std::vector<ExperimentConfig> configs(1);  // Scheme::kDefault
  for (const SolverKind solver :
       {SolverKind::kUnimodular, SolverKind::kConstraintNetwork}) {
    ExperimentConfig inter;
    inter.scheme = Scheme::kInterNode;
    inter.solver = solver;
    configs.push_back(inter);
  }
  for (const auto& app : workloads::workload_suite()) {
    SCOPED_TRACE(app.name);
    for (const ExperimentConfig& config : configs) {
      SCOPED_TRACE(std::string(scheme_name(config.scheme)) + " / " +
                   solver_name(config.solver));
      const ExperimentResult r = run_experiment(app.program, config);
      EXPECT_GT(r.sim.io_bound_bytes, 0u);
      EXPECT_GT(r.sim.storage_bound_bytes, 0u);
      EXPECT_GE(r.sim.achieved_bytes(), r.sim.bound_bytes());
      EXPECT_GE(r.sim.achieved_ratio(), 1.0);
    }
  }
}

TEST(IoLowerBoundSuiteTest, GatedPoliciesReportNoClaim) {
  const auto app = workloads::workload_by_name("swim");
  ExperimentConfig config;
  config.policy = storage::PolicyKind::kKarma;
  const ExperimentResult r = run_experiment(app.program, config);
  EXPECT_EQ(r.sim.bound_bytes(), 0u);
  // "No claim" is reported as ratio 0, never as a spurious achieved/0.
  EXPECT_EQ(r.sim.achieved_ratio(), 0.0);
}

}  // namespace
}  // namespace flo::core

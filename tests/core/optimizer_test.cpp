#include "core/optimizer.hpp"

#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "layout/internode.hpp"
#include "obs/metrics.hpp"

namespace flo::core {
namespace {

storage::StorageTopology small_topology() {
  storage::TopologyConfig c;
  c.compute_nodes = 8;
  c.io_nodes = 4;
  c.storage_nodes = 2;
  c.block_size = 64;
  c.io_cache_bytes = 1024;
  c.storage_cache_bytes = 2048;
  return storage::StorageTopology(c);
}

ir::Program mixed_program() {
  // big: partitionable and larger than one I/O cache.
  // shared: unpartitionable. tiny: partitionable but profitability-skipped.
  return ir::ProgramBuilder("mixed")
      .array("big", {64, 64})
      .array("shared", {32, 32})
      .array("tiny", {8, 8})
      .nest("n1", {{0, 63}, {0, 63}}, 0)
      .read("big", {{0, 1}, {1, 0}})
      .done()
      .nest("n2", {{0, 31}, {0, 31}, {0, 31}}, 0)
      .read("shared", {{0, 0, 1}, {0, 1, 0}})
      .done()
      .nest("n3", {{0, 7}, {0, 7}}, 0)
      .read("tiny", {{1, 0}, {0, 1}})
      .done()
      .build();
}

TEST(OptimizerTest, ProducesLayoutForEveryArray) {
  const FileLayoutOptimizer optimizer(small_topology());
  const auto p = mixed_program();
  const parallel::ParallelSchedule schedule(p, 8);
  const auto result = optimizer.optimize(p, schedule);
  ASSERT_EQ(result.layouts.size(), 3u);
  for (const auto& layout : result.layouts) {
    ASSERT_NE(layout, nullptr);
  }
}

TEST(OptimizerTest, OnlyProfitablePartitionableArraysOptimized) {
  const FileLayoutOptimizer optimizer(small_topology());
  const auto p = mixed_program();
  const parallel::ParallelSchedule schedule(p, 8);
  const auto result = optimizer.optimize(p, schedule);
  // big (32 KiB > 1 KiB I/O cache, transposed): optimized.
  EXPECT_TRUE(result.plan.arrays[0].optimized);
  EXPECT_NE(dynamic_cast<const layout::InterNodeLayout*>(
                result.layouts[0].get()),
            nullptr);
  // shared: Step I fails.
  EXPECT_FALSE(result.plan.arrays[1].optimized);
  EXPECT_FALSE(result.plan.arrays[1].partitioning.partitioned);
  // tiny: partitionable (Step I succeeds) but fits one I/O cache -> kept
  // canonical by the profitability test.
  EXPECT_FALSE(result.plan.arrays[2].optimized);
  EXPECT_TRUE(result.plan.arrays[2].partitioning.partitioned);
}

TEST(OptimizerTest, PlanCountsOptimizedArrays) {
  const FileLayoutOptimizer optimizer(small_topology());
  const auto p = mixed_program();
  const parallel::ParallelSchedule schedule(p, 8);
  const auto result = optimizer.optimize(p, schedule);
  EXPECT_EQ(result.plan.optimized_count(), 1u);
  EXPECT_NEAR(result.plan.optimized_fraction(), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(result.plan.program_name, "mixed");
}

TEST(OptimizerTest, LayerMaskChangesPattern) {
  const FileLayoutOptimizer optimizer(small_topology());
  const auto p = mixed_program();
  const parallel::ParallelSchedule schedule(p, 8);
  OptimizerOptions io_only;
  io_only.mask = layout::LayerMask::kIoOnly;
  const auto both = optimizer.optimize(p, schedule);
  const auto io = optimizer.optimize(p, schedule, io_only);
  // Both plus virtual root = 3 pattern sizes; I/O-only = 2.
  EXPECT_EQ(both.plan.arrays[0].pattern_elements.size(), 3u);
  EXPECT_EQ(io.plan.arrays[0].pattern_elements.size(), 2u);
}

TEST(OptimizerTest, PlanRecordsChunkGeometry) {
  const FileLayoutOptimizer optimizer(small_topology());
  const auto p = mixed_program();
  const parallel::ParallelSchedule schedule(p, 8);
  const auto result = optimizer.optimize(p, schedule);
  const auto& plan = result.plan.arrays[0];
  EXPECT_GT(plan.chunk_elements, 0u);
  const auto* internode = dynamic_cast<const layout::InterNodeLayout*>(
      result.layouts[0].get());
  ASSERT_NE(internode, nullptr);
  EXPECT_EQ(plan.chunk_elements, internode->pattern().chunk_elements());
}

TEST(OptimizerTest, StepTwoCountersReportElementsAndTableBytes) {
  const FileLayoutOptimizer optimizer(small_topology());
  const auto p = mixed_program();
  const parallel::ParallelSchedule schedule(p, 8);
  auto& reg = obs::registry();
  reg.reset();
  ASSERT_FALSE(obs::enabled());
  optimizer.optimize(p, schedule);
  EXPECT_EQ(reg.counter("compile.step2_elements").value(), 0u);
  EXPECT_EQ(reg.counter("compile.layout_table_bytes").value(), 0u);

  obs::set_enabled(true);
  optimizer.optimize(p, schedule);
  obs::set_enabled(false);
  // Only `big` (64 x 64, every element touched) gets an inter-node layout,
  // with one 4-byte slot per declared element.
  EXPECT_EQ(reg.counter("compile.step2_elements").value(), 64u * 64u);
  EXPECT_EQ(reg.counter("compile.layout_table_bytes").value(),
            64u * 64u * 4u);
  reg.reset();
}

}  // namespace
}  // namespace flo::core

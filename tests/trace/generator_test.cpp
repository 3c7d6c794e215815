#include "trace/generator.hpp"

#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "layout/canonical.hpp"

namespace flo::trace {
namespace {

storage::StorageTopology tiny_topology() {
  storage::TopologyConfig c;
  c.compute_nodes = 4;
  c.io_nodes = 2;
  c.storage_nodes = 1;
  c.block_size = 64;  // 8 elements
  c.io_cache_bytes = 512;
  c.storage_cache_bytes = 1024;
  return storage::StorageTopology(c);
}

ir::Program row_scan_program(std::int64_t n = 16, std::int64_t repeat = 1) {
  return ir::ProgramBuilder("p")
      .array("A", {n, n})
      .nest("scan", {{0, n - 1}, {0, n - 1}}, 0, repeat)
      .read("A", {{1, 0}, {0, 1}})
      .done()
      .build();
}

TEST(GeneratorTest, SequentialScanCoalescesToBlocks) {
  const auto p = row_scan_program(16);
  const parallel::ParallelSchedule schedule(p, 4);
  const auto layouts = layout::default_layouts(p);
  const auto trace =
      generate_trace(p, schedule, layouts, tiny_topology());
  ASSERT_EQ(trace.phases.size(), 1u);
  ASSERT_EQ(trace.phases[0].per_thread.size(), 4u);
  // Each thread scans 4 rows of 16 elements = 64 elements = 8 blocks.
  for (const auto& thread_trace : trace.phases[0].per_thread) {
    EXPECT_EQ(thread_trace.size(), 8u);
    std::uint32_t elements = 0;
    for (const auto& e : thread_trace) elements += e.element_count;
    EXPECT_EQ(elements, 64u);
  }
}

TEST(GeneratorTest, ThreadsTouchDisjointRowBlocks) {
  const auto p = row_scan_program(16);
  const parallel::ParallelSchedule schedule(p, 4);
  const auto layouts = layout::default_layouts(p);
  const auto trace = generate_trace(p, schedule, layouts, tiny_topology());
  // Thread t scans rows [4t, 4t+4): blocks 8t..8t+7.
  for (std::uint32_t t = 0; t < 4; ++t) {
    for (const auto& e : trace.phases[0].per_thread[t]) {
      EXPECT_GE(e.block, 8ull * t);
      EXPECT_LT(e.block, 8ull * (t + 1));
    }
  }
}

TEST(GeneratorTest, TransposedSweepDoesNotCoalesce) {
  const auto p = ir::ProgramBuilder("p")
                     .array("A", {16, 16})
                     .nest("sweep", {{0, 15}, {0, 15}}, 0)
                     .read("A", {{0, 1}, {1, 0}})
                     .done()
                     .build();
  const parallel::ParallelSchedule schedule(p, 4);
  const auto layouts = layout::default_layouts(p);
  const auto trace = generate_trace(p, schedule, layouts, tiny_topology());
  // Column sweep: each access lands in a different row block (rows are 2
  // blocks long, elements 8 per block): 4 cols x 16 rows = 64 requests.
  EXPECT_EQ(trace.phases[0].per_thread[0].size(), 64u);
}

TEST(GeneratorTest, RepeatCarriedOnPhase) {
  const auto p = row_scan_program(16, /*repeat=*/5);
  const parallel::ParallelSchedule schedule(p, 4);
  const auto layouts = layout::default_layouts(p);
  const auto trace = generate_trace(p, schedule, layouts, tiny_topology());
  EXPECT_EQ(trace.phases[0].repeat, 5u);
}

TEST(GeneratorTest, FileBlocksDerivedFromLayout) {
  const auto p = row_scan_program(16);
  const parallel::ParallelSchedule schedule(p, 4);
  const auto layouts = layout::default_layouts(p);
  const auto trace = generate_trace(p, schedule, layouts, tiny_topology());
  // 256 elements * 8 B / 64 B = 32 blocks.
  ASSERT_EQ(trace.file_blocks.size(), 1u);
  EXPECT_EQ(trace.file_blocks[0], 32u);
}

TEST(GeneratorTest, MultipleReferencesInterleave) {
  const auto p = ir::ProgramBuilder("p")
                     .array("A", {16, 16})
                     .array("B", {16, 16})
                     .nest("n", {{0, 15}, {0, 15}}, 0)
                     .read("A", {{1, 0}, {0, 1}})
                     .read("B", {{1, 0}, {0, 1}})
                     .done()
                     .build();
  const parallel::ParallelSchedule schedule(p, 4);
  const auto layouts = layout::default_layouts(p);
  const auto trace = generate_trace(p, schedule, layouts, tiny_topology());
  // Alternating files defeat coalescing: one request per element per ref.
  const auto& events = trace.phases[0].per_thread[0];
  EXPECT_EQ(events.size(), 128u);
  EXPECT_EQ(events[0].file, 0u);
  EXPECT_EQ(events[1].file, 1u);
}

TEST(GeneratorTest, ValidatesLayoutMap) {
  const auto p = row_scan_program(16);
  const parallel::ParallelSchedule schedule(p, 4);
  layout::LayoutMap empty;
  EXPECT_THROW(generate_trace(p, schedule, empty, tiny_topology()),
               std::invalid_argument);
  layout::LayoutMap with_null;
  with_null.push_back(nullptr);
  EXPECT_THROW(generate_trace(p, schedule, with_null, tiny_topology()),
               std::invalid_argument);
}

TEST(GeneratorTest, LayoutChangesBlockStream) {
  const auto p = ir::ProgramBuilder("p")
                     .array("A", {16, 16})
                     .nest("sweep", {{0, 15}, {0, 15}}, 0)
                     .read("A", {{0, 1}, {1, 0}})
                     .done()
                     .build();
  const parallel::ParallelSchedule schedule(p, 4);
  layout::LayoutMap rm;
  rm.push_back(std::make_unique<layout::RowMajorLayout>(p.array(0).space()));
  layout::LayoutMap cm;
  cm.push_back(
      std::make_unique<layout::ColumnMajorLayout>(p.array(0).space()));
  const auto t_rm = generate_trace(p, schedule, rm, tiny_topology());
  const auto t_cm = generate_trace(p, schedule, cm, tiny_topology());
  // Column-major makes the column sweep sequential: far fewer requests.
  EXPECT_LT(t_cm.phases[0].per_thread[0].size(),
            t_rm.phases[0].per_thread[0].size());
}

}  // namespace
}  // namespace flo::trace

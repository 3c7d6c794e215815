#include "trace/source.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/io_lower_bound.hpp"
#include "ir/builder.hpp"
#include "layout/canonical.hpp"
#include "storage/simulator.hpp"
#include "trace/generator.hpp"
#include "workloads/suite.hpp"

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

std::vector<storage::AccessEvent> collect(const storage::TraceSource& source,
                                          std::size_t phase,
                                          std::uint32_t thread) {
  std::vector<storage::AccessEvent> events;
  auto cursor = source.open(phase, thread);
  storage::AccessEvent ev;
  while (cursor->next(ev)) events.push_back(ev);
  return events;
}

// Holds the streaming source to the eager generator's event streams for
// every (phase, thread) of `program`, comparing one event at a time.
void expect_matches_eager(const ir::Program& program,
                          const parallel::ParallelSchedule& schedule,
                          const layout::LayoutMap& layouts,
                          const storage::StorageTopology& topology,
                          const TraceOptions& options) {
  const auto eager = generate_trace(program, schedule, layouts, topology, options);
  const StreamingTraceSource source(program, schedule, layouts, topology,
                                    options);
  ASSERT_EQ(source.phase_count(), eager.phases.size());
  ASSERT_EQ(source.file_blocks(), eager.file_blocks);
  for (std::size_t phase = 0; phase < eager.phases.size(); ++phase) {
    EXPECT_EQ(source.phase_repeat(phase), eager.phases[phase].repeat);
    const auto& per_thread = eager.phases[phase].per_thread;
    ASSERT_GE(source.thread_count(), per_thread.size());
    for (std::uint32_t t = 0; t < source.thread_count(); ++t) {
      auto cursor = source.open(phase, t);
      storage::AccessEvent ev;
      std::size_t i = 0;
      const std::size_t expected =
          t < per_thread.size() ? per_thread[t].size() : 0;
      while (cursor->next(ev)) {
        ASSERT_LT(i, expected) << "phase " << phase << " thread " << t;
        ASSERT_EQ(ev, per_thread[t][i])
            << "phase " << phase << " thread " << t << " event " << i;
        ++i;
      }
      EXPECT_EQ(i, expected) << "phase " << phase << " thread " << t;
    }
  }
}

TEST(StreamingSourceTest, SequentialScanCoalescesToBlocks) {
  const auto p = row_scan_program(16);
  const parallel::ParallelSchedule schedule(p, 4);
  const auto layouts = layout::default_layouts(p);
  const StreamingTraceSource source(p, schedule, layouts, tiny_topology());
  ASSERT_EQ(source.phase_count(), 1u);
  ASSERT_EQ(source.thread_count(), 4u);
  // Each thread scans 4 rows of 16 elements = 64 elements = 8 blocks.
  for (std::uint32_t t = 0; t < 4; ++t) {
    const auto events = collect(source, 0, t);
    EXPECT_EQ(events.size(), 8u);
    std::uint32_t elements = 0;
    for (const auto& e : events) elements += e.element_count;
    EXPECT_EQ(elements, 64u);
  }
}

TEST(StreamingSourceTest, CoalescingCanBeDisabled) {
  const auto p = row_scan_program(16);
  const parallel::ParallelSchedule schedule(p, 4);
  const auto layouts = layout::default_layouts(p);
  TraceOptions options;
  options.coalesce = false;
  const StreamingTraceSource source(p, schedule, layouts, tiny_topology(),
                                    options);
  // One event per element access, all with element_count 1.
  const auto events = collect(source, 0, 0);
  EXPECT_EQ(events.size(), 64u);
  for (const auto& e : events) EXPECT_EQ(e.element_count, 1u);
}

TEST(StreamingSourceTest, RepeatCarriedOnPhase) {
  const auto p = row_scan_program(16, /*repeat=*/5);
  const parallel::ParallelSchedule schedule(p, 4);
  const auto layouts = layout::default_layouts(p);
  const StreamingTraceSource source(p, schedule, layouts, tiny_topology());
  EXPECT_EQ(source.phase_repeat(0), 5u);
}

TEST(StreamingSourceTest, ReopenedCursorReplaysIdenticalStream) {
  const auto p = row_scan_program(16, /*repeat=*/3);
  const parallel::ParallelSchedule schedule(p, 4);
  const auto layouts = layout::default_layouts(p);
  const StreamingTraceSource source(p, schedule, layouts, tiny_topology());
  // Phase repeats re-open the cursor; every opening must yield the same
  // events (the simulator relies on this for its barrier replay).
  const auto first = collect(source, 0, 2);
  const auto second = collect(source, 0, 2);
  EXPECT_EQ(first, second);
}

TEST(StreamingSourceTest, ValidatesLayoutMap) {
  const auto p = row_scan_program(16);
  const parallel::ParallelSchedule schedule(p, 4);
  layout::LayoutMap empty;
  EXPECT_THROW(
      StreamingTraceSource(p, schedule, empty, tiny_topology()),
      std::invalid_argument);
  layout::LayoutMap with_null;
  with_null.push_back(nullptr);
  EXPECT_THROW(
      StreamingTraceSource(p, schedule, with_null, tiny_topology()),
      std::invalid_argument);
}

// Golden test 1: a multi-phase, multi-reference workload from the suite
// must stream the exact event sequence the eager generator materializes,
// with coalescing both on and off.
TEST(StreamingSourceTest, GoldenMatchesEagerOnSuiteWorkloadSp) {
  const auto app = workloads::workload_by_name("sp");
  const storage::StorageTopology topology(
      storage::TopologyConfig::paper_default());
  const parallel::ParallelSchedule schedule(app.program, 64);
  const auto layouts = layout::default_layouts(app.program);
  for (const bool coalesce : {true, false}) {
    TraceOptions options;
    options.coalesce = coalesce;
    expect_matches_eager(app.program, schedule, layouts, topology, options);
  }
}

// Golden test 2: swim exercises the run-length batching fast path (single
// reference, linear layout, high repeat) — the riskiest streaming code.
TEST(StreamingSourceTest, GoldenMatchesEagerOnSuiteWorkloadSwim) {
  const auto app = workloads::workload_by_name("swim");
  const storage::StorageTopology topology(
      storage::TopologyConfig::paper_default());
  const parallel::ParallelSchedule schedule(app.program, 64);
  const auto layouts = layout::default_layouts(app.program);
  for (const bool coalesce : {true, false}) {
    TraceOptions options;
    options.coalesce = coalesce;
    expect_matches_eager(app.program, schedule, layouts, topology, options);
  }
}

// Acceptance: peak resident trace state is O(threads). A transposed sweep
// over a 2048x2048 array coalesces nothing, so the eager trace would hold
// ~4.2M events (>64 MiB); the streaming cursors for all 64 threads
// together must stay under 1 MiB.
TEST(StreamingSourceTest, ResidentStateStaysSmallWhereEagerWouldNot) {
  constexpr std::int64_t kN = 2048;
  const auto p = ir::ProgramBuilder("p")
                     .array("A", {kN, kN})
                     .nest("sweep", {{0, kN - 1}, {0, kN - 1}}, 0)
                     .read("A", {{0, 1}, {1, 0}})
                     .done()
                     .build();
  const storage::StorageTopology topology(
      storage::TopologyConfig::paper_default());
  const parallel::ParallelSchedule schedule(p, 64);
  const auto layouts = layout::default_layouts(p);
  const StreamingTraceSource source(p, schedule, layouts, topology);

  // What the eager path would materialize: count events without storing
  // them (the column sweep defeats coalescing, one event per element).
  std::uint64_t eager_events = 0;
  for (std::uint32_t t = 0; t < source.thread_count(); ++t) {
    auto cursor = source.open(0, t);
    storage::AccessEvent ev;
    while (cursor->next(ev)) ++eager_events;
  }
  const std::uint64_t eager_bytes =
      eager_events * sizeof(storage::AccessEvent);

  std::size_t streaming_bytes = 0;
  for (std::uint32_t t = 0; t < source.thread_count(); ++t) {
    streaming_bytes += source.cursor_state_bytes(0, t);
  }

  constexpr std::uint64_t kCap = 1 << 20;  // 1 MiB
  EXPECT_EQ(eager_events, static_cast<std::uint64_t>(kN) * kN);
  EXPECT_GT(eager_bytes, 32 * kCap);
  EXPECT_LT(streaming_bytes, kCap);
}

// Regression: the walker's run merging accumulates element counts in
// 64 bits. A stride-0 innermost dimension folds its entire trip count into
// one event; with a trip count above 2^32 the old uint32 accumulation
// silently wrapped (e.g. 2^32 + 1 became 1), collapsing the simulated
// compute time of the whole loop.
TEST(StreamingSourceTest, RunMergeElementCountSurvivesPastUint32) {
  constexpr std::int64_t kInner = (1ll << 32);  // trip count 2^32 + 1
  const auto p = ir::ProgramBuilder("p")
                     .array("A", {4})
                     .nest("hot", {{0, 3}, {0, kInner}}, 0)
                     .read("A", {{1, 0}})  // A[i]: inner dim has stride 0
                     .done()
                     .build();
  const parallel::ParallelSchedule schedule(p, 4);
  const auto layouts = layout::default_layouts(p);
  const StreamingTraceSource source(p, schedule, layouts, tiny_topology());
  // Each thread owns one outer iteration: one block, one merged event
  // covering every inner-loop access.
  const auto events = collect(source, 0, 0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].element_count, (1ull << 32) + 1);
}

// The extent-emitting cursor folds ascending same-block runs into one
// event with run_blocks > 1; expanding those extents must reproduce the
// plain coalesced stream exactly.
TEST(StreamingSourceTest, ExtentStreamExpandsToCoalescedStream) {
  const auto p = row_scan_program(16);
  const parallel::ParallelSchedule schedule(p, 4);
  const auto layouts = layout::default_layouts(p);
  const StreamingTraceSource plain(p, schedule, layouts, tiny_topology());
  TraceOptions options;
  options.emit_extents = true;
  const StreamingTraceSource extents(p, schedule, layouts, tiny_topology(),
                                     options);
  for (std::uint32_t t = 0; t < 4; ++t) {
    const auto expected = collect(plain, 0, t);
    const auto merged = collect(extents, 0, t);
    // The sequential scan's 8 consecutive blocks fold into one extent.
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged[0].run_blocks, 8u);
    std::vector<storage::AccessEvent> expanded;
    for (storage::AccessEvent ev : merged) {
      const std::uint32_t run = ev.run_blocks;
      ev.run_blocks = 1;
      for (std::uint32_t i = 0; i < run; ++i) {
        expanded.push_back(ev);
        ++ev.block;
      }
    }
    EXPECT_EQ(expanded, expected);
  }
}

// Acceptance: the experiment runner's streaming simulation is bit-identical
// to the materialized reference on every existing workload, for both the
// default and the optimized layouts. The reference is built directly:
// generate_trace -> HierarchySimulator::run(trace), with the I/O lower
// bound computed over the same materialized trace.
TEST(StreamingSourceTest, SimulationBitIdenticalToEagerAcrossSuite) {
  for (const auto& app : workloads::workload_suite()) {
    for (const auto scheme : {core::Scheme::kDefault,
                              core::Scheme::kInterNode}) {
      core::ExperimentConfig config;
      config.scheme = scheme;
      const auto compiled = core::compile_experiment(app.program, config);
      const auto streamed =
          core::simulate_experiment(app.program, compiled, config);

      const storage::StorageTopology topology(config.topology);
      std::vector<storage::NodeId> io_nodes(compiled.schedule.thread_count());
      for (parallel::ThreadId t = 0; t < io_nodes.size(); ++t) {
        io_nodes[t] =
            topology.io_node_of(compiled.schedule.mapping().node_of(t));
      }
      const storage::TraceProgram trace = generate_trace(
          app.program, compiled.schedule, compiled.layouts, topology);
      storage::HierarchySimulator simulator(topology, config.policy,
                                            io_nodes);
      simulator.set_core(config.sim_core);
      storage::SimulationResult reference = simulator.run(trace);
      const core::IoBound bound = core::compute_io_lower_bound(
          storage::MaterializedTraceSource(trace), io_nodes, topology,
          config.policy);
      reference.io_bound_bytes = bound.io_bound_bytes;
      reference.storage_bound_bytes = bound.storage_bound_bytes;

      EXPECT_EQ(streamed, reference)
          << app.name << " / " << core::scheme_name(scheme);
    }
  }
}

}  // namespace
}  // namespace flo::trace

#include "storage/trace_source.hpp"

#include <gtest/gtest.h>

#include "sim_cores.hpp"
#include "storage/simulator.hpp"

namespace flo::storage {
namespace {

TraceProgram two_phase_trace() {
  TraceProgram trace;
  trace.file_blocks = {8};
  PhaseTrace first;
  first.repeat = 3;
  first.per_thread = {{{0, 0, 4, false}, {0, 1, 4, false}},
                      {{0, 2, 4, false}, {0, 3, 4, true}}};
  PhaseTrace second;
  second.per_thread = {{{0, 7, 1, false}}};
  trace.phases = {first, second};
  return trace;
}

StorageTopology tiny_topology() {
  TopologyConfig c;
  c.compute_nodes = 2;
  c.io_nodes = 1;
  c.storage_nodes = 1;
  c.block_size = 64;
  c.io_cache_bytes = 128;
  c.storage_cache_bytes = 256;
  return StorageTopology(c);
}

TEST(MaterializedTraceSourceTest, MirrorsTheTraceProgramStructure) {
  const auto trace = two_phase_trace();
  const MaterializedTraceSource source(trace);
  EXPECT_EQ(source.phase_count(), 2u);
  EXPECT_EQ(source.phase_repeat(0), 3u);
  EXPECT_EQ(source.phase_repeat(1), 1u);
  // thread_count is the max stream count over phases.
  EXPECT_EQ(source.thread_count(), 2u);
  EXPECT_EQ(source.file_blocks(), trace.file_blocks);
}

TEST(MaterializedTraceSourceTest, CursorsReplayTheStoredEvents) {
  const auto trace = two_phase_trace();
  const MaterializedTraceSource source(trace);
  for (std::size_t phase = 0; phase < trace.phases.size(); ++phase) {
    const auto& per_thread = trace.phases[phase].per_thread;
    for (std::uint32_t t = 0; t < source.thread_count(); ++t) {
      auto cursor = source.open(phase, t);
      std::vector<AccessEvent> events;
      AccessEvent ev;
      while (cursor->next(ev)) events.push_back(ev);
      if (t < per_thread.size()) {
        EXPECT_EQ(events, per_thread[t]);
      } else {
        // Threads past a phase's stream count get empty cursors.
        EXPECT_TRUE(events.empty());
      }
    }
  }
}

TEST(MaterializedTraceSourceTest, ExhaustedCursorStaysExhausted) {
  const auto trace = two_phase_trace();
  const MaterializedTraceSource source(trace);
  auto cursor = source.open(1, 0);
  AccessEvent ev;
  ASSERT_TRUE(cursor->next(ev));
  EXPECT_FALSE(cursor->next(ev));
  const AccessEvent before = ev;
  EXPECT_FALSE(cursor->next(ev));
  // next() at end of stream leaves `out` untouched.
  EXPECT_EQ(ev, before);
}

TEST(SimulatorTraceSourceTest, SourceOverloadMatchesMaterializedOverload) {
  const auto trace = two_phase_trace();
  const auto topology = tiny_topology();
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    HierarchySimulator a = sim_on(core, topology);
    HierarchySimulator b = sim_on(core, topology);
    const auto direct = a.run(trace);
    const auto adapted = b.run(MaterializedTraceSource(trace));
    EXPECT_EQ(direct, adapted);
  }
}

TEST(SimulatorTraceSourceTest, RejectsMoreStreamsThanThreads) {
  TraceProgram trace = two_phase_trace();
  trace.phases[0].per_thread.push_back({{0, 4, 1, false}});  // third stream
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    HierarchySimulator sim = sim_on(core, tiny_topology());
    EXPECT_THROW(sim.run(trace), std::invalid_argument);
  }
}

}  // namespace
}  // namespace flo::storage

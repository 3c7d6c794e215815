#include "storage/simulator.hpp"

#include <gtest/gtest.h>

#include "sim_cores.hpp"

namespace flo::storage {
namespace {

/// A small topology: 4 compute nodes, 2 I/O nodes, 1 storage node, tiny
/// caches so eviction paths are exercised with handfuls of blocks.
TopologyConfig tiny_config(std::size_t io_blocks = 4,
                           std::size_t storage_blocks = 8) {
  TopologyConfig c;
  c.compute_nodes = 4;
  c.io_nodes = 2;
  c.storage_nodes = 1;
  c.block_size = 2048;
  c.io_cache_bytes = io_blocks * c.block_size;
  c.storage_cache_bytes = storage_blocks * c.block_size;
  return c;
}

TraceProgram single_thread_trace(std::vector<std::uint64_t> blocks,
                                 std::uint64_t file_blocks = 64,
                                 std::uint32_t repeat = 1) {
  TraceProgram trace;
  trace.file_blocks = {file_blocks};
  PhaseTrace phase;
  phase.repeat = repeat;
  phase.per_thread.resize(1);
  for (std::uint64_t b : blocks) phase.per_thread[0].push_back({0, b, 1});
  trace.phases.push_back(std::move(phase));
  return trace;
}

TEST(SimulatorTest, ColdMissesThenHits) {
  const StorageTopology topo(tiny_config());
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    const auto result = sim_on(core, topo, PolicyKind::kLruInclusive)
                            .run(single_thread_trace({1, 2, 1, 2}));
    EXPECT_EQ(result.io.lookups, 4u);
    EXPECT_EQ(result.io.hits, 2u);
    EXPECT_EQ(result.storage.lookups, 2u);  // the two cold misses
    EXPECT_EQ(result.storage.hits, 0u);
    EXPECT_EQ(result.disk_reads, 2u);
  }
}

TEST(SimulatorTest, InclusiveStorageHitAfterIoEviction) {
  const StorageTopology topo(tiny_config(/*io_blocks=*/2,
                                         /*storage_blocks=*/8));
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    // Touch 1..3 (evicting 1 from the 2-block I/O cache), then re-touch
    // 1: it misses at I/O but hits the inclusive storage cache.
    const auto result = sim_on(core, topo, PolicyKind::kLruInclusive)
                            .run(single_thread_trace({1, 2, 3, 1}));
    EXPECT_EQ(result.io.hits, 0u);
    EXPECT_EQ(result.storage.lookups, 4u);
    EXPECT_EQ(result.storage.hits, 1u);
    EXPECT_EQ(result.disk_reads, 3u);
  }
}

TEST(SimulatorTest, DemoteLruPopulatesStorageByDemotionOnly) {
  const StorageTopology topo(tiny_config(/*io_blocks=*/2,
                                         /*storage_blocks=*/8));
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    // 1, 2 fill the I/O cache; 3 evicts 1 which is demoted; re-access of
    // 1 hits the storage cache (exclusively) and is promoted back up.
    const auto result = sim_on(core, topo, PolicyKind::kDemoteLru)
                            .run(single_thread_trace({1, 2, 3, 1}));
    EXPECT_EQ(result.demotions, 2u);  // evictions of 1 (then of 2)
    EXPECT_EQ(result.storage.hits, 1u);
    EXPECT_EQ(result.disk_reads, 3u);
  }
}

TEST(SimulatorTest, DemoteLruStorageHitRemovesBlockBelow) {
  const StorageTopology topo(tiny_config(2, 8));
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    // After {1,2,3}: storage holds demoted 1. Then 1 hits storage
    // (promoted, removed below) and 4, 1 again: the second 1 must hit I/O
    // (it was promoted there), not storage.
    const auto result = sim_on(core, topo, PolicyKind::kDemoteLru)
                            .run(single_thread_trace({1, 2, 3, 1, 1}));
    EXPECT_EQ(result.storage.hits, 1u);
    EXPECT_EQ(result.io.hits, 1u);
  }
}

TEST(SimulatorTest, KarmaPinsRangesExclusively) {
  const StorageTopology topo(tiny_config(4, 8));
  std::vector<RangeHint> hints = {
      {0, 0, 4, 10.0},   // hottest: pinned at I/O (aggregate capacity 8)
      {0, 4, 12, 2.0},   // pinned at storage
      {0, 12, 64, 0.1},  // uncached
  };
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    const auto result = sim_on(core, topo, PolicyKind::kKarma, hints)
                            .run(single_thread_trace({0, 0, 5, 5, 20, 20}));
    // Block 0: I/O-pinned (1 miss + 1 hit). Block 5: storage-pinned
    // (1 miss + 1 hit). Block 20: uncached (2 disk reads).
    EXPECT_EQ(result.io.lookups, 2u);
    EXPECT_EQ(result.io.hits, 1u);
    EXPECT_EQ(result.storage.lookups, 2u);
    EXPECT_EQ(result.storage.hits, 1u);
    EXPECT_EQ(result.disk_reads, 4u);
  }
}

TEST(SimulatorTest, RepeatReplaysPhase) {
  const StorageTopology topo(tiny_config());
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    const auto result = sim_on(core, topo, PolicyKind::kLruInclusive)
                            .run(single_thread_trace({1, 2}, 64, /*repeat=*/3));
    EXPECT_EQ(result.io.lookups, 6u);
    EXPECT_EQ(result.io.hits, 4u);  // warm after the first repetition
  }
}

TEST(SimulatorTest, SharedIoCacheAcrossThreads) {
  const StorageTopology topo(tiny_config());
  HierarchySimulator sim(topo, PolicyKind::kLruInclusive,
                         identity_io_mapping(topo));
  // Pinned to the clock core: it services each request atomically, so the
  // second thread's access sees the first one's fill. The event core keeps
  // both misses concurrently in flight (see event_core_test.cpp).
  sim.set_core(SimCoreKind::kClock);
  // Threads 0 and 1 share I/O node 0: thread 1 hits thread 0's block.
  TraceProgram trace;
  trace.file_blocks = {64};
  PhaseTrace phase;
  phase.per_thread.resize(2);
  phase.per_thread[0].push_back({0, 7, 1});
  phase.per_thread[1].push_back({0, 7, 1});
  trace.phases.push_back(std::move(phase));
  const auto result = sim.run(trace);
  EXPECT_EQ(result.io.lookups, 2u);
  EXPECT_EQ(result.io.hits, 1u);
  EXPECT_EQ(result.disk_reads, 1u);
}

TEST(SimulatorTest, SeparateIoCachesDoNotShare) {
  const StorageTopology topo(tiny_config());
  HierarchySimulator sim(topo, PolicyKind::kLruInclusive,
                         identity_io_mapping(topo));
  // Pinned to the clock core's atomic request servicing (see above).
  sim.set_core(SimCoreKind::kClock);
  // Threads 0 and 2 are on different I/O nodes; the second access misses
  // at I/O but hits the shared storage cache.
  TraceProgram trace;
  trace.file_blocks = {64};
  PhaseTrace phase;
  phase.per_thread.resize(3);
  phase.per_thread[0].push_back({0, 7, 1});
  phase.per_thread[2].push_back({0, 7, 1});
  trace.phases.push_back(std::move(phase));
  const auto result = sim.run(trace);
  EXPECT_EQ(result.io.hits, 0u);
  EXPECT_EQ(result.storage.hits, 1u);
  EXPECT_EQ(result.disk_reads, 1u);
}

TEST(SimulatorTest, ExecTimeIsMaxOverThreads) {
  const StorageTopology topo(tiny_config());
  TraceProgram trace;
  trace.file_blocks = {64};
  PhaseTrace phase;
  phase.per_thread.resize(2);
  for (std::uint64_t b = 0; b < 3; ++b) phase.per_thread[0].push_back({0, b, 1});
  phase.per_thread[1].push_back({0, 50, 1});
  trace.phases.push_back(std::move(phase));
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    const auto result =
        sim_on(core, topo, PolicyKind::kLruInclusive).run(trace);
    ASSERT_EQ(result.thread_time.size(), 4u);
    EXPECT_GE(result.thread_time[0], result.thread_time[1]);
    EXPECT_GE(result.exec_time, result.thread_time[0]);
  }
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  const StorageTopology topo(tiny_config());
  const auto trace = single_thread_trace({3, 1, 4, 1, 5, 9, 2, 6}, 64, 2);
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    const auto ra = sim_on(core, topo, PolicyKind::kLruInclusive).run(trace);
    const auto rb = sim_on(core, topo, PolicyKind::kLruInclusive).run(trace);
    EXPECT_EQ(ra.exec_time, rb.exec_time);
    EXPECT_EQ(ra.io.hits, rb.io.hits);
    EXPECT_EQ(ra.storage.hits, rb.storage.hits);
  }
}

TEST(SimulatorTest, DisabledIoCacheRoutesToStorage) {
  TopologyConfig c = tiny_config();
  c.io_cache_enabled = false;
  const StorageTopology topo(c);
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    const auto result = sim_on(core, topo, PolicyKind::kLruInclusive)
                            .run(single_thread_trace({1, 1}));
    EXPECT_EQ(result.io.lookups, 0u);
    EXPECT_EQ(result.storage.lookups, 2u);
    EXPECT_EQ(result.storage.hits, 1u);
  }
}

TEST(SimulatorTest, ElementCountsAccumulate) {
  const StorageTopology topo(tiny_config());
  TraceProgram trace;
  trace.file_blocks = {64};
  PhaseTrace phase;
  phase.per_thread.resize(1);
  phase.per_thread[0].push_back({0, 1, 100});
  trace.phases.push_back(std::move(phase));
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    const auto result =
        sim_on(core, topo, PolicyKind::kLruInclusive).run(trace);
    EXPECT_EQ(result.elements, 100u);
    EXPECT_EQ(result.accesses, 1u);
  }
}

TEST(SimulatorTest, BadThreadMappingRejected) {
  const StorageTopology topo(tiny_config());
  EXPECT_THROW(HierarchySimulator(topo, PolicyKind::kLruInclusive, {99}),
               std::invalid_argument);
}

TEST(SimulatorTest, StatsSummaryMentionsMissRates) {
  SimulationResult r;
  r.io.lookups = 10;
  r.io.hits = 9;
  r.exec_time = 1.5;
  EXPECT_NE(r.summary().find("10.0%"), std::string::npos);
}

TEST(LayerStatsTest, Rates) {
  LayerStats s;
  EXPECT_EQ(s.hit_rate(), 0.0);
  EXPECT_EQ(s.miss_rate(), 0.0);
  s.lookups = 4;
  s.hits = 3;
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.75);
  EXPECT_DOUBLE_EQ(s.miss_rate(), 0.25);
  EXPECT_EQ(s.misses(), 1u);
}

}  // namespace
}  // namespace flo::storage

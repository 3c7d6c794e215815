#include <gtest/gtest.h>

#include "sim_cores.hpp"
#include "storage/simulator.hpp"

namespace flo::storage {
namespace {

TopologyConfig prefetch_config(std::uint32_t depth) {
  TopologyConfig c;
  c.compute_nodes = 4;
  c.io_nodes = 2;
  c.storage_nodes = 1;
  c.block_size = 2048;
  c.io_cache_bytes = 4 * c.block_size;
  c.storage_cache_bytes = 16 * c.block_size;
  c.prefetch_depth = depth;
  return c;
}

TraceProgram sequential_trace(std::uint64_t blocks) {
  TraceProgram trace;
  trace.file_blocks = {blocks + 16};
  PhaseTrace phase;
  phase.per_thread.resize(1);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    phase.per_thread[0].push_back({0, b, 1});
  }
  trace.phases.push_back(std::move(phase));
  return trace;
}

TEST(PrefetchTest, DisabledByDefault) {
  const StorageTopology topo(prefetch_config(0));
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    const auto result = sim_on(core, topo).run(sequential_trace(8));
    EXPECT_EQ(result.prefetches, 0u);
  }
}

TEST(PrefetchTest, SequentialStreamTriggersReadahead) {
  const StorageTopology topo(prefetch_config(2));
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    const auto result = sim_on(core, topo).run(sequential_trace(8));
    EXPECT_GT(result.prefetches, 0u);
    // Readahead converts most of the stream's disk reads into storage hits.
    EXPECT_GT(result.storage.hits, 0u);
    EXPECT_LT(result.disk_reads, 8u);
  }
}

TEST(PrefetchTest, ScatteredStreamDoesNotTrigger) {
  const StorageTopology topo(prefetch_config(2));
  TraceProgram trace;
  trace.file_blocks = {128};
  PhaseTrace phase;
  phase.per_thread.resize(1);
  for (std::uint64_t b = 0; b < 8; ++b) {
    phase.per_thread[0].push_back({0, b * 17 % 128, 1});
  }
  trace.phases.push_back(std::move(phase));
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    EXPECT_EQ(sim_on(core, topo).run(trace).prefetches, 0u);
  }
}

TEST(PrefetchTest, ReadaheadStopsAtFileEnd) {
  const StorageTopology topo(prefetch_config(8));
  TraceProgram trace;
  trace.file_blocks = {4};  // tiny file
  PhaseTrace phase;
  phase.per_thread.resize(1);
  for (std::uint64_t b = 0; b < 4; ++b) {
    phase.per_thread[0].push_back({0, b, 1});
  }
  trace.phases.push_back(std::move(phase));
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    // At most the remaining blocks can ever be staged.
    EXPECT_LE(sim_on(core, topo).run(trace).prefetches, 3u);
  }
}

TEST(PrefetchTest, InterleavedStreamsFasterWithReadahead) {
  // A lone sequential stream already streams for free; readahead pays off
  // when another thread's seeks would otherwise break the stream. Thread 0
  // scans file 0 sequentially while thread 2 (other I/O node) hops around
  // file 1: without readahead every resumption of the stream pays a seek.
  TraceProgram trace;
  trace.file_blocks = {96, 512};
  PhaseTrace phase;
  phase.per_thread.resize(3);
  for (std::uint64_t b = 0; b < 64; ++b) {
    phase.per_thread[0].push_back({0, b, 1});
    phase.per_thread[2].push_back({1, (b * 97) % 512, 1});
  }
  trace.phases.push_back(std::move(phase));

  const StorageTopology off(prefetch_config(0));
  const StorageTopology on(prefetch_config(4));
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    const auto r_off = sim_on(core, off).run(trace);
    const auto r_on = sim_on(core, on).run(trace);
    EXPECT_LT(r_on.thread_time[0], r_off.thread_time[0]);
    EXPECT_GT(r_on.prefetches, 0u);
  }
}

}  // namespace
}  // namespace flo::storage

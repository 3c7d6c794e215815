#include <gtest/gtest.h>

#include "sim_cores.hpp"
#include "storage/sim_core.hpp"
#include "storage/simulator.hpp"

namespace flo::storage {
namespace {

TopologyConfig wb_config(bool model_writes) {
  TopologyConfig c;
  c.compute_nodes = 4;
  c.io_nodes = 2;
  c.storage_nodes = 1;
  c.block_size = 2048;
  c.io_cache_bytes = 2 * c.block_size;
  c.storage_cache_bytes = 4 * c.block_size;
  c.model_writes = model_writes;
  return c;
}

TraceProgram write_scan(std::uint64_t blocks, bool writes) {
  TraceProgram trace;
  trace.file_blocks = {blocks + 8};
  PhaseTrace phase;
  phase.per_thread.resize(1);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    phase.per_thread[0].push_back({0, b, 1, writes});
  }
  trace.phases.push_back(std::move(phase));
  return trace;
}

TEST(WritebackTest, DisabledByDefaultWritesBehaveLikeReads) {
  const StorageTopology topo(wb_config(false));
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    const auto r = sim_on(core, topo).run(write_scan(12, /*writes=*/false));
    const auto w = sim_on(core, topo).run(write_scan(12, /*writes=*/true));
    EXPECT_EQ(r.exec_time, w.exec_time);
    EXPECT_EQ(w.writebacks, 0u);
    EXPECT_EQ(w.disk_writes, 0u);
  }
}

TEST(WritebackTest, DirtyEvictionsShipDown) {
  const StorageTopology topo(wb_config(true));
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    // 12 written blocks stream through a 2-block I/O cache: 10 dirty
    // evictions ship down to the 4-block storage cache, whose own dirty
    // evictions reach the disk.
    const auto result =
        sim_on(core, topo).run(write_scan(12, /*writes=*/true));
    EXPECT_GE(result.writebacks, 10u);
    EXPECT_GT(result.disk_writes, 0u);
  }
}

TEST(WritebackTest, CleanEvictionsAreFree) {
  const StorageTopology topo(wb_config(true));
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    const auto result =
        sim_on(core, topo).run(write_scan(12, /*writes=*/false));
    EXPECT_EQ(result.writebacks, 0u);
    EXPECT_EQ(result.disk_writes, 0u);
  }
}

TEST(WritebackTest, WriteTrafficCostsMoreThanReadTraffic) {
  const StorageTopology topo(wb_config(true));
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    const auto r = sim_on(core, topo).run(write_scan(32, false));
    const auto w = sim_on(core, topo).run(write_scan(32, true));
    EXPECT_GT(w.exec_time, r.exec_time);
  }
}

// Inside the event≡clock envelope (one thread, 1/1/1 chain, prefetch off)
// so both cores must agree bit-exactly on the flush accounting.
TopologyConfig flush_config() {
  TopologyConfig c;
  c.compute_nodes = 1;
  c.io_nodes = 1;
  c.storage_nodes = 1;
  c.block_size = 2048;
  c.io_cache_bytes = 2 * c.block_size;
  c.storage_cache_bytes = 4 * c.block_size;
  c.prefetch_depth = 0;
  c.model_writes = true;
  return c;
}

SimulationResult run_flush(const TraceProgram& trace, SimCoreKind core) {
  return sim_on(core, StorageTopology(flush_config())).run(trace);
}

TEST(WritebackTest, TrailingWritebackChargedAtEndOfRun) {
  // A trace that ENDS with a write leaves its last dirty storage eviction
  // deferred in pending_writeback_cost_; the end-of-run flush must charge
  // it. The oracle trace appends one guaranteed I/O hit (re-reading the
  // just-written block), whose service charges any pending write-backs the
  // old way — so post-fix the two traces must agree on disk_writes.
  const TraceProgram final_write = write_scan(12, /*writes=*/true);
  TraceProgram with_flush_read = write_scan(12, /*writes=*/true);
  with_flush_read.phases[0].per_thread[0].push_back({0, 11, 1, false});

  const SimulationResult a = run_flush(final_write, SimCoreKind::kClock);
  const SimulationResult b = run_flush(with_flush_read, SimCoreKind::kClock);
  EXPECT_GT(a.disk_writes, 0u);
  EXPECT_EQ(a.disk_writes, b.disk_writes)
      << "trailing write-back dropped by the write-final trace";
  // The flush also charges the deferred cost into total time: the
  // write-final run can cost at most the flush-read run (which adds a
  // strictly positive hit service on top).
  EXPECT_LT(a.exec_time, b.exec_time);

  // Clock ≡ event parity on the flushed run.
  const SimulationResult e = run_flush(final_write, SimCoreKind::kEvent);
  EXPECT_EQ(e.disk_writes, a.disk_writes);
  EXPECT_EQ(e.writebacks, a.writebacks);
  EXPECT_EQ(e.disk_reads, a.disk_reads);
  EXPECT_EQ(e.accesses, a.accesses);
  EXPECT_NEAR(e.exec_time, a.exec_time, 1e-9 * a.exec_time);
}

TEST(WritebackTest, RewritingResidentBlockStaysDirtyOnce) {
  const StorageTopology topo(wb_config(true));
  TraceProgram trace;
  trace.file_blocks = {16};
  PhaseTrace phase;
  phase.per_thread.resize(1);
  // Write the same block repeatedly, then flush it out with two reads.
  for (int i = 0; i < 5; ++i) phase.per_thread[0].push_back({0, 0, 1, true});
  phase.per_thread[0].push_back({0, 1, 1, false});
  phase.per_thread[0].push_back({0, 2, 1, false});
  phase.per_thread[0].push_back({0, 3, 1, false});
  trace.phases.push_back(std::move(phase));
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    // Block 0 is shipped down exactly once.
    EXPECT_EQ(sim_on(core, topo).run(trace).writebacks, 1u);
  }
}

}  // namespace
}  // namespace flo::storage

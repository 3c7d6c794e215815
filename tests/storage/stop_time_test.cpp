// HierarchySimulator::run's stop time: a bound above the full run's
// exec_time must leave the result bit-identical (to_wire and operator==)
// to an unbounded run, and a bound at or below it must come back with an
// exec_time no smaller than the bound. Both cores, extents on and off,
// and the fault/QoS/write-back paths that touch the clocks.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "sim_cores.hpp"
#include "storage/sim_core.hpp"
#include "storage/simulator.hpp"
#include "util/rng.hpp"

namespace flo::storage {

// gtest prints the parameter through this, and the test discovery names
// each case ".../clock" or ".../event" by it.
void PrintTo(SimCoreKind kind, std::ostream* os) { *os << sim_core_name(kind); }

namespace {

struct Variant {
  const char* label;
  TopologyConfig config;
  bool tenants = false;  ///< two tenants, required by the QoS shares
};

TopologyConfig base_config() {
  TopologyConfig c;
  c.compute_nodes = 4;
  c.io_nodes = 2;
  c.storage_nodes = 2;
  c.block_size = 2048;
  c.io_cache_bytes = 6 * c.block_size;
  c.storage_cache_bytes = 10 * c.block_size;
  return c;
}

std::vector<Variant> variants() {
  std::vector<Variant> out;
  out.push_back({"plain", base_config()});

  Variant writes{"writes+prefetch", base_config()};
  writes.config.model_writes = true;
  writes.config.prefetch_depth = 2;
  out.push_back(writes);

  Variant faults{"faults+qos", base_config()};
  faults.config.model_writes = true;
  faults.config.fault.enabled = true;
  faults.config.fault.seed = 11;
  faults.config.fault.disk_transient_rate = 0.1;
  faults.config.fault.storage_transient_rate = 0.1;
  faults.config.fault.slow_disk_rate = 0.2;
  faults.config.qos.enabled = true;
  faults.config.qos.shares = {2, 1};
  faults.config.qos.priorities = {2, 1};
  faults.config.qos.dynamic_shares = true;
  faults.config.qos.epoch_accesses = 16;
  faults.config.qos.scheduler = SchedPolicyKind::kPriority;
  faults.tenants = true;
  out.push_back(faults);

  Variant cacheless{"cacheless", base_config()};
  cacheless.config.io_cache_enabled = false;
  cacheless.config.storage_cache_enabled = false;
  out.push_back(cacheless);
  return out;
}

/// Multi-phase, multi-thread extents with re-reads and writes. `threads`
/// of 1 keeps the event core's closed-form phase path in play for the
/// cache-less variant.
TraceProgram random_trace(std::uint64_t seed, std::size_t threads) {
  util::Rng rng(seed);
  TraceProgram trace;
  trace.file_blocks = {96, 48};
  for (int p = 0; p < 3; ++p) {
    PhaseTrace phase;
    phase.repeat = 1 + static_cast<std::uint32_t>(rng.next_below(2));
    phase.per_thread.resize(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      const std::size_t events = 6 + rng.next_below(8);
      for (std::size_t i = 0; i < events; ++i) {
        AccessEvent ev;
        ev.file =
            static_cast<FileId>(rng.next_below(trace.file_blocks.size()));
        const std::uint32_t run =
            1 + static_cast<std::uint32_t>(rng.next_below(12));
        ev.block = rng.next_below(trace.file_blocks[ev.file] - run);
        ev.run_blocks = run;
        ev.element_count = 1 + rng.next_below(4);
        ev.is_write = rng.next_below(3) == 0;
        phase.per_thread[t].push_back(ev);
      }
    }
    trace.phases.push_back(std::move(phase));
  }
  return trace;
}

/// The same stream with every extent split into single-block events.
TraceProgram per_block(const TraceProgram& trace) {
  TraceProgram out = trace;
  for (PhaseTrace& phase : out.phases) {
    for (auto& events : phase.per_thread) {
      std::vector<AccessEvent> blocks;
      for (AccessEvent ev : events) {
        const std::uint32_t run = ev.run_blocks;
        ev.run_blocks = 1;
        for (std::uint32_t i = 0; i < run; ++i, ++ev.block) {
          blocks.push_back(ev);
        }
      }
      events = std::move(blocks);
    }
  }
  return out;
}

class StopTimeTest : public ::testing::TestWithParam<SimCoreKind> {
 protected:
  /// Extents off: a per-block trace through the per-block reference path.
  SimulationResult run(const Variant& v, const TraceProgram& trace,
                       bool extents, double stop_at, bool* stopped) const {
    const StorageTopology topo(v.config);
    HierarchySimulator sim = sim_on(GetParam(), topo);
    sim.set_extent_batching(extents);
    if (v.tenants) sim.set_tenants({0, 1, 0, 1}, 2);
    SimulationResult result =
        sim.run(extents ? trace : per_block(trace), stop_at);
    *stopped = sim.stopped();
    return result;
  }
};

TEST_P(StopTimeTest, LimitAboveExecTimeIsBitIdentical) {
  for (const Variant& v : variants()) {
    for (std::size_t threads : {1u, 4u}) {
      for (bool extents : {true, false}) {
        const TraceProgram trace = random_trace(7 + threads, threads);
        bool stopped = true;
        const SimulationResult full =
            run(v, trace, extents, HierarchySimulator::kNoStopTime, &stopped);
        EXPECT_FALSE(stopped);
        ASSERT_GT(full.exec_time, 0.0);
        for (double limit : {full.exec_time * 1.001, full.exec_time * 2}) {
          const SimulationResult bounded =
              run(v, trace, extents, limit, &stopped);
          const std::string where = std::string(v.label) + ", threads " +
                                    std::to_string(threads) + ", extents " +
                                    (extents ? "on" : "off");
          EXPECT_FALSE(stopped) << where;
          EXPECT_EQ(to_wire(bounded), to_wire(full)) << where;
          EXPECT_EQ(bounded, full) << where;
        }
      }
    }
  }
}

TEST_P(StopTimeTest, LimitAtOrBelowExecTimeReportsAtLeastTheLimit) {
  for (const Variant& v : variants()) {
    for (std::size_t threads : {1u, 4u}) {
      for (bool extents : {true, false}) {
        const TraceProgram trace = random_trace(7 + threads, threads);
        bool stopped = false;
        const SimulationResult full =
            run(v, trace, extents, HierarchySimulator::kNoStopTime, &stopped);
        for (double scale : {1.0, 0.999, 0.5}) {
          const double limit = full.exec_time * scale;
          const SimulationResult bounded =
              run(v, trace, extents, limit, &stopped);
          const std::string where =
              std::string(v.label) + ", threads " + std::to_string(threads) +
              ", extents " + (extents ? "on" : "off") + ", scale " +
              std::to_string(scale);
          EXPECT_GE(bounded.exec_time, limit) << where;
          if (scale == 0.5) {
            // Half way in, the run is cut: it stopped and did less work.
            EXPECT_TRUE(stopped) << where;
            EXPECT_LT(bounded.accesses, full.accesses) << where;
          }
        }
      }
    }
  }
}

TEST_P(StopTimeTest, ZeroLimitStopsAfterTheFirstStep) {
  const Variant v = variants().front();
  const TraceProgram trace = random_trace(3, 4);
  bool stopped = false;
  const SimulationResult bounded = run(v, trace, true, 0.0, &stopped);
  EXPECT_TRUE(stopped);
  EXPECT_GT(bounded.exec_time, 0.0);
}

TEST_P(StopTimeTest, StoppedFlagResetsOnTheNextRun) {
  const Variant v = variants().front();
  const StorageTopology topo(v.config);
  HierarchySimulator sim = sim_on(GetParam(), topo);
  const TraceProgram trace = random_trace(5, 4);
  const SimulationResult full = sim.run(trace);
  sim.run(trace, full.exec_time / 2);
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(sim.run(trace), full);
  EXPECT_FALSE(sim.stopped());
}

INSTANTIATE_TEST_SUITE_P(BothCores, StopTimeTest,
                         ::testing::ValuesIn(kBothCores));

}  // namespace
}  // namespace flo::storage

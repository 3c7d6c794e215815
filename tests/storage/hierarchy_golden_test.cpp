// Characterization golden for both simulation cores outside the
// event≡clock equivalence envelope: {LRU, DEMOTE-LRU, MQ, KARMA} x
// {clock, event} over a four-thread contended trace with readahead,
// transient faults, slow disks, a storage outage and write-back. The
// non-KARMA policies also run two tenants with dynamic QoS shares and the
// priority disk scheduler. Every result is compared bit for bit, through
// its to_wire line, against tests/storage/testdata/hierarchy_golden.txt.
//
// The expected lines are recorded output, not derived values: a mismatch
// means simulator behaviour changed. When a change is meant to alter
// behaviour, re-record the file from this test's failure messages (each
// prints the case name and its new wire line) and say why in the commit.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "storage/simulator.hpp"
#include "storage/stats.hpp"

#ifndef FLO_STORAGE_TESTDATA
#error "FLO_STORAGE_TESTDATA must name tests/storage/testdata"
#endif

namespace flo::storage {
namespace {

constexpr std::uint64_t kFile0Blocks = 64;
constexpr std::uint64_t kFile1Blocks = 48;

TopologyConfig golden_config(bool with_qos) {
  TopologyConfig c;
  c.compute_nodes = 4;
  c.io_nodes = 2;
  c.storage_nodes = 2;
  c.block_size = 2048;
  c.io_cache_bytes = 8 * c.block_size;
  c.storage_cache_bytes = 16 * c.block_size;
  c.prefetch_depth = 2;
  c.model_writes = true;
  c.fault.enabled = true;
  c.fault.seed = 11;
  c.fault.storage_transient_rate = 0.08;
  c.fault.disk_transient_rate = 0.05;
  c.fault.max_retries = 2;
  c.fault.slow_disk_rate = 0.05;
  c.fault.slow_disk_multiplier = 4.0;
  c.fault.outages = {{FaultLayer::kStorage, 0, 0.12, 0.4}};
  if (with_qos) {
    c.qos.enabled = true;
    c.qos.shares = {2, 1};
    c.qos.priorities = {2, 1};
    c.qos.dynamic_shares = true;
    c.qos.epoch_accesses = 48;
    c.qos.scheduler = SchedPolicyKind::kPriority;
  }
  return c;
}

/// Four threads contending for two files over three phases: overlapping
/// sequential extents (readahead streams on both disks), a strided
/// read/write mix (dirty evictions and write-backs) and a shared hot set
/// (cross-thread hits), with a repeated phase between barriers.
TraceProgram golden_trace() {
  TraceProgram trace;
  trace.file_blocks = {kFile0Blocks, kFile1Blocks};

  PhaseTrace stream;
  stream.repeat = 2;
  stream.per_thread.resize(4);
  for (std::uint32_t t = 0; t < 4; ++t) {
    for (std::uint64_t b = t * 8; b < t * 8 + 24; b += 4) {
      AccessEvent ev{0, b, 3, false};
      ev.run_blocks = 4;
      stream.per_thread[t].push_back(ev);
    }
  }
  trace.phases.push_back(std::move(stream));

  PhaseTrace mixed;
  mixed.per_thread.resize(4);
  for (std::uint32_t t = 0; t < 4; ++t) {
    for (std::uint64_t i = 0; i < 30; ++i) {
      const std::uint64_t b = (i * 5 + t * 7) % kFile1Blocks;
      mixed.per_thread[t].push_back({1, b, 2, (i + t) % 3 == 0});
    }
  }
  trace.phases.push_back(std::move(mixed));

  PhaseTrace hot;
  hot.per_thread.resize(4);
  for (std::uint32_t t = 0; t < 4; ++t) {
    for (std::uint64_t i = 0; i < 36; ++i) {
      const std::uint64_t b = (i * 7 + t * 3) % 20;
      hot.per_thread[t].push_back({0, b, 1, i % 5 == t});
      hot.per_thread[t].push_back({0, 24 + (i * 3 + t) % 24, 1, false});
    }
  }
  trace.phases.push_back(std::move(hot));
  return trace;
}

/// KARMA range classes: file 0's hot head fits the I/O layer, its tail
/// the storage layer, and file 1 stays uncached — one range per route.
std::vector<RangeHint> golden_hints() {
  return {{0, 0, 16, 8.0}, {0, 16, 48, 2.0}, {1, 0, kFile1Blocks, 0.5}};
}

std::map<std::string, std::string> load_golden() {
  std::ifstream in(std::string(FLO_STORAGE_TESTDATA) +
                   "/hierarchy_golden.txt");
  std::map<std::string, std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    lines[line.substr(0, space)] = line.substr(space + 1);
  }
  return lines;
}

struct GoldenCase {
  PolicyKind policy;
  SimCoreKind core;
};

std::string case_name(const GoldenCase& c) {
  const char* policy = "lru";
  switch (c.policy) {
    case PolicyKind::kLruInclusive: policy = "lru"; break;
    case PolicyKind::kDemoteLru: policy = "demote"; break;
    case PolicyKind::kMqInclusive: policy = "mq"; break;
    case PolicyKind::kKarma: policy = "karma"; break;
  }
  return std::string(policy) + "_" + sim_core_name(c.core);
}

// gtest prints the parameter through this, and the test discovery names
// each case ".../lru_clock", ".../karma_event" and so on by it.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << case_name(c); }

SimulationResult run_case(const GoldenCase& c) {
  const bool tenants = c.policy != PolicyKind::kKarma;
  const StorageTopology topo(golden_config(tenants));
  HierarchySimulator sim(topo, c.policy, {0, 0, 1, 1},
                         c.policy == PolicyKind::kKarma
                             ? golden_hints()
                             : std::vector<RangeHint>{});
  sim.set_core(c.core);
  if (tenants) sim.set_tenants({0, 0, 1, 1}, 2);
  return sim.run(golden_trace());
}

class HierarchyGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(HierarchyGoldenTest, MatchesRecordedWireLine) {
  const GoldenCase c = GetParam();
  const std::string name = case_name(c);
  const SimulationResult result = run_case(c);

  // The trace must actually reach the paths it is meant to pin.
  EXPECT_GT(result.faults.storage.bypasses, 0u) << name;
  EXPECT_GT(result.faults.disk.transient_failures, 0u) << name;
  EXPECT_GT(result.faults.disk.slow_services, 0u) << name;
  EXPECT_GT(result.io.hits, 0u) << name;
  if (c.policy != PolicyKind::kKarma) {
    EXPECT_GT(result.prefetches, 0u) << name;
    EXPECT_GT(result.writebacks, 0u) << name;
    ASSERT_EQ(result.tenants.size(), 2u) << name;
    EXPECT_GT(result.tenants[0].io_evictions + result.tenants[1].io_evictions,
              0u)
        << name;
  }
  if (c.policy == PolicyKind::kDemoteLru) {
    EXPECT_GT(result.demotions, 0u) << name;
  }
  if (c.policy == PolicyKind::kKarma) {
    EXPECT_GT(result.storage.hits, 0u) << name;
  }
  if (c.core == SimCoreKind::kEvent) {
    EXPECT_TRUE(result.queue.any()) << name;
  }

  const std::string wire = to_wire(result);
  const auto golden = load_golden();
  const auto it = golden.find(name);
  ASSERT_NE(it, golden.end()) << "no golden line; record:\n"
                              << name << ' ' << wire;
  EXPECT_EQ(it->second, wire) << "golden mismatch; new line:\n"
                              << name << ' ' << wire;
}

std::vector<GoldenCase> all_cases() {
  std::vector<GoldenCase> cases;
  for (PolicyKind policy :
       {PolicyKind::kLruInclusive, PolicyKind::kDemoteLru,
        PolicyKind::kMqInclusive, PolicyKind::kKarma}) {
    for (SimCoreKind core : {SimCoreKind::kClock, SimCoreKind::kEvent}) {
      cases.push_back({policy, core});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPoliciesBothCores, HierarchyGoldenTest,
                         ::testing::ValuesIn(all_cases()));

}  // namespace
}  // namespace flo::storage

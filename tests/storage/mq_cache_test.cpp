#include "storage/mq_cache.hpp"

#include <gtest/gtest.h>

#include "sim_cores.hpp"
#include "storage/simulator.hpp"

namespace flo::storage {
namespace {

BlockKey key(std::uint64_t b) { return {0, b}; }

TEST(MqCacheTest, BasicInsertAndTouch) {
  MqCache cache(4);
  EXPECT_FALSE(cache.contains(key(1)));
  EXPECT_EQ(cache.insert(key(1)), std::nullopt);
  EXPECT_TRUE(cache.contains(key(1)));
  EXPECT_TRUE(cache.touch(key(1)));
  EXPECT_FALSE(cache.touch(key(99)));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MqCacheTest, ZeroCapacityRejected) {
  EXPECT_THROW(MqCache(0), std::invalid_argument);
  EXPECT_THROW(MqCache(4, 0), std::invalid_argument);
}

TEST(MqCacheTest, FrequencyPromotesQueues) {
  MqCache cache(8);
  cache.insert(key(1));
  EXPECT_EQ(cache.queue_of(key(1)), std::optional<std::size_t>(0));
  cache.touch(key(1));  // freq 2 -> queue 1
  EXPECT_EQ(cache.queue_of(key(1)), std::optional<std::size_t>(1));
  cache.touch(key(1));
  cache.touch(key(1));  // freq 4 -> queue 2
  EXPECT_EQ(cache.queue_of(key(1)), std::optional<std::size_t>(2));
}

TEST(MqCacheTest, HotBlockSurvivesScanUnlikeLru) {
  // The defining MQ property: a frequently-referenced block survives a
  // one-touch scan that would flush it out of plain LRU.
  constexpr std::size_t kCap = 8;
  MqCache mq(kCap);
  LruCache lru(kCap);
  const BlockKey hot = key(1000);
  for (int i = 0; i < 8; ++i) {
    mq.insert(hot);
    lru.insert(hot);
  }
  for (std::uint64_t b = 0; b < 2 * kCap; ++b) {
    mq.insert(key(b));
    lru.insert(key(b));
  }
  EXPECT_TRUE(mq.contains(hot));    // parked in a high-frequency queue
  EXPECT_FALSE(lru.contains(hot));  // LRU flushed it
}

TEST(MqCacheTest, GhostQueueRestoresFrequency) {
  MqCache cache(2);
  const BlockKey comeback = key(7);
  cache.insert(comeback);           // freq 1, queue 0
  cache.insert(key(100));
  cache.insert(key(101));           // evicts `comeback`; ghost records it
  ASSERT_FALSE(cache.contains(comeback));
  // Re-admission resumes one past the remembered frequency: freq 2 lands
  // in queue 1 instead of restarting cold in queue 0.
  cache.insert(comeback);
  ASSERT_TRUE(cache.contains(comeback));
  EXPECT_EQ(cache.queue_of(comeback), std::optional<std::size_t>(1));
}

TEST(MqCacheTest, GhostMemoryIsBounded) {
  MqCache cache(2);  // ghost window: 4 entries
  cache.insert(key(7));
  // Push 20 evictions through; key(7)'s ghost entry ages out.
  for (std::uint64_t b = 100; b < 120; ++b) cache.insert(key(b));
  cache.insert(key(7));
  EXPECT_EQ(cache.queue_of(key(7)), std::optional<std::size_t>(0));
}

TEST(MqCacheTest, ExpiryDemotesIdleBlocks) {
  MqCache cache(4, 8, /*life_time=*/4);
  const BlockKey idle = key(5);
  for (int i = 0; i < 4; ++i) cache.insert(idle);  // queue 2
  ASSERT_EQ(cache.queue_of(idle), std::optional<std::size_t>(2));
  // Touch other blocks long enough for `idle` to expire downward.
  for (std::uint64_t b = 0; b < 3; ++b) cache.insert(key(b));
  for (int round = 0; round < 20; ++round) {
    for (std::uint64_t b = 0; b < 3; ++b) cache.touch(key(b));
  }
  ASSERT_TRUE(cache.contains(idle));
  EXPECT_LT(*cache.queue_of(idle), 2u);
}

TEST(MqCacheTest, CapacityNeverExceeded) {
  MqCache cache(16);
  for (std::uint64_t b = 0; b < 500; ++b) {
    cache.insert(key(b % 37));
    EXPECT_LE(cache.size(), 16u);
  }
}

TEST(MqCacheTest, EraseAndClear) {
  MqCache cache(4);
  cache.insert(key(1));
  EXPECT_TRUE(cache.erase(key(1)));
  EXPECT_FALSE(cache.erase(key(1)));
  cache.insert(key(2));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains(key(2)));
}

TEST(MqPolicyTest, SimulatorRunsWithMqStorageLevel) {
  TopologyConfig c;
  c.compute_nodes = 4;
  c.io_nodes = 2;
  c.storage_nodes = 1;
  c.block_size = 2048;
  c.io_cache_bytes = 2 * c.block_size;
  c.storage_cache_bytes = 8 * c.block_size;
  const StorageTopology topo(c);
  TraceProgram trace;
  trace.file_blocks = {64};
  PhaseTrace phase;
  phase.repeat = 3;
  phase.per_thread.resize(1);
  for (std::uint64_t b = 0; b < 6; ++b) phase.per_thread[0].push_back({0, b, 1});
  trace.phases.push_back(std::move(phase));
  for (const SimCoreKind core : kBothCores) {
    SCOPED_TRACE(sim_core_name(core));
    HierarchySimulator sim = sim_on(core, topo, PolicyKind::kMqInclusive);
    const auto result = sim.run(trace);
    EXPECT_GT(result.storage.lookups, 0u);
    EXPECT_GT(result.storage.hits, 0u);  // inclusive fill + MQ retention
  }
}

}  // namespace
}  // namespace flo::storage

// Block-granularity LRU cache — the building block for every cache in the
// hierarchy (Section 5.1: "managed using the LRU policy").
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "storage/topology.hpp"

namespace flo::storage {

/// Identity of a cached unit: (file, block index within file).
struct BlockKey {
  FileId file = 0;
  std::uint64_t block = 0;

  bool operator==(const BlockKey&) const = default;

  /// Packs into one 64-bit word (file ids are small; blocks < 2^40).
  std::uint64_t packed() const {
    return (static_cast<std::uint64_t>(file) << 40) | block;
  }
  static BlockKey unpack(std::uint64_t packed) {
    return {static_cast<FileId>(packed >> 40),
            packed & ((1ull << 40) - 1)};
  }
};

/// Fixed-capacity LRU over BlockKeys. O(1) amortized lookup/insert/erase.
class LruCache {
 public:
  LruCache() = default;
  explicit LruCache(std::size_t capacity_blocks);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const {
    return parts_.empty() ? map_.size() : owner_.size();
  }

  /// True iff resident (does NOT update recency).
  bool contains(BlockKey key) const;

  /// If resident, promotes to MRU and returns true.
  bool touch(BlockKey key);

  /// Inserts at MRU; returns the evicted key if capacity was exceeded.
  /// Inserting a resident key just promotes it (returns nullopt). When
  /// partitioned, `owner` names the tenant whose quota the block is
  /// charged to — the victim (if any) always comes from that tenant's own
  /// partition, which is the isolation guarantee (DESIGN.md §4k).
  std::optional<BlockKey> insert(BlockKey key, std::uint32_t owner = 0);

  /// Removes a key if resident; returns whether it was resident.
  bool erase(BlockKey key);

  /// Least-recently-used resident key, if any (for inspection/tests;
  /// partitioned caches have no global recency order and answer nullopt
  /// unless exactly one partition is non-empty).
  std::optional<BlockKey> lru_key() const;

  void clear();

  /// --- per-tenant partitioning (DESIGN.md §4k) --------------------------
  /// Carves the cache into one LRU partition per tenant with the given
  /// block quotas (their sum must not exceed capacity). Clears all
  /// residency. An empty vector returns to the unpartitioned global LRU.
  /// A single partition at full capacity behaves bit-identically to the
  /// unpartitioned cache — the qos-neutrality oracle pins this.
  void set_partitions(std::vector<std::size_t> quotas);
  bool partitioned() const { return !parts_.empty(); }
  std::size_t partition_quota(std::uint32_t tenant) const;
  std::size_t partition_occupancy(std::uint32_t tenant) const;
  /// The tenant currently charged for a resident block, if partitioned.
  std::optional<std::uint32_t> owner_of(BlockKey key) const;
  /// Shrinks one partition's quota, evicting its LRU blocks until it
  /// fits; returns the victims (the dynamic-share rebalancer accounts
  /// them through the same paths as insert victims). Growing never
  /// evicts.
  std::vector<BlockKey> set_partition_quota(std::uint32_t tenant,
                                            std::size_t quota);

 private:
  std::size_t capacity_ = 0;
  // MRU at front. The list stores packed keys; the map indexes into it.
  std::list<std::uint64_t> order_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;
  // Partitioned mode: one independent LRU per tenant plus an owner index;
  // order_/map_ stay empty while partitioned (and vice versa).
  std::vector<LruCache> parts_;
  std::unordered_map<std::uint64_t, std::uint32_t> owner_;
};

}  // namespace flo::storage

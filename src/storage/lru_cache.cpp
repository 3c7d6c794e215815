#include "storage/lru_cache.hpp"

#include <stdexcept>

namespace flo::storage {

LruCache::LruCache(std::size_t capacity_blocks) : capacity_(capacity_blocks) {
  if (capacity_ == 0) {
    throw std::invalid_argument("LruCache: zero capacity");
  }
  map_.reserve(capacity_ * 2);
}

bool LruCache::contains(BlockKey key) const {
  if (!parts_.empty()) return owner_.find(key.packed()) != owner_.end();
  return map_.find(key.packed()) != map_.end();
}

bool LruCache::touch(BlockKey key) {
  if (!parts_.empty()) {
    const auto it = owner_.find(key.packed());
    if (it == owner_.end()) return false;
    return parts_[it->second].touch(key);
  }
  const auto it = map_.find(key.packed());
  if (it == map_.end()) return false;
  order_.splice(order_.begin(), order_, it->second);
  return true;
}

std::optional<BlockKey> LruCache::insert(BlockKey key, std::uint32_t owner) {
  if (!parts_.empty()) {
    if (owner >= parts_.size()) {
      throw std::invalid_argument("LruCache: owner beyond partition count");
    }
    const auto it = owner_.find(key.packed());
    if (it != owner_.end()) {
      // Resident (possibly in another tenant's partition): promote where
      // it lives; ownership — and the quota charge — stay put.
      parts_[it->second].touch(key);
      return std::nullopt;
    }
    owner_.emplace(key.packed(), owner);
    const std::optional<BlockKey> victim = parts_[owner].insert(key);
    if (victim) owner_.erase(victim->packed());
    return victim;
  }
  if (touch(key)) return std::nullopt;
  order_.push_front(key.packed());
  map_.emplace(key.packed(), order_.begin());
  if (map_.size() <= capacity_) return std::nullopt;
  const std::uint64_t victim = order_.back();
  order_.pop_back();
  map_.erase(victim);
  return BlockKey::unpack(victim);
}

bool LruCache::erase(BlockKey key) {
  if (!parts_.empty()) {
    const auto it = owner_.find(key.packed());
    if (it == owner_.end()) return false;
    parts_[it->second].erase(key);
    owner_.erase(it);
    return true;
  }
  const auto it = map_.find(key.packed());
  if (it == map_.end()) return false;
  order_.erase(it->second);
  map_.erase(it);
  return true;
}

std::optional<BlockKey> LruCache::lru_key() const {
  if (!parts_.empty()) {
    // No global recency order exists across partitions; only the
    // degenerate single-occupied-partition case has a well-defined LRU.
    const LruCache* occupied = nullptr;
    for (const LruCache& part : parts_) {
      if (part.size() == 0) continue;
      if (occupied != nullptr) return std::nullopt;
      occupied = &part;
    }
    return occupied == nullptr ? std::nullopt : occupied->lru_key();
  }
  if (order_.empty()) return std::nullopt;
  return BlockKey::unpack(order_.back());
}

void LruCache::clear() {
  order_.clear();
  map_.clear();
  for (LruCache& part : parts_) part.clear();
  owner_.clear();
}

void LruCache::set_partitions(std::vector<std::size_t> quotas) {
  order_.clear();
  map_.clear();
  owner_.clear();
  parts_.clear();
  if (quotas.empty()) return;
  std::size_t total = 0;
  parts_.reserve(quotas.size());
  for (std::size_t quota : quotas) {
    total += quota;
    parts_.emplace_back(quota);  // throws on a zero quota
  }
  if (total > capacity_) {
    parts_.clear();
    throw std::invalid_argument("LruCache: partition quotas exceed capacity");
  }
}

std::size_t LruCache::partition_quota(std::uint32_t tenant) const {
  return tenant < parts_.size() ? parts_[tenant].capacity() : 0;
}

std::size_t LruCache::partition_occupancy(std::uint32_t tenant) const {
  return tenant < parts_.size() ? parts_[tenant].size() : 0;
}

std::optional<std::uint32_t> LruCache::owner_of(BlockKey key) const {
  const auto it = owner_.find(key.packed());
  if (it == owner_.end()) return std::nullopt;
  return it->second;
}

std::vector<BlockKey> LruCache::set_partition_quota(std::uint32_t tenant,
                                                    std::size_t quota) {
  if (tenant >= parts_.size()) {
    throw std::invalid_argument("LruCache: quota for unknown partition");
  }
  if (quota == 0) {
    throw std::invalid_argument("LruCache: zero partition quota");
  }
  LruCache& part = parts_[tenant];
  part.capacity_ = quota;
  std::vector<BlockKey> victims;
  while (part.map_.size() > quota) {
    const std::uint64_t victim = part.order_.back();
    part.order_.pop_back();
    part.map_.erase(victim);
    owner_.erase(victim);
    victims.push_back(BlockKey::unpack(victim));
  }
  return victims;
}

}  // namespace flo::storage

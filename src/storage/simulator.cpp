#include "storage/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <queue>
#include <stdexcept>

#include "obs/span.hpp"
#include "storage/event_core.hpp"

namespace flo::storage {

HierarchySimulator::HierarchySimulator(StorageTopology topology,
                                       PolicyKind policy,
                                       std::vector<NodeId> io_node_of_thread,
                                       std::vector<RangeHint> hints)
    : topology_(std::move(topology)),
      policy_(policy),
      io_node_of_thread_(std::move(io_node_of_thread)),
      network_(topology_.config().latency, topology_.config().block_size),
      faults_(topology_.config().fault) {
  const auto& cfg = topology_.config();
  for (NodeId io : io_node_of_thread_) {
    if (io >= cfg.io_nodes) {
      throw std::invalid_argument("HierarchySimulator: bad io node for thread");
    }
  }
  if (policy_ == PolicyKind::kKarma) {
    karma_ = KarmaAllocator(
        std::move(hints),
        static_cast<std::uint64_t>(topology_.io_cache_blocks()) * cfg.io_nodes,
        static_cast<std::uint64_t>(topology_.storage_cache_blocks()) *
            cfg.storage_nodes);
  }
  io_caches_.reserve(cfg.io_nodes);
  for (std::size_t i = 0; i < cfg.io_nodes; ++i) {
    io_caches_.emplace_back(topology_.io_cache_blocks());
  }
  storage_caches_.reserve(cfg.storage_nodes);
  for (std::size_t i = 0; i < cfg.storage_nodes; ++i) {
    storage_caches_.emplace_back(topology_.storage_cache_blocks());
    if (policy_ == PolicyKind::kMqInclusive) {
      storage_mq_.emplace_back(topology_.storage_cache_blocks());
    }
  }
  io_dirty_.resize(cfg.io_nodes);
  storage_dirty_.resize(cfg.storage_nodes);
}

void HierarchySimulator::mark_io_dirty(NodeId io, BlockKey key) {
  io_dirty_[io].insert(key.packed());
}

double HierarchySimulator::on_io_eviction(NodeId io, BlockKey victim,
                                          SimulationResult& result) {
  // Write-back: a dirty victim is shipped down to its storage cache; a
  // clean one is simply dropped. A block may be cached dirty in several
  // I/O caches; only this cache's copy is being evicted.
  if (io_dirty_[io].erase(victim.packed()) == 0) return 0;
  double t = network_.demotion();
  ++result.writebacks;
  const auto& cfg = topology_.config();
  const NodeId node = striping_.storage_node_of(victim);
  if (cfg.storage_cache_enabled) {
    storage_insert(node, victim, result);
    storage_dirty_[node].insert(victim.packed());
  } else {
    t += disks_.service(node, striping_.lba_of(victim));
    ++result.disk_writes;
  }
  return t;
}



bool HierarchySimulator::storage_touch(NodeId node, BlockKey key) {
  // qos_owner() is 0 when partitioning is off, which is the MQ touch
  // default — the unpartitioned path is untouched.
  return policy_ == PolicyKind::kMqInclusive
             ? storage_mq_[node].touch(key, qos_owner())
             : storage_caches_[node].touch(key);
}

void HierarchySimulator::storage_insert(NodeId node, BlockKey key,
                                        SimulationResult& result) {
  std::optional<BlockKey> victim;
  if (qos_partitioning_) {
    const std::uint32_t owner = qos_owner();
    const bool was_resident = storage_contains(node, key);
    victim = policy_ == PolicyKind::kMqInclusive
                 ? storage_mq_[node].insert(key, owner)
                 : storage_caches_[node].insert(key, owner);
    qos_note_storage_insert(was_resident, victim.has_value(), result);
  } else {
    victim = policy_ == PolicyKind::kMqInclusive
                 ? storage_mq_[node].insert(key)
                 : storage_caches_[node].insert(key);
  }
  ++result.storage.fills;
  result.storage.bytes_filled += topology_.config().block_size;
  if (victim) {
    ++result.storage.evictions;
    if (topology_.config().model_writes) {
      // The write-back cost of a storage-level dirty eviction is accounted
      // by the next request via pending_writeback_cost_.
      if (storage_dirty_[node].erase(victim->packed()) != 0) {
        pending_writeback_cost_ +=
            disks_.peek_service(node, striping_.lba_of(*victim));
        ++pending_writeback_count_;
        disks_.advance_head(node, striping_.lba_of(*victim));
      }
    }
  }
}

void HierarchySimulator::io_insert(NodeId io, BlockKey key,
                                   SimulationResult& result,
                                   std::optional<BlockKey>* victim_out) {
  std::optional<BlockKey> victim;
  if (qos_partitioning_) {
    const bool was_resident = io_caches_[io].contains(key);
    victim = io_caches_[io].insert(key, qos_owner());
    qos_note_io_insert(io, was_resident, victim.has_value(), result);
  } else {
    victim = io_caches_[io].insert(key);
  }
  ++result.io.fills;
  result.io.bytes_filled += topology_.config().block_size;
  if (victim) ++result.io.evictions;
  if (victim_out) *victim_out = victim;
}

bool HierarchySimulator::storage_erase(NodeId node, BlockKey key) {
  if (qos_partitioning_) {
    // DEMOTE's exclusive erase frees the owning tenant's quota charge.
    const std::optional<std::uint32_t> owner =
        policy_ == PolicyKind::kMqInclusive
            ? storage_mq_[node].owner_of(key)
            : storage_caches_[node].owner_of(key);
    if (owner && *owner < qos_occ_.size() && qos_occ_[*owner] > 0) {
      --qos_occ_[*owner];
    }
  }
  return policy_ == PolicyKind::kMqInclusive
             ? storage_mq_[node].erase(key)
             : storage_caches_[node].erase(key);
}

bool HierarchySimulator::storage_contains(NodeId node, BlockKey key) const {
  return policy_ == PolicyKind::kMqInclusive
             ? storage_mq_[node].contains(key)
             : storage_caches_[node].contains(key);
}

void HierarchySimulator::after_storage_hit(BlockKey key, NodeId node,
                                           SimulationResult& result) {
  const auto& cfg = topology_.config();
  if (cfg.prefetch_depth == 0) return;
  const std::uint64_t stream_key =
      (static_cast<std::uint64_t>(node) << 40) | key.file;
  const auto it = stream_pos_.find(stream_key);
  const bool sequential =
      it != stream_pos_.end() &&
      key.block == it->second + cfg.storage_nodes;
  stream_pos_[stream_key] = key.block;
  if (!sequential) return;
  std::uint64_t staged_to = 0;
  bool staged = false;
  for (std::uint32_t d = 1; d <= cfg.prefetch_depth; ++d) {
    const std::uint64_t next =
        key.block + static_cast<std::uint64_t>(d) * cfg.storage_nodes;
    if (next >= striping_.file_blocks(key.file)) break;
    const BlockKey ahead{key.file, next};
    staged_to = striping_.lba_of(ahead);
    staged = true;
    if (!storage_contains(node, ahead)) {
      storage_insert(node, ahead, result);
      ++result.prefetches;
    }
  }
  if (staged) {
    disks_.advance_head(node, staged_to);
    last_lba_[node] = staged_to;
  }
}

double HierarchySimulator::disk_read(NodeId node, std::uint64_t lba,
                                     SimulationResult& result) {
  double t = 0;
  if (faults_.enabled()) {
    // Transient failures: every failed attempt still spins the disk and
    // then waits out an exponential backoff, all charged to the virtual
    // clock. The disk is the hierarchy's floor, so an exhausted retry
    // budget forces the read through instead of bypassing.
    std::uint32_t attempt = 0;
    while (faults_.disk_read_fails()) {
      ++result.faults.disk.transient_failures;
      if (attempt >= faults_.config().max_retries) {
        ++result.faults.exhausted_retries;
        break;
      }
      const double failed = disks_.service(node, lba);
      const double delay = faults_.backoff(attempt++);
      t += failed + delay;
      result.faults.disk.degraded_time += failed + delay;
    }
  }
  double svc = disks_.service(node, lba);
  if (faults_.enabled() && faults_.disk_read_slow()) {
    const double extra =
        svc * (faults_.config().slow_disk_multiplier - 1.0);
    svc += extra;
    ++result.faults.disk.slow_services;
    result.faults.disk.degraded_time += extra;
  }
  return t + svc;
}

void HierarchySimulator::after_disk_read(BlockKey key, NodeId node,
                                         std::uint64_t lba,
                                         SimulationResult& result,
                                         bool staging_allowed) {
  const auto& cfg = topology_.config();
  // Stream detection per (node, file): the previous block of this file on
  // this node must be the preceding local stripe. This survives other
  // threads' interleaved traffic, like a real per-file readahead window.
  const std::uint64_t stream_key =
      (static_cast<std::uint64_t>(node) << 40) | key.file;
  const auto it = stream_pos_.find(stream_key);
  const bool sequential =
      it != stream_pos_.end() &&
      key.block == it->second + cfg.storage_nodes;
  stream_pos_[stream_key] = key.block;
  last_lba_[node] = lba;
  if (!sequential || cfg.prefetch_depth == 0 || !cfg.storage_cache_enabled ||
      !staging_allowed) {
    return;
  }
  // Readahead: stage the next local stripes of this file (they live on the
  // same disk, `storage_nodes` file blocks apart). The staging transfer
  // overlaps with the stream, so no latency is charged to the requester.
  std::uint64_t staged_to = lba;
  for (std::uint32_t d = 1; d <= cfg.prefetch_depth; ++d) {
    const std::uint64_t next =
        key.block + static_cast<std::uint64_t>(d) * cfg.storage_nodes;
    if (next >= striping_.file_blocks(key.file)) break;
    const BlockKey ahead{key.file, next};
    staged_to = striping_.lba_of(ahead);
    if (!storage_contains(node, ahead)) {
      storage_insert(node, ahead, result);
      ++result.prefetches;
    }
  }
  // Staging streams the blocks under the already-positioned head; remember
  // the staged frontier so the stream keeps extending through the hits.
  if (staged_to != lba) {
    disks_.advance_head(node, staged_to);
    last_lba_[node] = staged_to;
  }
}

double HierarchySimulator::storage_level(BlockKey key, double now,
                                         SimulationResult& result) {
  const auto& cfg = topology_.config();
  const NodeId node = striping_.storage_node_of(key);
  double t = network_.io_storage_hop();
  // Outages and exhausted fabric-retry budgets bypass the storage cache
  // for this request: no lookup, no fill, no readahead staging.
  bool bypass = false;
  if (cfg.storage_cache_enabled && faults_.enabled()) {
    if (faults_.offline(FaultLayer::kStorage, node, now)) {
      bypass = true;
      ++result.faults.storage.bypasses;
    } else {
      // Transient storage-fabric failures: each failed attempt waits out
      // an exponential backoff (charged to the virtual clock) and retries
      // until the budget runs out, which falls through to disk.
      std::uint32_t attempt = 0;
      while (faults_.storage_read_fails()) {
        ++result.faults.storage.transient_failures;
        if (attempt >= faults_.config().max_retries) {
          ++result.faults.exhausted_retries;
          ++result.faults.storage.bypasses;
          bypass = true;
          break;
        }
        const double delay = faults_.backoff(attempt++);
        t += delay;
        result.faults.storage.degraded_time += delay;
      }
    }
  }
  if (cfg.storage_cache_enabled && !bypass) {
    ++result.storage.lookups;
    if (storage_touch(node, key)) {
      ++result.storage.hits;
      t += cfg.latency.storage_cache_hit;
      // A hit on a staged block continues the stream: keep the detector
      // and the readahead window moving.
      after_storage_hit(key, node, result);
      if (policy_ == PolicyKind::kDemoteLru) {
        // Exclusive caching: a block read through the storage cache moves
        // up to the client; keeping it below would duplicate it.
        storage_erase(node, key);
      }
      return t;
    }
  }
  const std::uint64_t lba = striping_.lba_of(key);
  t += disk_read(node, lba, result);
  ++result.disk_reads;
  if (cfg.storage_cache_enabled && !bypass &&
      (policy_ == PolicyKind::kLruInclusive ||
       policy_ == PolicyKind::kMqInclusive)) {
    // Inclusive fill: the block is retained below as well as above.
    storage_insert(node, key, result);
  }
  after_disk_read(key, node, lba, result, /*staging_allowed=*/!bypass);
  // DEMOTE-LRU deliberately does NOT insert on the read path: the storage
  // cache is populated by demotions only (plus re-reads via LRU above).
  return t;
}

std::uint32_t HierarchySimulator::service_extent_bulk(
    std::uint32_t thread, AccessEvent& ev, double& now, double& busy,
    const ScheduleQueue& queue, SimulationResult& result) {
  if (!extent_batching_ || ev.run_blocks <= 1) return 0;
  const auto& cfg = topology_.config();
  // Anything that makes per-block behaviour state-dependent in ways a run
  // cannot batch — fault decision streams, KARMA range classes, dirty-bit
  // marking, a deferred write-back charge pending against the next
  // request — falls back to the per-block reference.
  if (faults_.enabled() || policy_ == PolicyKind::kKarma ||
      (cfg.model_writes && ev.is_write) || pending_writeback_cost_ > 0) {
    return 0;
  }
  // Scheduler budget: the thread keeps servicing blocks inline only while
  // it would still be popped next, i.e. (clock, id) stays strictly below
  // the queue's minimum. The queue is untouched during the run, so its top
  // is a constant bound.
  const bool bounded = !queue.empty();
  const double bound_when = bounded ? queue.top().first : 0.0;
  const std::uint32_t bound_thread = bounded ? queue.top().second : 0;
  const auto within_budget = [&](double at) {
    return !bounded || at < bound_when ||
           (at == bound_when && thread < bound_thread);
  };

  if (cfg.io_cache_enabled) {
    // Run of I/O-cache hits, promoted block by block as each is serviced
    // (exactly what per-block service() does on a hit), so a budget cut or
    // a mid-run miss leaves the cache as the reference path would. Each
    // block is charged what service() charges an I/O hit, accumulated
    // block by block so the clocks match the reference bit for bit. The
    // touch doubles as the residency probe: one map find per serviced
    // block, none wasted when the budget cuts the run short.
    LruCache& cache = io_caches_[io_node_of_thread_[thread]];
    double per = cfg.latency.cpu_per_element *
                 static_cast<double>(ev.element_count);
    per += network_.compute_io_hop();
    per += cfg.latency.io_cache_hit;
    std::uint32_t m = 0;
    for (;;) {
      if (!cache.touch({ev.file, ev.block + m})) break;  // miss ends the run
      now += per;
      busy += per;
      ++m;
      if (m == ev.run_blocks || !within_budget(now)) break;
    }
    if (m == 0) return 0;
    result.accesses += m;
    result.elements += ev.element_count * m;
    result.io.lookups += m;
    result.io.hits += m;
    ev.block += m;
    ev.run_blocks -= m;
    return m;
  }

  if (!cfg.storage_cache_enabled) {
    // Cache-less hierarchy: the run streams straight off the disks.
    // Stream-detector bookkeeping is skipped: with the storage cache
    // disabled it can never stage a block or alter any charged time.
    //
    // Round-robin striping sends consecutive blocks to consecutive nodes,
    // with per-node LBAs one apart — so once the first `cycle` blocks have
    // positioned every disk, each remaining block costs hop + pure
    // transfer, the identical double every time. The steady loop charges
    // that constant per block (the same adds in the same order as the
    // reference), then settles heads and read counts in one pass per disk.
    double t1 = cfg.latency.cpu_per_element *
                static_cast<double>(ev.element_count);
    t1 += network_.compute_io_hop();
    const std::uint32_t cycle =
        static_cast<std::uint32_t>(striping_.storage_nodes());
    std::uint32_t m = 0;
    bool more = true;
    for (;;) {  // position each disk in the stripe cycle once
      const BlockKey key{ev.file, ev.block + m};
      const NodeId node = striping_.storage_node_of(key);
      double t2 = network_.io_storage_hop();
      t2 += disks_.service(node, striping_.lba_of(key));
      const double dt = t1 + t2;
      now += dt;
      busy += dt;
      ++m;
      if (m == ev.run_blocks || !within_budget(now)) {
        more = false;
        break;
      }
      if (m >= cycle) break;
    }
    if (more) {
      double t2 = network_.io_storage_hop();
      t2 += disks_.sequential_transfer();
      const double dt = t1 + t2;
      const std::uint32_t start = m;
      for (;;) {
        now += dt;
        busy += dt;
        ++m;
        if (m == ev.run_blocks || !within_budget(now)) break;
      }
      const std::uint64_t first = ev.block + start;
      const std::uint32_t len = m - start;
      const std::uint32_t full = len / cycle;
      const std::uint32_t rem = len % cycle;
      const std::uint32_t phase = static_cast<std::uint32_t>(first % cycle);
      for (std::uint32_t d = 0; d < cycle; ++d) {
        const std::uint32_t offset = (d + cycle - phase) % cycle;
        const std::uint32_t count = full + (offset < rem ? 1u : 0u);
        if (count == 0) continue;
        const std::uint64_t last =
            first + offset + (count - 1ull) * cycle;
        disks_.note_sequential_reads(
            static_cast<NodeId>(d), striping_.lba_of({ev.file, last}), count);
      }
    }
    result.accesses += m;
    result.elements += ev.element_count * m;
    result.disk_reads += m;
    ev.block += m;
    ev.run_blocks -= m;
    return m;
  }
  return 0;
}

double HierarchySimulator::service(std::uint32_t thread, double now,
                                   const AccessEvent& event,
                                   SimulationResult& result) {
  const auto& cfg = topology_.config();
  const BlockKey key{event.file, event.block};
  double t = cfg.latency.cpu_per_element *
             static_cast<double>(event.element_count);
  t += network_.compute_io_hop();
  ++result.accesses;
  result.elements += event.element_count;
  if (pending_writeback_cost_ > 0) {
    // Deferred storage-level write-backs are charged to the next request.
    t += pending_writeback_cost_;
    result.disk_writes += pending_writeback_count_;
    pending_writeback_cost_ = 0;
    pending_writeback_count_ = 0;
  }

  const NodeId io = io_node_of_thread_[thread];
  const bool write = cfg.model_writes && event.is_write;

  if (policy_ == PolicyKind::kKarma) {
    const CacheLevel level = karma_.level_of(key);
    const bool io_online =
        !faults_.enabled() || !faults_.offline(FaultLayer::kIo, io, now);
    if (level == CacheLevel::kIo && cfg.io_cache_enabled && io_online) {
      LruCache& cache = io_caches_[io];
      ++result.io.lookups;
      if (cache.touch(key)) {
        ++result.io.hits;
        return t + cfg.latency.io_cache_hit;
      }
      // KARMA pins this range at the I/O level: the storage cache is
      // bypassed entirely (exclusive placement).
      const NodeId node = striping_.storage_node_of(key);
      const std::uint64_t lba = striping_.lba_of(key);
      t += network_.io_storage_hop();
      t += disk_read(node, lba, result);
      ++result.disk_reads;
      io_insert(io, key, result);
      last_lba_[node] = lba;  // keep the stream detector coherent
      return t;
    }
    if (level == CacheLevel::kIo && cfg.io_cache_enabled && !io_online) {
      // The pinned I/O cache is dark: fall through straight to disk.
      ++result.faults.io.bypasses;
    }
    if (level == CacheLevel::kStorage && cfg.storage_cache_enabled) {
      const NodeId node = striping_.storage_node_of(key);
      if (!faults_.enabled() ||
          !faults_.offline(FaultLayer::kStorage, node, now)) {
        LruCache& cache = storage_caches_[node];
        t += network_.io_storage_hop();
        ++result.storage.lookups;
        if (cache.touch(key)) {
          ++result.storage.hits;
          return t + cfg.latency.storage_cache_hit;
        }
        const std::uint64_t lba = striping_.lba_of(key);
        t += disk_read(node, lba, result);
        ++result.disk_reads;
        if (cache.insert(key)) ++result.storage.evictions;
        ++result.storage.fills;
        result.storage.bytes_filled += cfg.block_size;
        after_disk_read(key, node, lba, result, /*staging_allowed=*/true);
        return t;
      }
      ++result.faults.storage.bypasses;
    }
    // Uncached range class (or a range whose pinned cache is offline):
    // straight to disk.
    const NodeId node = striping_.storage_node_of(key);
    const std::uint64_t lba = striping_.lba_of(key);
    t += network_.io_storage_hop();
    t += disk_read(node, lba, result);
    ++result.disk_reads;
    last_lba_[node] = lba;
    return t;
  }

  // LRU-inclusive and DEMOTE-LRU share the I/O-level flow.
  const bool io_online =
      !faults_.enabled() || !faults_.offline(FaultLayer::kIo, io, now);
  if (cfg.io_cache_enabled && io_online) {
    LruCache& cache = io_caches_[io];
    ++result.io.lookups;
    if (cache.touch(key)) {
      ++result.io.hits;
      if (write) mark_io_dirty(io, key);
      return t + cfg.latency.io_cache_hit;
    }
    t += storage_level(key, now, result);
    std::optional<BlockKey> victim;
    io_insert(io, key, result, &victim);
    if (write) mark_io_dirty(io, key);
    if (victim) {
      if (cfg.model_writes) t += on_io_eviction(io, *victim, result);
      if (policy_ == PolicyKind::kDemoteLru) {
        // Ship the evicted block down instead of dropping it
        // (Wong & Wilkes).
        storage_insert(striping_.storage_node_of(*victim), *victim, result);
        t += network_.demotion();
        ++result.demotions;
      }
    }
    return t;
  }
  if (cfg.io_cache_enabled && !io_online) ++result.faults.io.bypasses;
  return t + storage_level(key, now, result);
}

void HierarchySimulator::set_tenants(std::vector<std::uint32_t> tenant_of_thread,
                                     std::uint32_t tenant_count) {
  for (std::uint32_t tenant : tenant_of_thread) {
    if (tenant >= tenant_count) {
      throw std::invalid_argument("HierarchySimulator: tenant id out of range");
    }
  }
  tenant_of_thread_ = std::move(tenant_of_thread);
  tenant_count_ = tenant_of_thread_.empty() ? 0 : tenant_count;
}

void HierarchySimulator::tenant_settle(SimulationResult& result) {
  if (!tenant_scope_.open) return;
  TenantStats& slice = result.tenants[tenant_scope_.tenant];
  slice.accesses += result.accesses - tenant_scope_.accesses;
  slice.elements += result.elements - tenant_scope_.elements;
  slice.io_lookups += result.io.lookups - tenant_scope_.io_lookups;
  slice.io_hits += result.io.hits - tenant_scope_.io_hits;
  slice.storage_lookups += result.storage.lookups -
                           tenant_scope_.storage_lookups;
  slice.storage_hits += result.storage.hits - tenant_scope_.storage_hits;
  slice.disk_reads += result.disk_reads - tenant_scope_.disk_reads;
  slice.bytes_filled += result.io.bytes_filled + result.storage.bytes_filled -
                        tenant_scope_.bytes_filled;
  tenant_scope_.open = false;
}

void HierarchySimulator::tenant_open(std::uint32_t tenant,
                                     SimulationResult& result) {
  tenant_scope_.open = true;
  tenant_scope_.tenant = tenant;
  tenant_scope_.accesses = result.accesses;
  tenant_scope_.elements = result.elements;
  tenant_scope_.io_lookups = result.io.lookups;
  tenant_scope_.io_hits = result.io.hits;
  tenant_scope_.storage_lookups = result.storage.lookups;
  tenant_scope_.storage_hits = result.storage.hits;
  tenant_scope_.disk_reads = result.disk_reads;
  tenant_scope_.bytes_filled =
      result.io.bytes_filled + result.storage.bytes_filled;
}

void HierarchySimulator::tenant_switch(std::uint32_t thread,
                                       SimulationResult& result) {
  if (!tenants_enabled()) return;
  // Dynamic-share epoch boundaries are driven by the virtual access
  // counter and checked here because both cores funnel every scheduling
  // step through tenant_switch; one compare when the mode is off.
  if (qos_epoch_next_ != 0 && result.accesses >= qos_epoch_next_) {
    maybe_rebalance_qos(result);
  }
  const std::uint32_t tenant = tenant_of_thread_[thread];
  if (tenant_scope_.open && tenant_scope_.tenant == tenant) return;
  tenant_settle(result);
  tenant_open(tenant, result);
}

void HierarchySimulator::tenant_finish(SimulationResult& result) {
  if (!tenants_enabled()) return;
  tenant_settle(result);
  const std::size_t threads =
      std::min(tenant_of_thread_.size(), result.thread_time.size());
  for (std::size_t t = 0; t < threads; ++t) {
    result.tenants[tenant_of_thread_[t]].busy_time += result.thread_time[t];
  }
  if (qos_partitioning_) {
    const std::size_t n =
        std::min<std::size_t>(result.tenants.size(), qos_occ_peak_.size());
    for (std::size_t t = 0; t < n; ++t) {
      result.tenants[t].occupancy_peak = qos_occ_peak_[t];
    }
  }
}

std::uint32_t HierarchySimulator::qos_priority_of_thread(
    std::uint32_t thread) const {
  const QosConfig& qos = topology_.config().qos;
  if (!qos.enabled || qos.priorities.empty() || !tenants_enabled() ||
      thread >= tenant_of_thread_.size()) {
    return 1;
  }
  const std::uint32_t tenant = tenant_of_thread_[thread];
  return tenant < qos.priorities.size() ? qos.priorities[tenant] : 1;
}

void HierarchySimulator::qos_note_io_insert(NodeId, bool was_resident,
                                            bool evicted,
                                            SimulationResult& result) {
  const std::uint32_t owner = tenant_scope_.tenant;
  if (evicted) {
    // The victim came from the owner's own partition, so net occupancy is
    // unchanged and the eviction is the owner's — that is the attribution
    // guarantee partitioning buys.
    if (owner < result.tenants.size()) ++result.tenants[owner].io_evictions;
  } else if (!was_resident && owner < qos_occ_.size()) {
    if (++qos_occ_[owner] > qos_occ_peak_[owner]) {
      qos_occ_peak_[owner] = qos_occ_[owner];
    }
  }
}

void HierarchySimulator::qos_note_storage_insert(bool was_resident,
                                                 bool evicted,
                                                 SimulationResult& result) {
  const std::uint32_t owner = tenant_scope_.tenant;
  if (evicted) {
    if (owner < result.tenants.size()) {
      ++result.tenants[owner].storage_evictions;
    }
  } else if (!was_resident && owner < qos_occ_.size()) {
    if (++qos_occ_[owner] > qos_occ_peak_[owner]) {
      qos_occ_peak_[owner] = qos_occ_[owner];
    }
  }
}

void HierarchySimulator::apply_qos_partitions() {
  const QosConfig& qos = topology_.config().qos;
  qos_partitioning_ = qos.enabled && !qos.shares.empty() &&
                      tenants_enabled() && policy_ != PolicyKind::kKarma;
  qos_epoch_next_ = 0;
  if (!qos_partitioning_) {
    // Previous runs may have left partitions behind (set_tenants can
    // change between runs on one simulator): return to global caches.
    for (auto& c : io_caches_) c.set_partitions({});
    for (auto& c : storage_caches_) c.set_partitions({});
    for (auto& c : storage_mq_) c.set_partitions({});
    qos_io_quota_.clear();
    qos_storage_quota_.clear();
    qos_prev_misses_.clear();
    qos_occ_.clear();
    qos_occ_peak_.clear();
    return;
  }
  qos.validate();
  if (qos.shares.size() < tenant_count_) {
    throw std::invalid_argument(
        "HierarchySimulator: fewer QoS shares than tenants");
  }
  qos_io_quota_ =
      quota_partition(topology_.io_cache_blocks(), tenant_count_, qos.shares);
  qos_storage_quota_ = quota_partition(topology_.storage_cache_blocks(),
                                       tenant_count_, qos.shares);
  for (auto& c : io_caches_) c.set_partitions(qos_io_quota_);
  for (auto& c : storage_caches_) c.set_partitions(qos_storage_quota_);
  for (auto& c : storage_mq_) c.set_partitions(qos_storage_quota_);
  qos_prev_misses_.assign(tenant_count_, 0);
  qos_occ_.assign(tenant_count_, 0);
  qos_occ_peak_.assign(tenant_count_, 0);
  if (qos.dynamic_shares) qos_epoch_next_ = qos.epoch_accesses;
}

namespace {

/// Largest-remainder split of `amount` units by `weights` (no floor:
/// zero-weight entries get nothing unless every positive-weight entry has
/// been topped up). Deterministic: ties break by lower index.
std::vector<std::size_t> apportion_slack(
    std::size_t amount, const std::vector<std::uint64_t>& weights) {
  std::vector<std::size_t> out(weights.size(), 0);
  std::uint64_t total = 0;
  for (std::uint64_t w : weights) total += w;
  if (total == 0 || amount == 0) return out;
  std::vector<std::pair<std::uint64_t, std::size_t>> rem(weights.size());
  std::size_t granted = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const std::uint64_t scaled =
        static_cast<std::uint64_t>(amount) * weights[i];
    out[i] = static_cast<std::size_t>(scaled / total);
    rem[i] = {scaled % total, i};
    granted += out[i];
  }
  std::sort(rem.begin(), rem.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (std::size_t i = 0; granted < amount; ++i) {
    ++out[rem[i % rem.size()].second];
    ++granted;
  }
  return out;
}

}  // namespace

void HierarchySimulator::maybe_rebalance_qos(SimulationResult& result) {
  const auto& cfg = topology_.config();
  const QosConfig& qos = cfg.qos;
  while (qos_epoch_next_ <= result.accesses) {
    qos_epoch_next_ += qos.epoch_accesses;
  }
  // Per-tenant miss counters must be current at the boundary: settle the
  // open scope, then reopen it so attribution continues seamlessly.
  if (tenant_scope_.open) {
    const std::uint32_t cur = tenant_scope_.tenant;
    tenant_settle(result);
    tenant_open(cur, result);
  }
  // The marginal-gain signal: misses suffered during this epoch, per
  // tenant — the same observed-pressure signal KARMA uses per range
  // class, applied to capacity shares.
  std::vector<std::uint64_t> gain(tenant_count_, 0);
  std::uint64_t total_gain = 0;
  for (std::uint32_t t = 0; t < tenant_count_; ++t) {
    const TenantStats& s = result.tenants[t];
    const std::uint64_t misses = (s.io_lookups - s.io_hits) +
                                 (s.storage_lookups - s.storage_hits);
    gain[t] = misses - qos_prev_misses_[t];
    qos_prev_misses_[t] = misses;
    total_gain += gain[t];
  }
  if (total_gain == 0) return;  // no pressure anywhere: keep the quotas

  // Guaranteed floor: half the static quota (at least one block). The
  // slack above the floors is what the epoch's miss pressure contends for.
  const auto rebalanced = [&](const std::vector<std::size_t>& statiq,
                              std::size_t capacity) {
    std::vector<std::size_t> quota(tenant_count_);
    std::size_t floored = 0;
    for (std::uint32_t t = 0; t < tenant_count_; ++t) {
      quota[t] = std::max<std::size_t>(1, statiq[t] / 2);
      floored += quota[t];
    }
    if (floored >= capacity) return statiq;  // degenerate tiny cache
    const std::vector<std::size_t> extra =
        apportion_slack(capacity - floored, gain);
    for (std::uint32_t t = 0; t < tenant_count_; ++t) quota[t] += extra[t];
    return quota;
  };
  const std::vector<std::size_t> io_quota =
      rebalanced(qos_io_quota_, topology_.io_cache_blocks());
  const std::vector<std::size_t> st_quota =
      rebalanced(qos_storage_quota_, topology_.storage_cache_blocks());

  // A dirty trim victim is written straight down to disk in the background
  // (deferred to the next request, like storage-eviction write-backs): the
  // rebalance just ruled its tenant over-provisioned, so it is not
  // re-inserted below.
  const auto flush_dirty = [&](std::unordered_set<std::uint64_t>& dirty,
                               BlockKey victim) {
    if (!cfg.model_writes || dirty.erase(victim.packed()) == 0) return;
    ++result.writebacks;
    const NodeId node = striping_.storage_node_of(victim);
    const std::uint64_t lba = striping_.lba_of(victim);
    pending_writeback_cost_ += disks_.peek_service(node, lba);
    ++pending_writeback_count_;
    disks_.advance_head(node, lba);
  };
  const auto note_trim = [&](std::uint32_t t) {
    if (qos_occ_[t] > 0) --qos_occ_[t];
  };

  for (std::size_t i = 0; i < io_caches_.size(); ++i) {
    LruCache& cache = io_caches_[i];
    // Shrink before growing so the quota sum never exceeds capacity.
    for (std::uint32_t t = 0; t < tenant_count_; ++t) {
      if (io_quota[t] >= cache.partition_quota(t)) continue;
      for (BlockKey victim : cache.set_partition_quota(t, io_quota[t])) {
        ++result.io.evictions;
        if (t < result.tenants.size()) ++result.tenants[t].io_evictions;
        note_trim(t);
        flush_dirty(io_dirty_[i], victim);
      }
    }
    for (std::uint32_t t = 0; t < tenant_count_; ++t) {
      if (io_quota[t] > cache.partition_quota(t)) {
        cache.set_partition_quota(t, io_quota[t]);
      }
    }
  }
  const auto trim_storage = [&](NodeId node, auto& cache) {
    for (std::uint32_t t = 0; t < tenant_count_; ++t) {
      if (st_quota[t] >= cache.partition_quota(t)) continue;
      for (BlockKey victim : cache.set_partition_quota(t, st_quota[t])) {
        ++result.storage.evictions;
        if (t < result.tenants.size()) {
          ++result.tenants[t].storage_evictions;
        }
        note_trim(t);
        flush_dirty(storage_dirty_[node], victim);
      }
    }
    for (std::uint32_t t = 0; t < tenant_count_; ++t) {
      if (st_quota[t] > cache.partition_quota(t)) {
        cache.set_partition_quota(t, st_quota[t]);
      }
    }
  };
  for (std::size_t i = 0; i < storage_caches_.size(); ++i) {
    trim_storage(static_cast<NodeId>(i), storage_caches_[i]);
  }
  for (std::size_t i = 0; i < storage_mq_.size(); ++i) {
    trim_storage(static_cast<NodeId>(i), storage_mq_[i]);
  }
}

void HierarchySimulator::settle_trailing_writebacks(SimulationResult& result) {
  if (pending_writeback_count_ == 0 && pending_writeback_cost_ <= 0) return;
  result.exec_time += pending_writeback_cost_;
  result.disk_writes += pending_writeback_count_;
  pending_writeback_cost_ = 0;
  pending_writeback_count_ = 0;
}

void HierarchySimulator::prepare_run(const TraceSource& source) {
  if (source.thread_count() > io_node_of_thread_.size()) {
    throw std::invalid_argument("HierarchySimulator: more traces than threads");
  }
  if (tenants_enabled() &&
      tenant_of_thread_.size() < source.thread_count()) {
    throw std::invalid_argument(
        "HierarchySimulator: tenant map shorter than trace streams");
  }
  tenant_scope_ = TenantScope{};
  striping_ = Striping(topology_.config().storage_nodes, source.file_blocks());
  disks_ = DiskArray(topology_.config().storage_nodes,
                     topology_.config().disk, topology_.config().block_size);
  last_lba_.assign(topology_.config().storage_nodes,
                   std::numeric_limits<std::uint64_t>::max() - 1);
  stream_pos_.clear();
  for (auto& d : io_dirty_) d.clear();
  for (auto& d : storage_dirty_) d.clear();
  pending_writeback_cost_ = 0;
  pending_writeback_count_ = 0;
  for (auto& c : io_caches_) c.clear();
  for (auto& c : storage_caches_) c.clear();
  for (auto& c : storage_mq_) c.clear();
  apply_qos_partitions();
  faults_.reset();  // replay the identical fault stream on every run
}

SimulationResult HierarchySimulator::run(const TraceSource& source,
                                         double stop_at) {
  prepare_run(source);
  if (core_ == SimCoreKind::kEvent) {
    EventEngine engine(*this);
    return engine.run(source, stop_at);
  }
  return run_clock(source, stop_at);
}

SimulationResult HierarchySimulator::run_clock(const TraceSource& source,
                                               double stop_at) {
  SimulationResult result;
  if (tenants_enabled()) result.tenants.resize(tenant_count_);
  const std::size_t threads = io_node_of_thread_.size();
  std::vector<double> clock(threads, 0.0);
  std::vector<double> busy(threads, 0.0);
  const std::size_t streams = source.thread_count();

  // Virtual-clock observability lane: one per simulated run, so phase
  // spans from concurrently simulating cells land on distinct Chrome-trace
  // rows. Timestamps are the deterministic virtual clocks, not wall time.
  const bool tracing = obs::enabled();
  std::uint32_t lane = 0;
  if (tracing) {
    static std::atomic<std::uint32_t> next_lane{0};
    lane = next_lane.fetch_add(1);
  }

  stopped_ = false;
  for (std::size_t p = 0; p < source.phase_count() && !stopped_; ++p) {
    for (std::uint32_t rep = 0; rep < source.phase_repeat(p) && !stopped_;
         ++rep) {
      // All clocks are barrier-aligned here, so clock[0] is the phase start.
      const double phase_start = clock.empty() ? 0.0 : clock[0];
      // Min-clock-first scheduling with thread id tiebreak: deterministic
      // and approximates concurrent execution against the shared caches.
      // Each thread holds exactly one buffered event (its CursorPump);
      // resident
      // trace state is O(threads) regardless of trace length. Multi-block
      // extents (AccessEvent::run_blocks) are split here: every block is
      // one scheduling step, so interleaving against other threads is
      // identical to a per-block event stream.
      ScheduleQueue queue;
      std::vector<CursorPump> pumps;
      pumps.reserve(streams);
      for (std::uint32_t t = 0; t < streams; ++t) {
        pumps.emplace_back(source.open(p, t));
        if (pumps[t].prime()) queue.push({clock[t], t});
      }
      while (!queue.empty()) {
        const auto [when, t] = queue.top();
        queue.pop();
        double now = when;
        tenant_switch(t, result);
        // Inline continuation: keep stepping thread t while it would be
        // popped next anyway ((clock, id) strictly below the queue's
        // minimum). This reproduces push-then-pop ordering exactly while
        // skipping a heap operation per block — and is what lets the
        // extent fast path run a long resident run in one tight loop.
        bool finished = false;
        for (;;) {
          AccessEvent& ev = pumps[t].head();
          if (service_extent_bulk(t, ev, now, busy[t], queue, result) == 0) {
            AccessEvent head = ev;
            head.run_blocks = 1;
            const double dt = service(t, now, head, result);
            now += dt;
            busy[t] += dt;
            ++ev.block;
            // A hand-built run_blocks == 0 event degrades to one block
            // instead of underflowing the remaining-run counter.
            if (ev.run_blocks != 0) --ev.run_blocks;
          }
          if (now >= stop_at) {
            // The largest clock has reached the stop time: the full run's
            // exec_time can only be larger, so the caller has its answer.
            stopped_ = true;
            break;
          }
          if (pumps[t].exhausted() && !pumps[t].refill()) {
            finished = true;
            break;
          }
          if (!queue.empty() && !(ScheduleEntry{now, t} < queue.top())) break;
        }
        clock[t] = now;
        if (stopped_) break;
        if (!finished) queue.push({now, t});
      }
      // Bulk-synchronous barrier between nests / repetitions.
      const double barrier = *std::max_element(clock.begin(), clock.end());
      for (auto& c : clock) c = barrier;
      if (tracing) {
        obs::record_virtual_span(
            "sim.phase", "sim", lane, phase_start, barrier - phase_start,
            {{"phase", std::to_string(p)}, {"rep", std::to_string(rep)}});
      }
    }
  }

  result.exec_time = clock.empty() ? 0.0
                                   : *std::max_element(clock.begin(),
                                                       clock.end());
  result.thread_time = std::move(busy);
  tenant_finish(result);
  settle_trailing_writebacks(result);
  return result;
}

SimulationResult HierarchySimulator::run(const TraceProgram& trace,
                                         double stop_at) {
  return run(MaterializedTraceSource(trace), stop_at);
}

}  // namespace flo::storage

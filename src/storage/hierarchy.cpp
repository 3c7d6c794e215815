#include "storage/hierarchy.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

#include "obs/span.hpp"

namespace flo::storage {

Hierarchy::Hierarchy(StorageTopology topology, PolicyKind policy,
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

// --- run skeleton ---------------------------------------------------------

void Hierarchy::prepare_run(const TraceSource& source) {
  if (source.thread_count() > io_node_of_thread_.size()) {
    throw std::invalid_argument("HierarchySimulator: more traces than threads");
  }
  if (tenants_enabled() &&
      tenant_of_thread_.size() < source.thread_count()) {
    throw std::invalid_argument(
        "HierarchySimulator: tenant map shorter than trace streams");
  }
  const auto& cfg = topology_.config();
  tenant_scope_ = TenantScope{};
  striping_ = Striping(cfg.storage_nodes, source.file_blocks());
  disks_ = DiskArray(cfg.storage_nodes, cfg.disk, cfg.block_size);
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

SimulationResult Hierarchy::run(const TraceSource& source, RunState& state,
                                SimCoreKind core, const PhaseFn& phase) {
  prepare_run(source);
  state.result = SimulationResult{};
  if (tenants_enabled()) state.result.tenants.resize(tenant_count_);
  state.clock.assign(io_node_of_thread_.size(), 0.0);
  state.busy.assign(io_node_of_thread_.size(), 0.0);
  state.stopped = false;
  std::vector<double>& clock = state.clock;
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
  const auto latest = [&clock] {
    return clock.empty() ? 0.0 : *std::max_element(clock.begin(), clock.end());
  };

  std::vector<std::uint32_t> active;
  for (std::size_t p = 0; p < source.phase_count() && !state.stopped; ++p) {
    for (std::uint32_t rep = 0;
         rep < source.phase_repeat(p) && !state.stopped; ++rep) {
      // All clocks are barrier-aligned here, so clock[0] is the phase start.
      const double phase_start = clock.empty() ? 0.0 : clock[0];
      // Each thread holds exactly one buffered extent (its CursorPump), so
      // resident trace state is O(threads) regardless of trace length.
      state.pumps.clear();
      state.pumps.reserve(streams);
      active.clear();
      for (std::uint32_t t = 0; t < streams; ++t) {
        state.pumps.emplace_back(source.open(p, t));
        if (state.pumps[t].prime()) active.push_back(t);
      }
      phase(active);
      // Bulk-synchronous barrier between nests / repetitions.
      const double barrier = latest();
      for (auto& c : clock) c = barrier;
      if (tracing) {
        obs::SpanArgs args = {{"phase", std::to_string(p)},
                              {"rep", std::to_string(rep)}};
        if (core == SimCoreKind::kEvent) args.push_back({"core", "event"});
        obs::record_virtual_span("sim.phase", "sim", lane, phase_start,
                                 barrier - phase_start, std::move(args));
      }
    }
  }

  SimulationResult& result = state.result;
  result.exec_time = latest();
  result.thread_time = std::move(state.busy);
  tenant_finish(result);
  settle_trailing_writebacks(result);
  return std::move(result);
}

// --- per-request decisions ------------------------------------------------

Hierarchy::Issued Hierarchy::issue(NodeId io, BlockKey key,
                                   std::uint64_t elements, double now,
                                   SimulationResult& result) {
  const auto& cfg = topology_.config();
  ++result.accesses;
  result.elements += elements;
  double front = cfg.latency.cpu_per_element * static_cast<double>(elements);
  front += network_.compute_io_hop();
  if (pending_writeback_cost_ > 0) {
    // Deferred storage-level write-backs are charged to the next request.
    front += pending_writeback_cost_;
    result.disk_writes += pending_writeback_count_;
    pending_writeback_cost_ = 0;
    pending_writeback_count_ = 0;
  }

  const bool io_online =
      !faults_.enabled() || !faults_.offline(FaultLayer::kIo, io, now);
  if (policy_ != PolicyKind::kKarma) {
    if (cfg.io_cache_enabled && io_online) return {Route::kIo, front};
    // The I/O cache is dark: the storage level serves the request.
    if (cfg.io_cache_enabled) ++result.faults.io.bypasses;
    return {Route::kDirect, front};
  }
  // KARMA places each range class at exactly one level; a range whose
  // pinned cache is offline (or an unhinted range) goes straight to disk.
  const CacheLevel level = karma_.level_of(key);
  if (level == CacheLevel::kIo && cfg.io_cache_enabled) {
    if (io_online) return {Route::kKarmaIo, front};
    ++result.faults.io.bypasses;
  }
  if (level == CacheLevel::kStorage && cfg.storage_cache_enabled) {
    const NodeId node = striping_.storage_node_of(key);
    if (!faults_.enabled() ||
        !faults_.offline(FaultLayer::kStorage, node, now)) {
      return {Route::kKarmaStorage, front};
    }
    ++result.faults.storage.bypasses;
  }
  return {Route::kKarmaDirect, front};
}

bool Hierarchy::io_lookup(Route route, NodeId io, BlockKey key, bool write,
                          SimulationResult& result) {
  ++result.io.lookups;
  if (!io_caches_[io].touch(key)) return false;
  ++result.io.hits;
  if (route == Route::kIo && write) mark_io_dirty(io, key);
  return true;
}

bool Hierarchy::resolve_storage_faults(Route route, NodeId node,
                                       double issue_time, double& delay,
                                       SimulationResult& result) {
  if (route != Route::kIo && route != Route::kDirect) return false;
  if (!topology_.config().storage_cache_enabled || !faults_.enabled()) {
    return false;
  }
  if (faults_.offline(FaultLayer::kStorage, node, issue_time)) {
    ++result.faults.storage.bypasses;
    return true;
  }
  // Transient storage-fabric failures: each failed attempt waits out an
  // exponential backoff and retries until the budget runs out, which
  // falls through to disk.
  std::uint32_t attempt = 0;
  while (faults_.storage_read_fails()) {
    ++result.faults.storage.transient_failures;
    if (attempt >= faults_.config().max_retries) {
      ++result.faults.exhausted_retries;
      ++result.faults.storage.bypasses;
      return true;
    }
    const double d = faults_.backoff(attempt++);
    delay += d;
    result.faults.storage.degraded_time += d;
  }
  return false;
}

bool Hierarchy::uses_storage_cache(Route route, bool bypass) const {
  switch (route) {
    case Route::kKarmaStorage:
      return true;  // the outage was checked at issue
    case Route::kIo:
    case Route::kDirect:
      return topology_.config().storage_cache_enabled && !bypass;
    case Route::kKarmaIo:
    case Route::kKarmaDirect:
      break;  // KARMA bypasses the storage cache for these ranges entirely
  }
  return false;
}

bool Hierarchy::storage_lookup(NodeId node, BlockKey key,
                               SimulationResult& result) {
  ++result.storage.lookups;
  if (!storage_touch(node, key)) return false;
  ++result.storage.hits;
  return true;
}

void Hierarchy::after_storage_hit(Route route, NodeId node, BlockKey key,
                                  SimulationResult& result) {
  if (route == Route::kKarmaStorage) return;
  // A hit on a staged block continues the stream: keep the detector and
  // the readahead window moving.
  if (continues_stream(node, key)) stage_readahead(node, key, result);
  if (policy_ == PolicyKind::kDemoteLru) {
    // Exclusive caching: a block read through the storage cache moves up
    // to the client; keeping it below would duplicate it.
    storage_erase(node, key);
  }
}

double Hierarchy::disk_read(NodeId node, std::uint64_t lba,
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

void Hierarchy::after_demand_read(Route route, NodeId io, NodeId node,
                                  BlockKey key, bool bypass,
                                  SimulationResult& result) {
  const auto& cfg = topology_.config();
  switch (route) {
    case Route::kKarmaIo:
      io_insert(io, key, result);
      return;
    case Route::kKarmaDirect:
      return;
    case Route::kKarmaStorage:
      storage_insert(node, key, result);
      break;
    case Route::kIo:
    case Route::kDirect:
      // Inclusive fill: the block is retained below as well as above.
      // DEMOTE-LRU deliberately does not insert on the read path: its
      // storage cache is populated by demotions only.
      if (cfg.storage_cache_enabled && !bypass &&
          (policy_ == PolicyKind::kLruInclusive ||
           policy_ == PolicyKind::kMqInclusive)) {
        storage_insert(node, key, result);
      }
      break;
  }
  // Readahead is suppressed (stream bookkeeping kept) while the storage
  // cache is offline for this request.
  if (continues_stream(node, key) && cfg.storage_cache_enabled && !bypass) {
    stage_readahead(node, key, result);
  }
}

double Hierarchy::fill_io(NodeId io, BlockKey key, bool write, double t,
                          SimulationResult& result) {
  const std::optional<BlockKey> victim = io_insert(io, key, result);
  if (write) mark_io_dirty(io, key);
  if (victim) {
    if (topology_.config().model_writes) {
      t += on_io_eviction(io, *victim, result);
    }
    if (policy_ == PolicyKind::kDemoteLru) {
      // Ship the evicted block down instead of dropping it (Wong & Wilkes).
      storage_insert(striping_.storage_node_of(*victim), *victim, result);
      t += network_.demotion();
      ++result.demotions;
    }
  }
  return t;
}

void Hierarchy::settle_stream(FileId file, std::uint64_t first,
                              std::uint64_t len) {
  // Round-robin striping sends consecutive blocks to consecutive nodes
  // with per-node LBAs one apart, so each disk's share of the run is
  // every `cycle`-th block and ends at its last such block.
  const std::uint64_t cycle = striping_.storage_nodes();
  const std::uint64_t full = len / cycle;
  const std::uint64_t rem = len % cycle;
  const std::uint64_t phase = first % cycle;
  for (std::uint64_t d = 0; d < cycle; ++d) {
    const std::uint64_t offset = (d + cycle - phase) % cycle;
    const std::uint64_t count = full + (offset < rem ? 1u : 0u);
    if (count == 0) continue;
    const std::uint64_t last = first + offset + (count - 1) * cycle;
    disks_.note_sequential_reads(static_cast<NodeId>(d),
                                 striping_.lba_of({file, last}), count);
  }
}

// --- caches, write-back and readahead -------------------------------------

bool Hierarchy::storage_touch(NodeId node, BlockKey key) {
  // qos_owner() is 0 when partitioning is off, which is the MQ touch
  // default — the unpartitioned path is untouched.
  return policy_ == PolicyKind::kMqInclusive
             ? storage_mq_[node].touch(key, qos_owner())
             : storage_caches_[node].touch(key);
}

void Hierarchy::storage_insert(NodeId node, BlockKey key,
                               SimulationResult& result) {
  std::optional<BlockKey> victim;
  if (qos_partitioning_) {
    const std::uint32_t owner = qos_owner();
    const bool was_resident = storage_contains(node, key);
    victim = policy_ == PolicyKind::kMqInclusive
                 ? storage_mq_[node].insert(key, owner)
                 : storage_caches_[node].insert(key, owner);
    qos_note_insert(/*storage=*/true, was_resident, victim.has_value(),
                    result);
  } else {
    victim = policy_ == PolicyKind::kMqInclusive
                 ? storage_mq_[node].insert(key)
                 : storage_caches_[node].insert(key);
  }
  ++result.storage.fills;
  result.storage.bytes_filled += topology_.config().block_size;
  if (victim) {
    ++result.storage.evictions;
    if (topology_.config().model_writes &&
        storage_dirty_[node].erase(victim->packed()) != 0) {
      defer_writeback(node, striping_.lba_of(*victim));
    }
  }
}

std::optional<BlockKey> Hierarchy::io_insert(NodeId io, BlockKey key,
                                             SimulationResult& result) {
  std::optional<BlockKey> victim;
  if (qos_partitioning_) {
    const bool was_resident = io_caches_[io].contains(key);
    victim = io_caches_[io].insert(key, qos_owner());
    qos_note_insert(/*storage=*/false, was_resident, victim.has_value(),
                    result);
  } else {
    victim = io_caches_[io].insert(key);
  }
  ++result.io.fills;
  result.io.bytes_filled += topology_.config().block_size;
  if (victim) ++result.io.evictions;
  return victim;
}

bool Hierarchy::storage_erase(NodeId node, BlockKey key) {
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

bool Hierarchy::storage_contains(NodeId node, BlockKey key) const {
  return policy_ == PolicyKind::kMqInclusive
             ? storage_mq_[node].contains(key)
             : storage_caches_[node].contains(key);
}

void Hierarchy::mark_io_dirty(NodeId io, BlockKey key) {
  io_dirty_[io].insert(key.packed());
}

double Hierarchy::on_io_eviction(NodeId io, BlockKey victim,
                                 SimulationResult& result) {
  // Write-back: a dirty victim is shipped down to its storage cache; a
  // clean one is simply dropped. A block may be cached dirty in several
  // I/O caches; only this cache's copy is being evicted.
  if (io_dirty_[io].erase(victim.packed()) == 0) return 0;
  double t = network_.demotion();
  ++result.writebacks;
  const NodeId node = striping_.storage_node_of(victim);
  if (topology_.config().storage_cache_enabled) {
    storage_insert(node, victim, result);
    storage_dirty_[node].insert(victim.packed());
  } else {
    t += disks_.service(node, striping_.lba_of(victim));
    ++result.disk_writes;
  }
  return t;
}

void Hierarchy::defer_writeback(NodeId node, std::uint64_t lba) {
  pending_writeback_cost_ += disks_.peek_service(node, lba);
  ++pending_writeback_count_;
  disks_.advance_head(node, lba);
}

void Hierarchy::settle_trailing_writebacks(SimulationResult& result) {
  if (pending_writeback_count_ == 0 && pending_writeback_cost_ <= 0) return;
  result.exec_time += pending_writeback_cost_;
  result.disk_writes += pending_writeback_count_;
  pending_writeback_cost_ = 0;
  pending_writeback_count_ = 0;
}

bool Hierarchy::continues_stream(NodeId node, BlockKey key) {
  const auto& cfg = topology_.config();
  if (cfg.prefetch_depth == 0) return false;
  const std::uint64_t stream_key =
      (static_cast<std::uint64_t>(node) << 40) | key.file;
  const auto it = stream_pos_.find(stream_key);
  const bool sequential =
      it != stream_pos_.end() && key.block == it->second + cfg.storage_nodes;
  stream_pos_[stream_key] = key.block;
  return sequential;
}

void Hierarchy::stage_readahead(NodeId node, BlockKey key,
                                SimulationResult& result) {
  // The next local stripes of this file live on the same disk,
  // `storage_nodes` file blocks apart.
  const auto& cfg = topology_.config();
  std::optional<std::uint64_t> staged_to;
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
  // Staging streams the blocks under the already-positioned head.
  if (staged_to) disks_.advance_head(node, *staged_to);
}

// --- tenants and QoS ------------------------------------------------------

void Hierarchy::set_tenants(std::vector<std::uint32_t> tenant_of_thread,
                            std::uint32_t tenant_count) {
  for (std::uint32_t tenant : tenant_of_thread) {
    if (tenant >= tenant_count) {
      throw std::invalid_argument("HierarchySimulator: tenant id out of range");
    }
  }
  tenant_of_thread_ = std::move(tenant_of_thread);
  tenant_count_ = tenant_of_thread_.empty() ? 0 : tenant_count;
}

void Hierarchy::tenant_settle(SimulationResult& result) {
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

void Hierarchy::tenant_open(std::uint32_t tenant, SimulationResult& result) {
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

void Hierarchy::tenant_switch(std::uint32_t thread, SimulationResult& result) {
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

void Hierarchy::tenant_finish(SimulationResult& result) {
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

std::uint32_t Hierarchy::qos_priority_of_thread(std::uint32_t thread) const {
  const QosConfig& qos = topology_.config().qos;
  if (!qos.enabled || qos.priorities.empty() || !tenants_enabled() ||
      thread >= tenant_of_thread_.size()) {
    return 1;
  }
  const std::uint32_t tenant = tenant_of_thread_[thread];
  return tenant < qos.priorities.size() ? qos.priorities[tenant] : 1;
}

void Hierarchy::qos_note_insert(bool storage, bool was_resident, bool evicted,
                                SimulationResult& result) {
  const std::uint32_t owner = tenant_scope_.tenant;
  if (evicted) {
    // The victim came from the owner's own partition, so net occupancy is
    // unchanged and the eviction is the owner's — that is the attribution
    // guarantee partitioning buys.
    if (owner < result.tenants.size()) {
      TenantStats& slice = result.tenants[owner];
      ++(storage ? slice.storage_evictions : slice.io_evictions);
    }
  } else if (!was_resident && owner < qos_occ_.size()) {
    if (++qos_occ_[owner] > qos_occ_peak_[owner]) {
      qos_occ_peak_[owner] = qos_occ_[owner];
    }
  }
}

void Hierarchy::apply_qos_partitions() {
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

void Hierarchy::maybe_rebalance_qos(SimulationResult& result) {
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
    defer_writeback(striping_.storage_node_of(victim),
                    striping_.lba_of(victim));
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

}  // namespace flo::storage

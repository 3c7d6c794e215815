// The block-level storage hierarchy both simulation cores drive.
//
// Hierarchy owns every piece of model state — the I/O and storage caches
// (LRU or MQ), striping, the disks and the network, the seeded fault plan,
// KARMA's range classes, the dirty sets and the deferred write-back ledger,
// the readahead stream detector, the per-tenant attribution ledger and the
// QoS runtime — and makes each hierarchy decision in exactly one place:
// how a request is routed, what a fault does to it, what a hit or a disk
// read leaves behind in the caches, how an I/O-cache miss fills and what
// its victim costs, and how a run walks phases and finishes.
//
// The two cores are drivers on top of it. The clock core (simulator.cpp)
// services each block inside one scheduler step and sums its latency on
// the thread's clock; the event core (event_core.hpp) stages the same
// steps through a global event queue so shared servers and disks queue.
// A driver decides *when* each step happens and how its times add up
// (each core keeps its own floating-point association); the Hierarchy
// decides *what* each step does. That is why the event≡clock equivalence
// envelope (DESIGN.md §4g) holds by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/disk_model.hpp"
#include "storage/fault_model.hpp"
#include "storage/karma.hpp"
#include "storage/lru_cache.hpp"
#include "storage/mq_cache.hpp"
#include "storage/network_model.hpp"
#include "storage/policy.hpp"
#include "storage/sim_core.hpp"
#include "storage/stats.hpp"
#include "storage/striping.hpp"
#include "storage/topology.hpp"
#include "storage/trace_source.hpp"

namespace flo::storage {

/// Which path a block request takes below the compute node, fixed when it
/// is issued (Hierarchy::issue).
enum class Route : std::uint8_t {
  kIo,            ///< LRU/DEMOTE/MQ flow through the I/O cache
  kDirect,        ///< I/O cache disabled or offline: storage level only
  kKarmaIo,       ///< KARMA range pinned at the I/O level
  kKarmaStorage,  ///< KARMA range pinned at the storage level
  kKarmaDirect,   ///< KARMA uncached range (or pinned cache offline)
};

/// Per-run state a driver advances between Hierarchy calls.
struct RunState {
  SimulationResult result;
  std::vector<double> clock;      ///< per-thread virtual clocks
  std::vector<double> busy;       ///< per-thread busy time
  std::vector<CursorPump> pumps;  ///< the current phase's thread streams
  bool stopped = false;           ///< a thread clock reached the stop time
};

class Hierarchy {
 public:
  /// `io_node_of_thread[t]` is the I/O node serving thread t. `hints` are
  /// only consulted by the KARMA policy.
  Hierarchy(StorageTopology topology, PolicyKind policy,
            std::vector<NodeId> io_node_of_thread,
            std::vector<RangeHint> hints);

  /// Multi-tenant attribution (HierarchySimulator::set_tenants).
  void set_tenants(std::vector<std::uint32_t> tenant_of_thread,
                   std::uint32_t tenant_count);

  /// One phase repetition of a core: `active` lists the threads whose
  /// primed streams (RunState::pumps) hold events.
  using PhaseFn = std::function<void(const std::vector<std::uint32_t>&)>;

  /// Runs `source` from cold caches: resets all model state, then for each
  /// phase repetition opens every thread's stream, hands the active
  /// threads to `phase`, aligns all clocks at the bulk-synchronous barrier
  /// and records the `sim.phase` virtual span. Stops after the phase that
  /// sets `state.stopped`. Finishes with exec_time, thread_time, the
  /// tenant slices and the trailing write-back drain.
  SimulationResult run(const TraceSource& source, RunState& state,
                       SimCoreKind core, const PhaseFn& phase);

  const TopologyConfig& config() const { return topology_.config(); }
  NodeId io_node_of(std::uint32_t thread) const {
    return io_node_of_thread_[thread];
  }
  std::size_t thread_count() const { return io_node_of_thread_.size(); }
  const Striping& striping() const { return striping_; }
  const NetworkModel& network() const { return network_; }
  const DiskArray& disks() const { return disks_; }

  /// True when per-block behaviour depends only on cache and disk state:
  /// no fault decision stream and no KARMA range classes. The cores' run
  /// fast paths require it.
  bool blocks_batchable() const {
    return !faults_.enabled() && policy_ != PolicyKind::kKarma;
  }
  /// A deferred write-back charge is waiting for the next request.
  bool writeback_pending() const { return pending_writeback_cost_ > 0; }

  /// --- per-request decisions ---------------------------------------------
  struct Issued {
    Route route = Route::kIo;
    double front = 0;  ///< compute + compute→I/O hop + deferred write-backs
  };
  /// Issues one block request from I/O node `io` at virtual time `now`:
  /// counts it, charges the front cost — including any deferred storage
  /// write-backs, which the next request pays — and routes it, counting
  /// outage bypasses.
  Issued issue(NodeId io, BlockKey key, std::uint64_t elements, double now,
               SimulationResult& result);

  /// I/O-cache lookup for the kIo and kKarmaIo routes; a write hit on the
  /// kIo route marks the block dirty (KARMA hits never do).
  bool io_lookup(Route route, NodeId io, BlockKey key, bool write,
                 SimulationResult& result);
  /// Probes (and promotes) `key` in I/O cache `io` without counting it:
  /// the clock core's resident-run fast path does its own accounting.
  bool io_touch(NodeId io, BlockKey key) { return io_caches_[io].touch(key); }

  /// Storage-fabric fault resolution for a request arriving at storage
  /// node `node` (issued at `issue_time`, which resolves outage windows).
  /// Each failed attempt's backoff is added to `delay`, one at a time, so
  /// a core can accumulate it onto whichever sum it keeps. Returns true
  /// when the storage cache is bypassed: the node is offline or the retry
  /// budget ran out. Only the kIo and kDirect routes see fabric faults.
  bool resolve_storage_faults(Route route, NodeId node, double issue_time,
                              double& delay, SimulationResult& result);
  /// Whether the request consults the storage cache at all.
  bool uses_storage_cache(Route route, bool bypass) const;
  bool storage_lookup(NodeId node, BlockKey key, SimulationResult& result);
  /// Storage-hit epilogue (not for KARMA's pinned range): continues the
  /// readahead stream and, under DEMOTE, erases the block the client now
  /// holds exclusively.
  void after_storage_hit(Route route, NodeId node, BlockKey key,
                         SimulationResult& result);

  /// One fault-aware disk read: transient failures retried with backoff
  /// (charged to the caller) and slow-disk latency spikes. Reduces to
  /// DiskArray::service when faults are off.
  double disk_read(NodeId node, std::uint64_t lba, SimulationResult& result);
  /// Demand-read epilogue per route: the inclusive storage fill, KARMA's
  /// I/O or storage fill, and the stream detector with its readahead.
  void after_demand_read(Route route, NodeId io, NodeId node, BlockKey key,
                         bool bypass, SimulationResult& result);
  /// Fills I/O cache `io` after a kIo miss: marks a write dirty, writes a
  /// dirty victim back and, under DEMOTE, demotes the victim. Each charge
  /// is added to `t` in turn and the sum returned.
  double fill_io(NodeId io, BlockKey key, bool write, double t,
                 SimulationResult& result);

  /// --- cache-less streams (the cores' run fast paths) -------------------
  /// Positions the disk serving `key` and returns the read's service time.
  double stream_position(BlockKey key) {
    return disks_.service(striping_.storage_node_of(key),
                          striping_.lba_of(key));
  }
  /// Settles `len` blocks of `file` from block `first`, each read under an
  /// already-positioned head and already charged at the pure transfer
  /// time: moves each disk's head and counts its reads in one step.
  void settle_stream(FileId file, std::uint64_t first, std::uint64_t len);

  /// --- tenants ------------------------------------------------------------
  /// Attributes everything counted from now on to `thread`'s tenant, and
  /// crosses dynamic-share epoch boundaries. Both cores call it whenever
  /// the serviced thread changes; one compare when tenancy is off.
  void tenant_switch(std::uint32_t thread, SimulationResult& result);
  /// Disk-scheduling priority of a thread's tenant (>= 1; 1 when QoS or
  /// tenancy is off, or no priority vector was given).
  std::uint32_t qos_priority_of_thread(std::uint32_t thread) const;

 private:
  void prepare_run(const TraceSource& source);

  /// Storage-cache operations dispatch on the policy: LRU containers for
  /// every policy except kMqInclusive, which manages the storage level
  /// with the Multi-Queue algorithm. Inserts book fills/evictions into the
  /// per-layer stats of `result`.
  bool storage_touch(NodeId node, BlockKey key);
  void storage_insert(NodeId node, BlockKey key, SimulationResult& result);
  bool storage_erase(NodeId node, BlockKey key);
  bool storage_contains(NodeId node, BlockKey key) const;
  /// I/O-cache insert with fill/eviction accounting; returns the victim.
  std::optional<BlockKey> io_insert(NodeId io, BlockKey key,
                                    SimulationResult& result);

  /// Write-back bookkeeping (TopologyConfig::model_writes).
  void mark_io_dirty(NodeId io, BlockKey key);
  double on_io_eviction(NodeId io, BlockKey victim, SimulationResult& result);
  /// Books a dirty block's write to disk against the next request.
  void defer_writeback(NodeId node, std::uint64_t lba);
  /// End-of-run drain of the deferred write-back ledger: a trace ending in
  /// a write still pays its trailing write-back. Runs after the final
  /// barrier, so per-thread busy times are not touched — the drain is
  /// background device work.
  void settle_trailing_writebacks(SimulationResult& result);

  /// Readahead stream detector: records `key` as the latest block of its
  /// (node, file) stream and reports whether it continues that stream
  /// (the previous block was the preceding local stripe). Per-file
  /// streams survive other threads' interleaved traffic. Always false
  /// without readahead, which is the detector's only reader.
  bool continues_stream(NodeId node, BlockKey key);
  /// Stages the next `prefetch_depth` local stripes of `key`'s file into
  /// storage cache `node`. The transfer overlaps with the stream, so no
  /// latency is charged to the requester.
  void stage_readahead(NodeId node, BlockKey key, SimulationResult& result);

  /// --- tenant QoS (TopologyConfig::qos, DESIGN.md §4k) ------------------
  /// The tenant charged for the block being serviced right now: the open
  /// attribution scope's tenant while partitioning, else 0.
  std::uint32_t qos_owner() const {
    return qos_partitioning_ ? tenant_scope_.tenant : 0;
  }
  /// Applies (or removes) per-tenant partitions on every cache; called
  /// from prepare_run after the caches are cleared.
  void apply_qos_partitions();
  /// Dynamic-share epoch boundary: every qos.epoch_accesses block
  /// requests, reassigns each cache's slack above the guaranteed floors in
  /// proportion to the misses each tenant suffered during the epoch.
  void maybe_rebalance_qos(SimulationResult& result);
  /// Per-tenant eviction/occupancy bookkeeping for one partitioned insert;
  /// `storage` picks the layer the eviction is charged to.
  void qos_note_insert(bool storage, bool was_resident, bool evicted,
                       SimulationResult& result);

  /// --- per-tenant attribution ledger ------------------------------------
  /// Counter deltas are attributed scope-to-scope: tenant_switch settles
  /// everything incremented since the previous switch into the previous
  /// scope's tenant and snapshots the attributed aggregates.
  bool tenants_enabled() const { return !tenant_of_thread_.empty(); }
  /// Settles the open scope's counter deltas into its tenant's slice.
  void tenant_settle(SimulationResult& result);
  /// Opens a fresh attribution scope for `tenant` (snapshotting the
  /// aggregates); the QoS rebalancer settles and reopens at an epoch
  /// boundary without losing attribution.
  void tenant_open(std::uint32_t tenant, SimulationResult& result);
  /// Settles the open scope (if any) and fills per-tenant busy_time from
  /// result.thread_time; called once per run after the final barrier.
  void tenant_finish(SimulationResult& result);

  struct TenantScope {
    bool open = false;
    std::uint32_t tenant = 0;
    std::uint64_t accesses = 0;
    std::uint64_t elements = 0;
    std::uint64_t io_lookups = 0;
    std::uint64_t io_hits = 0;
    std::uint64_t storage_lookups = 0;
    std::uint64_t storage_hits = 0;
    std::uint64_t disk_reads = 0;
    std::uint64_t bytes_filled = 0;
  };

  StorageTopology topology_;
  PolicyKind policy_;
  std::vector<NodeId> io_node_of_thread_;
  KarmaAllocator karma_;
  NetworkModel network_;
  /// Seeded fault decision stream (topology_.config().fault); rewound at
  /// the start of every run so repeated runs replay identical faults.
  FaultPlan faults_;

  std::vector<LruCache> io_caches_;       ///< one per I/O node
  std::vector<LruCache> storage_caches_;  ///< one per storage node
  std::vector<MqCache> storage_mq_;       ///< used by kMqInclusive
  Striping striping_;
  DiskArray disks_;
  /// Dirty-block sets per layer (packed keys), used when model_writes.
  std::vector<std::unordered_set<std::uint64_t>> io_dirty_;
  std::vector<std::unordered_set<std::uint64_t>> storage_dirty_;
  double pending_writeback_cost_ = 0;  ///< charged to the next request
  std::uint64_t pending_writeback_count_ = 0;
  /// Per-(node, file) last block index — the readahead stream detector.
  std::unordered_map<std::uint64_t, std::uint64_t> stream_pos_;

  /// Multi-tenant attribution state (empty tenant_of_thread_ = off).
  std::vector<std::uint32_t> tenant_of_thread_;
  std::uint32_t tenant_count_ = 0;
  TenantScope tenant_scope_;

  /// --- tenant QoS runtime state (prepare_run resets all of it) ----------
  /// Cache partitioning: on when qos.enabled, qos.shares is non-empty,
  /// tenancy is on and the policy is not KARMA (whose range classes
  /// already partition capacity).
  bool qos_partitioning_ = false;
  /// Static quotas per cache capacity class (io / storage), recomputed
  /// each run; the dynamic rebalancer's floors derive from these.
  std::vector<std::size_t> qos_io_quota_;
  std::vector<std::size_t> qos_storage_quota_;
  std::uint64_t qos_epoch_next_ = 0;  ///< next rebalance boundary (accesses)
  /// Miss totals per tenant at the previous epoch boundary, for deltas.
  std::vector<std::uint64_t> qos_prev_misses_;
  /// Per-tenant resident-block totals across all caches, and their peaks
  /// (reported as TenantStats::occupancy_peak).
  std::vector<std::uint64_t> qos_occ_;
  std::vector<std::uint64_t> qos_occ_peak_;
};

}  // namespace flo::storage

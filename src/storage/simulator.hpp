// Trace-driven hierarchical storage-cache simulator.
//
// Threads issue block requests that flow compute node -> I/O-node cache ->
// storage-node cache -> disk. Caches are shared according to the topology's
// grouping; striping decides which storage node (and disk LBA) serves each
// block. Threads advance on private virtual clocks; the scheduler always
// steps the thread with the smallest clock, so interleaving (and therefore
// shared-cache contention) is modeled deterministically. A barrier aligns
// all clocks between phases (loop nests), matching the bulk-synchronous
// structure of the MPI-IO applications in the paper.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "storage/hierarchy.hpp"

namespace flo::storage {

/// Facade over the two simulation cores, which drive one storage::Hierarchy
/// (storage/hierarchy.hpp) that owns every cache, disk, fault and tenant
/// and makes every hierarchy decision. The clock core (simulator.cpp) is
/// the golden reference: min-clock-first stepping with the extent fast
/// paths. The event core (storage/event_core.hpp) stages requests through
/// a global discrete-event queue and adds queueing at shared components.
/// set_core selects which one run() drives (default: the clock core).
class HierarchySimulator {
 public:
  /// `io_node_of_thread[t]` is the I/O node serving thread t (derived from
  /// the thread -> compute-node mapping by the caller). `hints` are only
  /// consulted by the KARMA policy.
  HierarchySimulator(StorageTopology topology, PolicyKind policy,
                     std::vector<NodeId> io_node_of_thread,
                     std::vector<RangeHint> hints = {});

  /// Simulates the source's event streams from cold caches and returns
  /// aggregate results. Events are pulled one at a time through per-thread
  /// cursors, so memory stays O(threads) when the source generates lazily.
  ///
  /// `stop_at` bounds the run in virtual seconds: once the largest thread
  /// clock reaches it, the run returns early with a partial result whose
  /// exec_time is >= `stop_at`, and stopped() reports true. Because
  /// exec_time is the largest clock plus the trailing write-back, a run
  /// whose full exec_time is below `stop_at` never trips the check and is
  /// bit-identical to an unbounded one (the default, +inf). Searches that
  /// only need to know whether a candidate beats a known time use this to
  /// abandon losers early (baselines/dimension_reindexing.hpp).
  SimulationResult run(const TraceSource& source,
                       double stop_at = kNoStopTime);

  /// Convenience wrapper: simulates a materialized trace (adapts it
  /// through MaterializedTraceSource; behaviour is bit-identical).
  SimulationResult run(const TraceProgram& trace,
                       double stop_at = kNoStopTime);

  static constexpr double kNoStopTime =
      std::numeric_limits<double>::infinity();

  /// True when the last run() reached its `stop_at` and returned early.
  bool stopped() const { return stopped_; }

  /// Extent fast paths on/off (default: the FLO_EXTENTS environment knob,
  /// on unless set to "0"). Off forces every multi-block event through the
  /// per-block reference path; results are bit-identical either way — the
  /// switch exists so the equivalence suite and benchmarks can pin a path.
  void set_extent_batching(bool enabled) { extent_batching_ = enabled; }

  /// Simulation core selection (default: clock). The clock core is the
  /// golden reference; the event core models queueing at shared components
  /// and is held to it by the event-vs-clock fuzz oracle inside the
  /// equivalence envelope (DESIGN.md §4g).
  void set_core(SimCoreKind core) { core_ = core; }
  SimCoreKind core() const { return core_; }

  /// Multi-tenant attribution (DESIGN.md §4j): `tenant_of_thread[t]` names
  /// the tenant that owns simulator thread t (interleaver slot t when the
  /// source is an InterleavedTraceSource). When set, run() sizes
  /// SimulationResult::tenants to `tenant_count` and attributes each
  /// counter delta to the tenant whose thread is being serviced; aggregate
  /// fields are untouched, so an N=1 tenant map leaves everything but the
  /// `tenants` vector bit-identical to an unattributed run (pinned by the
  /// tenant-isolation fuzz oracle). Pass an empty map to turn it off.
  void set_tenants(std::vector<std::uint32_t> tenant_of_thread,
                   std::uint32_t tenant_count);

 private:
  Hierarchy hierarchy_;
  bool extent_batching_ = extents_enabled();
  SimCoreKind core_ = SimCoreKind::kClock;
  bool stopped_ = false;  ///< the last run() hit its stop time
};

}  // namespace flo::storage

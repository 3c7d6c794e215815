// Discrete-event simulation core (SimCoreKind::kEvent).
//
// Where the clock core advances each thread's private virtual clock through
// a request's *total* latency in one scheduler step, the event core stages
// every block request through the hierarchy as discrete events on a global
// EventQueue: arrive at the I/O node, occupy its cache server, hop to the
// storage node, occupy its server, queue at the disk, complete. Shared
// components therefore model *contention*: each I/O and storage node is a
// FIFO server, each disk dispatches its queued requests with an
// elevator-style (LOOK) head scheduler, and sequential readahead is staged
// asynchronously — free for the requester (it overlaps with compute), but
// the transfer occupies the disk, so contending demand reads pay for it as
// queueing delay.
//
// The engine is a driver over storage::Hierarchy (hierarchy.hpp): every
// hierarchy decision — routing, fault resolution, fills, victims,
// readahead, tenants — is the Hierarchy's, made by the same code the clock
// core calls. The engine adds only the event staging, the service queues
// and its own time sums. That is what makes the equivalence envelope
// (DESIGN.md §4g) hold by construction: with one thread, prefetch off and
// faults off, no server ever queues, the stage sequence per block
// collapses to the clock core's call order, and all integer per-layer
// stats are bit-identical (times differ only by how the stage sums
// associate, bounded by ulps — the event-vs-clock fuzz oracle pins both
// properties).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "storage/disk_sched.hpp"
#include "storage/event_queue.hpp"
#include "storage/hierarchy.hpp"

namespace flo::obs {
class Gauge;
}

namespace flo::storage {

class EventEngine {
 public:
  /// Drives `hierarchy`, which must outlive the engine.
  explicit EventEngine(Hierarchy& hierarchy);

  /// Runs the source from cold caches to completion, or until a thread
  /// completes at or past `stop_at` (HierarchySimulator::run documents
  /// the contract).
  SimulationResult run(const TraceSource& source, double stop_at);
  bool stopped() const { return state_.stopped; }

 private:
  /// One in-flight block request. Threads are synchronous (one outstanding
  /// request each), so the pool is indexed by thread id.
  struct Request {
    BlockKey key;
    std::uint64_t elements = 0;
    bool is_write = false;
    Route route = Route::kIo;
    NodeId io = 0;            ///< serving I/O node
    NodeId node = 0;          ///< serving storage node (== disk id)
    std::uint64_t lba = 0;
    bool bypass = false;      ///< storage cache bypassed (outage/retries)
    bool faults_resolved = false;  ///< storage-arrival fault logic done
    double issue = 0;         ///< issue time (busy accounting, outage clock)
    double arrival = 0;       ///< arrival time at the queue it waits in
  };

  /// Per-disk service queue. The queue + sweep state lives in the
  /// pluggable DiskScheduler (disk_sched.hpp): LOOK by default,
  /// fcfs/priority under QosConfig.
  struct DiskState {
    DiskScheduler sched;
    bool busy = false;
    /// The asynchronous-readahead frontier: staging streams blocks under
    /// the head after a demand read departs, so the next dispatch cannot
    /// start before this. Free for the requester (overlaps its compute),
    /// paid as queueing delay by whoever needs the disk next.
    double free_at = 0;
  };

  /// Closed-form fast path for a cache-less, fault-free, single-stream
  /// phase: positions each disk of the stripe cycle once per extent, then
  /// charges the steady per-block cost in one multiplication — O(extents)
  /// instead of O(blocks), with identical integer stats.
  void run_phase_analytic(std::uint32_t thread);
  bool analytic_eligible() const;
  /// Drains the event queue for one phase repetition.
  void run_phase(const std::vector<std::uint32_t>& active);

  void issue_block(std::uint32_t thread, double now);
  void arrive_io(std::uint32_t thread, double now);
  void serve_io(std::uint32_t thread, double now);
  void io_done(std::uint32_t thread, double now);
  void arrive_storage(std::uint32_t thread, double now);
  void serve_storage(std::uint32_t thread, double now);
  void storage_done(std::uint32_t thread, double now);
  void enqueue_disk(std::uint32_t thread, double now);
  void dispatch_disk(std::uint32_t thread, double now);
  void disk_done(std::uint32_t thread, double now);
  /// A request leaves the storage level: a kIo request fills its I/O
  /// cache (Hierarchy::fill_io) first, then the thread completes.
  void depart_below_io(std::uint32_t thread, double now);
  void complete(std::uint32_t thread, double now);

  void note_wait(QueueLayerStats& layer, std::size_t depth_after_push);
  void charge_wait(QueueLayerStats& layer, double waited);

  Hierarchy& h_;
  RunState state_;            ///< clocks are per-thread completion times
  EventQueue queue_;
  std::vector<Request> req_;  ///< indexed by thread
  double stop_at_ = 0;        ///< run()'s stop time

  std::vector<std::deque<std::uint32_t>> io_wait_;
  std::vector<char> io_busy_;
  std::vector<std::deque<std::uint32_t>> storage_wait_;
  std::vector<char> storage_busy_;
  std::vector<DiskState> disk_;

  /// Queue-depth gauges (null when obs is disabled): last-writer-wins
  /// indicative values, never compared by tests.
  obs::Gauge* io_depth_gauge_ = nullptr;
  obs::Gauge* storage_depth_gauge_ = nullptr;
  obs::Gauge* disk_depth_gauge_ = nullptr;
};

}  // namespace flo::storage

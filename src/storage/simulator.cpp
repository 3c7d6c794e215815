#include "storage/simulator.hpp"

#include <functional>
#include <queue>
#include <utility>

#include "storage/event_core.hpp"

namespace flo::storage {

namespace {

/// The clock core: min-clock-first scheduling with inline continuation and
/// the extent fast paths. Each block is serviced atomically inside one
/// scheduler step and its latency summed onto the thread's clock.
class ClockCore {
 public:
  ClockCore(Hierarchy& hierarchy, bool extent_batching)
      : h_(hierarchy), extent_batching_(extent_batching) {}

  SimulationResult run(const TraceSource& source, double stop_at);
  bool stopped() const { return state_.stopped; }

 private:
  /// Min-clock-first scheduler order: (virtual clock, thread id).
  using ScheduleEntry = std::pair<double, std::uint32_t>;
  using ScheduleQueue =
      std::priority_queue<ScheduleEntry, std::vector<ScheduleEntry>,
                          std::greater<ScheduleEntry>>;

  void run_phase(const std::vector<std::uint32_t>& active, double stop_at);

  /// Services the head block of `event` (its `run_blocks` is ignored),
  /// issued by `thread` at virtual time `now`; returns elapsed seconds.
  /// This is the golden per-block reference path.
  double service(std::uint32_t thread, double now, const AccessEvent& event);

  /// Everything below the I/O cache: the storage hop, fabric faults, the
  /// storage cache and the disk. The charges are added to `t` in turn.
  double below_io(Route route, NodeId io, BlockKey key, double now, double t);

  /// Extent fast path: services as many leading blocks of `ev` as stay
  /// within (a) a bulk-eligible flow — a resident I/O-cache run, or a
  /// cache-less disk stream — and (b) the scheduler budget (the thread
  /// must remain the strict (clock, id) minimum against `queue`).
  /// Advances `now`, `busy` and `ev` in place and returns the number of
  /// blocks consumed; 0 means the head block must take the per-block
  /// reference path. Charged times and recorded stats are bit-identical
  /// to servicing each block through service().
  std::uint32_t service_extent_bulk(std::uint32_t thread, AccessEvent& ev,
                                    double& now, double& busy,
                                    const ScheduleQueue& queue);

  Hierarchy& h_;
  bool extent_batching_;
  RunState state_;
};

SimulationResult ClockCore::run(const TraceSource& source, double stop_at) {
  return h_.run(source, state_, SimCoreKind::kClock,
                [&](const std::vector<std::uint32_t>& active) {
                  run_phase(active, stop_at);
                });
}

void ClockCore::run_phase(const std::vector<std::uint32_t>& active,
                          double stop_at) {
  std::vector<double>& clock = state_.clock;
  std::vector<double>& busy = state_.busy;
  SimulationResult& result = state_.result;
  // Min-clock-first scheduling with thread id tiebreak: deterministic and
  // approximates concurrent execution against the shared caches.
  // Multi-block extents (AccessEvent::run_blocks) are split here: every
  // block is one scheduling step, so interleaving against other threads is
  // identical to a per-block event stream.
  ScheduleQueue queue;
  for (std::uint32_t t : active) queue.push({clock[t], t});
  while (!queue.empty()) {
    const auto [when, t] = queue.top();
    queue.pop();
    double now = when;
    h_.tenant_switch(t, result);
    // Inline continuation: keep stepping thread t while it would be popped
    // next anyway ((clock, id) strictly below the queue's minimum). This
    // reproduces push-then-pop ordering exactly while skipping a heap
    // operation per block — and is what lets the extent fast path run a
    // long resident run in one tight loop.
    CursorPump& pump = state_.pumps[t];
    bool finished = false;
    for (;;) {
      AccessEvent& ev = pump.head();
      if (service_extent_bulk(t, ev, now, busy[t], queue) == 0) {
        const double dt = service(t, now, ev);
        now += dt;
        busy[t] += dt;
        ++ev.block;
        // A hand-built run_blocks == 0 event degrades to one block instead
        // of underflowing the remaining-run counter.
        if (ev.run_blocks != 0) --ev.run_blocks;
      }
      if (now >= stop_at) {
        // The largest clock has reached the stop time: the full run's
        // exec_time can only be larger, so the caller has its answer.
        state_.stopped = true;
        break;
      }
      if (pump.exhausted() && !pump.refill()) {
        finished = true;
        break;
      }
      if (!queue.empty() && !(ScheduleEntry{now, t} < queue.top())) break;
    }
    clock[t] = now;
    if (state_.stopped) return;
    if (!finished) queue.push({now, t});
  }
}

double ClockCore::service(std::uint32_t thread, double now,
                          const AccessEvent& event) {
  SimulationResult& result = state_.result;
  const auto& cfg = h_.config();
  const BlockKey key{event.file, event.block};
  const NodeId io = h_.io_node_of(thread);
  const bool write = cfg.model_writes && event.is_write;
  const auto [route, front] =
      h_.issue(io, key, event.element_count, now, result);
  double t = front;
  if ((route == Route::kIo || route == Route::kKarmaIo) &&
      h_.io_lookup(route, io, key, write, result)) {
    return t + cfg.latency.io_cache_hit;
  }
  switch (route) {
    case Route::kIo:
      // The lower levels are summed on their own and then added, the
      // golden association of the LRU/MQ/DEMOTE flow.
      t += below_io(route, io, key, now, 0.0);
      return h_.fill_io(io, key, write, t, result);
    case Route::kDirect:
      return t + below_io(route, io, key, now, 0.0);
    case Route::kKarmaIo:
    case Route::kKarmaStorage:
    case Route::kKarmaDirect:
      break;
  }
  // KARMA's routes keep one running sum.
  return below_io(route, io, key, now, t);
}

double ClockCore::below_io(Route route, NodeId io, BlockKey key, double now,
                           double t) {
  SimulationResult& result = state_.result;
  const NodeId node = h_.striping().storage_node_of(key);
  t += h_.network().io_storage_hop();
  const bool bypass = h_.resolve_storage_faults(route, node, now, t, result);
  if (h_.uses_storage_cache(route, bypass) &&
      h_.storage_lookup(node, key, result)) {
    t += h_.config().latency.storage_cache_hit;
    h_.after_storage_hit(route, node, key, result);
    return t;
  }
  t += h_.disk_read(node, h_.striping().lba_of(key), result);
  ++result.disk_reads;
  h_.after_demand_read(route, io, node, key, bypass, result);
  return t;
}

std::uint32_t ClockCore::service_extent_bulk(std::uint32_t thread,
                                             AccessEvent& ev, double& now,
                                             double& busy,
                                             const ScheduleQueue& queue) {
  if (!extent_batching_ || ev.run_blocks <= 1) return 0;
  SimulationResult& result = state_.result;
  const auto& cfg = h_.config();
  // Anything that makes per-block behaviour state-dependent in ways a run
  // cannot batch — fault decision streams, KARMA range classes, dirty-bit
  // marking, a deferred write-back charge pending against the next
  // request — falls back to the per-block reference.
  if (!h_.blocks_batchable() || (cfg.model_writes && ev.is_write) ||
      h_.writeback_pending()) {
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
  const NetworkModel& network = h_.network();
  double t1 = cfg.latency.cpu_per_element *
              static_cast<double>(ev.element_count);
  t1 += network.compute_io_hop();

  if (cfg.io_cache_enabled) {
    // Run of I/O-cache hits, promoted block by block as each is serviced
    // (exactly what per-block service() does on a hit), so a budget cut or
    // a mid-run miss leaves the cache as the reference path would. Each
    // block is charged what service() charges an I/O hit, accumulated
    // block by block so the clocks match the reference bit for bit. The
    // touch doubles as the residency probe: one map find per serviced
    // block, none wasted when the budget cuts the run short.
    const NodeId io = h_.io_node_of(thread);
    const double per = t1 + cfg.latency.io_cache_hit;
    std::uint32_t m = 0;
    for (;;) {
      if (!h_.io_touch(io, {ev.file, ev.block + m})) break;  // miss ends it
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
  if (cfg.storage_cache_enabled) return 0;

  // Cache-less hierarchy: the run streams straight off the disks. Stream-
  // detector bookkeeping is skipped: with the storage cache disabled it can
  // never stage a block or alter any charged time.
  //
  // Once the first `cycle` blocks have positioned every disk of the stripe
  // cycle, each remaining block costs hop + pure transfer, the identical
  // double every time. The steady loop charges that constant per block
  // (the same adds in the same order as the reference), then settles heads
  // and read counts in one pass per disk.
  const std::uint32_t cycle =
      static_cast<std::uint32_t>(h_.striping().storage_nodes());
  std::uint32_t m = 0;
  for (;;) {  // position each disk in the stripe cycle once
    double t2 = network.io_storage_hop();
    t2 += h_.stream_position({ev.file, ev.block + m});
    const double dt = t1 + t2;
    now += dt;
    busy += dt;
    ++m;
    if (m == ev.run_blocks || !within_budget(now) || m >= cycle) break;
  }
  // Every disk is positioned and both the run and the budget go on.
  if (m == cycle && m != ev.run_blocks && within_budget(now)) {
    double t2 = network.io_storage_hop();
    t2 += h_.disks().sequential_transfer();
    const double dt = t1 + t2;
    const std::uint32_t start = m;
    for (;;) {
      now += dt;
      busy += dt;
      ++m;
      if (m == ev.run_blocks || !within_budget(now)) break;
    }
    h_.settle_stream(ev.file, ev.block + start, m - start);
  }
  result.accesses += m;
  result.elements += ev.element_count * m;
  result.disk_reads += m;
  ev.block += m;
  ev.run_blocks -= m;
  return m;
}

}  // namespace

HierarchySimulator::HierarchySimulator(StorageTopology topology,
                                       PolicyKind policy,
                                       std::vector<NodeId> io_node_of_thread,
                                       std::vector<RangeHint> hints)
    : hierarchy_(std::move(topology), policy, std::move(io_node_of_thread),
                 std::move(hints)) {}

void HierarchySimulator::set_tenants(std::vector<std::uint32_t> tenant_of_thread,
                                     std::uint32_t tenant_count) {
  hierarchy_.set_tenants(std::move(tenant_of_thread), tenant_count);
}

SimulationResult HierarchySimulator::run(const TraceSource& source,
                                         double stop_at) {
  if (core_ == SimCoreKind::kEvent) {
    EventEngine engine(hierarchy_);
    SimulationResult result = engine.run(source, stop_at);
    stopped_ = engine.stopped();
    return result;
  }
  ClockCore clock(hierarchy_, extent_batching_);
  SimulationResult result = clock.run(source, stop_at);
  stopped_ = clock.stopped();
  return result;
}

SimulationResult HierarchySimulator::run(const TraceProgram& trace,
                                         double stop_at) {
  return run(MaterializedTraceSource(trace), stop_at);
}

}  // namespace flo::storage

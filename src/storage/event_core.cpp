#include "storage/event_core.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "storage/simulator.hpp"

namespace flo::storage {

EventEngine::EventEngine(HierarchySimulator& sim) : sim_(sim) {}

void EventEngine::note_wait(QueueLayerStats& layer,
                            std::size_t depth_after_push) {
  if (depth_after_push > layer.max_depth) layer.max_depth = depth_after_push;
}

void EventEngine::charge_wait(QueueLayerStats& layer, double waited) {
  ++layer.waits;
  layer.wait_time += waited;
}

bool EventEngine::analytic_eligible() const {
  // The closed-form phase path is exact only when nothing is
  // state-dependent per block: no cache (either level), no fault decision
  // stream, no write-back marking, no KARMA range classes. These are the
  // same exclusions the clock core's extent fast path makes, minus the
  // scheduler budget — which a single stream never contends for.
  const auto& cfg = sim_.topology_.config();
  return !cfg.io_cache_enabled && !cfg.storage_cache_enabled &&
         !sim_.faults_.enabled() && !cfg.model_writes &&
         sim_.policy_ != PolicyKind::kKarma;
}

void EventEngine::run_phase_analytic(std::uint32_t thread) {
  sim_.tenant_switch(thread, result_);
  CursorPump& pump = pumps_[thread];
  const auto& cfg = sim_.topology_.config();
  const std::uint32_t cycle =
      static_cast<std::uint32_t>(sim_.striping_.storage_nodes());
  double now = clock_[thread];
  double busy_acc = 0;
  do {
    AccessEvent& ev = pump.head();
    // A hand-built run_blocks == 0 event degrades to one block, like the
    // clock scheduler's reference loop.
    const std::uint64_t run = ev.run_blocks == 0 ? 1 : ev.run_blocks;
    double t1 = cfg.latency.cpu_per_element *
                static_cast<double>(ev.element_count);
    t1 += sim_.network_.compute_io_hop();
    // Position each disk of the stripe cycle once; every later block lands
    // on an already-positioned head (round-robin striping puts per-node
    // LBAs one apart) and costs the identical hop + pure-transfer double.
    std::uint64_t m = 0;
    for (; m < run && m < cycle; ++m) {
      const BlockKey key{ev.file, ev.block + m};
      const NodeId node = sim_.striping_.storage_node_of(key);
      double dt = t1 + sim_.network_.io_storage_hop();
      dt += sim_.disks_.service(node, sim_.striping_.lba_of(key));
      now += dt;
      busy_acc += dt;
    }
    if (m < run) {
      // The steady tail in one multiplication — this is what makes the
      // phase O(extents) instead of O(blocks). Identical integer stats;
      // the time differs from per-block summation only in FP association,
      // inside the event≡clock tolerance envelope.
      const double dt = t1 + sim_.network_.io_storage_hop() +
                        sim_.disks_.sequential_transfer();
      const std::uint64_t rest = run - m;
      const double total = dt * static_cast<double>(rest);
      now += total;
      busy_acc += total;
      // Settle per-disk head positions and read counts in one pass.
      const std::uint64_t first = ev.block + m;
      const std::uint64_t full = rest / cycle;
      const std::uint64_t rem = rest % cycle;
      const std::uint32_t phase = static_cast<std::uint32_t>(first % cycle);
      for (std::uint32_t dsk = 0; dsk < cycle; ++dsk) {
        const std::uint32_t offset = (dsk + cycle - phase) % cycle;
        const std::uint64_t count = full + (offset < rem ? 1u : 0u);
        if (count == 0) continue;
        const std::uint64_t last = first + offset + (count - 1) * cycle;
        sim_.disks_.note_sequential_reads(
            static_cast<NodeId>(dsk),
            sim_.striping_.lba_of({ev.file, last}), count);
      }
    }
    result_.accesses += run;
    result_.elements += ev.element_count * run;
    result_.disk_reads += run;
  } while (pump.refill());
  clock_[thread] = now;
  busy_[thread] += busy_acc;
  if (now >= stop_at_) sim_.stopped_ = true;
}

void EventEngine::issue_block(std::uint32_t thread, double now) {
  AccessEvent& ev = pumps_[thread].head();
  const auto& cfg = sim_.topology_.config();
  const BlockKey key{ev.file, ev.block};
  Request& r = req_[thread];
  r = Request{};
  r.key = key;
  r.elements = ev.element_count;
  r.is_write = cfg.model_writes && ev.is_write;
  r.io = sim_.io_node_of_thread_[thread];
  r.node = sim_.striping_.storage_node_of(key);
  r.lba = sim_.striping_.lba_of(key);
  r.issue = now;
  // Consume the block from the buffered extent (run_blocks == 0 degrades
  // to one block; completion refills once the extent is drained).
  ++ev.block;
  if (ev.run_blocks != 0) --ev.run_blocks;

  ++result_.accesses;
  result_.elements += r.elements;
  double front = cfg.latency.cpu_per_element * static_cast<double>(r.elements);
  front += sim_.network_.compute_io_hop();
  if (sim_.pending_writeback_cost_ > 0) {
    // Deferred storage-level write-backs are charged to the next request.
    front += sim_.pending_writeback_cost_;
    result_.disk_writes += sim_.pending_writeback_count_;
    sim_.pending_writeback_cost_ = 0;
    sim_.pending_writeback_count_ = 0;
  }

  if (sim_.policy_ == PolicyKind::kKarma) {
    const CacheLevel level = sim_.karma_.level_of(key);
    const bool io_online =
        !sim_.faults_.enabled() ||
        !sim_.faults_.offline(FaultLayer::kIo, r.io, now);
    if (level == CacheLevel::kIo && cfg.io_cache_enabled && io_online) {
      r.route = Route::kKarmaIo;
      queue_.push(now + front, EventKind::kIoArrive, thread);
      return;
    }
    if (level == CacheLevel::kIo && cfg.io_cache_enabled && !io_online) {
      ++result_.faults.io.bypasses;
    }
    if (level == CacheLevel::kStorage && cfg.storage_cache_enabled) {
      if (!sim_.faults_.enabled() ||
          !sim_.faults_.offline(FaultLayer::kStorage, r.node, now)) {
        r.route = Route::kKarmaStorage;
        queue_.push(now + front + sim_.network_.io_storage_hop(),
                    EventKind::kStorageArrive, thread);
        return;
      }
      ++result_.faults.storage.bypasses;
    }
    r.route = Route::kKarmaDirect;
    queue_.push(now + front + sim_.network_.io_storage_hop(),
                EventKind::kStorageArrive, thread);
    return;
  }

  const bool io_online =
      !sim_.faults_.enabled() ||
      !sim_.faults_.offline(FaultLayer::kIo, r.io, now);
  if (cfg.io_cache_enabled && io_online) {
    r.route = Route::kIo;
    queue_.push(now + front, EventKind::kIoArrive, thread);
    return;
  }
  if (cfg.io_cache_enabled && !io_online) ++result_.faults.io.bypasses;
  r.route = Route::kDirect;
  queue_.push(now + front + sim_.network_.io_storage_hop(),
              EventKind::kStorageArrive, thread);
}

void EventEngine::arrive_io(std::uint32_t thread, double now) {
  Request& r = req_[thread];
  if (io_busy_[r.io]) {
    r.arrival = now;
    io_wait_[r.io].push_back(thread);
    note_wait(result_.queue.io, io_wait_[r.io].size());
    if (io_depth_gauge_) {
      io_depth_gauge_->set(
          static_cast<std::int64_t>(io_wait_[r.io].size()));
    }
    return;
  }
  serve_io(thread, now);
}

void EventEngine::serve_io(std::uint32_t thread, double now) {
  Request& r = req_[thread];
  const auto& cfg = sim_.topology_.config();
  ++result_.io.lookups;
  if (sim_.io_caches_[r.io].touch(r.key)) {
    ++result_.io.hits;
    // KARMA hits complete without dirty marking (mirrors the clock path).
    if (r.route == Route::kIo && r.is_write) sim_.mark_io_dirty(r.io, r.key);
    io_busy_[r.io] = 1;
    queue_.push(now + cfg.latency.io_cache_hit, EventKind::kIoDone, thread);
    return;
  }
  // Miss: the cache server does no work; forward down the hierarchy.
  queue_.push(now + sim_.network_.io_storage_hop(), EventKind::kStorageArrive,
              thread);
}

void EventEngine::io_done(std::uint32_t thread, double now) {
  const NodeId io = req_[thread].io;
  io_busy_[io] = 0;
  // Drain waiters in FIFO order; a hit re-occupies the server and stops the
  // drain, a miss forwards onward and keeps draining.
  while (!io_busy_[io] && !io_wait_[io].empty()) {
    const std::uint32_t w = io_wait_[io].front();
    io_wait_[io].pop_front();
    charge_wait(result_.queue.io, now - req_[w].arrival);
    if (io_depth_gauge_) {
      io_depth_gauge_->set(static_cast<std::int64_t>(io_wait_[io].size()));
    }
    // The drained waiter's lookups/hits belong to its own tenant.
    sim_.tenant_switch(w, result_);
    serve_io(w, now);
  }
  complete(thread, now);
}

void EventEngine::arrive_storage(std::uint32_t thread, double now) {
  Request& r = req_[thread];
  const auto& cfg = sim_.topology_.config();
  switch (r.route) {
    case Route::kKarmaIo:
    case Route::kKarmaDirect:
      // KARMA bypasses the storage cache for these ranges entirely.
      enqueue_disk(thread, now);
      return;
    case Route::kKarmaStorage:
      break;  // straight to the server queue; outage was checked at issue
    case Route::kIo:
    case Route::kDirect:
      if (!r.faults_resolved) {
        r.faults_resolved = true;
        if (cfg.storage_cache_enabled && sim_.faults_.enabled()) {
          // Outages and exhausted fabric-retry budgets bypass the storage
          // cache for this request. Outage windows are resolved against the
          // request's issue time, exactly as the clock core does.
          if (sim_.faults_.offline(FaultLayer::kStorage, r.node, r.issue)) {
            r.bypass = true;
            ++result_.faults.storage.bypasses;
          } else {
            double delay = 0;
            std::uint32_t attempt = 0;
            while (sim_.faults_.storage_read_fails()) {
              ++result_.faults.storage.transient_failures;
              if (attempt >= sim_.faults_.config().max_retries) {
                ++result_.faults.exhausted_retries;
                ++result_.faults.storage.bypasses;
                r.bypass = true;
                break;
              }
              const double d = sim_.faults_.backoff(attempt++);
              delay += d;
              result_.faults.storage.degraded_time += d;
            }
            if (delay > 0) {
              // Wait out the retries, then re-arrive.
              queue_.push(now + delay, EventKind::kStorageArrive, thread);
              return;
            }
          }
        }
      }
      if (!cfg.storage_cache_enabled || r.bypass) {
        enqueue_disk(thread, now);
        return;
      }
      break;
  }
  if (storage_busy_[r.node]) {
    r.arrival = now;
    storage_wait_[r.node].push_back(thread);
    note_wait(result_.queue.storage, storage_wait_[r.node].size());
    if (storage_depth_gauge_) {
      storage_depth_gauge_->set(
          static_cast<std::int64_t>(storage_wait_[r.node].size()));
    }
    return;
  }
  serve_storage(thread, now);
}

void EventEngine::serve_storage(std::uint32_t thread, double now) {
  Request& r = req_[thread];
  const auto& cfg = sim_.topology_.config();
  ++result_.storage.lookups;
  // KARMA manages its pinned storage ranges with a plain LRU container,
  // not the policy-dispatched storage_touch (mirrors the clock path).
  const bool hit = r.route == Route::kKarmaStorage
                       ? sim_.storage_caches_[r.node].touch(r.key)
                       : sim_.storage_touch(r.node, r.key);
  if (hit) {
    ++result_.storage.hits;
    storage_busy_[r.node] = 1;
    queue_.push(now + cfg.latency.storage_cache_hit, EventKind::kStorageDone,
                thread);
    return;
  }
  enqueue_disk(thread, now);
}

void EventEngine::storage_done(std::uint32_t thread, double now) {
  Request& r = req_[thread];
  if (r.route != Route::kKarmaStorage) {
    // A hit on a staged block continues the stream: keep the detector and
    // the readahead window moving.
    sim_.after_storage_hit(r.key, r.node, result_);
    if (sim_.policy_ == PolicyKind::kDemoteLru) {
      sim_.storage_erase(r.node, r.key);
    }
  }
  const NodeId node = r.node;
  storage_busy_[node] = 0;
  while (!storage_busy_[node] && !storage_wait_[node].empty()) {
    const std::uint32_t w = storage_wait_[node].front();
    storage_wait_[node].pop_front();
    charge_wait(result_.queue.storage, now - req_[w].arrival);
    if (storage_depth_gauge_) {
      storage_depth_gauge_->set(
          static_cast<std::int64_t>(storage_wait_[node].size()));
    }
    // The drained waiter's lookups/hits belong to its own tenant.
    sim_.tenant_switch(w, result_);
    serve_storage(w, now);
  }
  if (r.route == Route::kIo) {
    fill_io_and_complete(thread, now);
  } else {
    complete(thread, now);
  }
}

void EventEngine::enqueue_disk(std::uint32_t thread, double now) {
  Request& r = req_[thread];
  DiskState& d = disk_[r.node];
  if (!d.busy) {
    dispatch_disk(thread, now);
    return;
  }
  r.arrival = now;
  d.sched.push(r.lba, thread, now, sim_.qos_priority_of_thread(thread));
  note_wait(result_.queue.disk, d.sched.size());
  if (disk_depth_gauge_) {
    disk_depth_gauge_->set(static_cast<std::int64_t>(d.sched.size()));
  }
}

void EventEngine::dispatch_disk(std::uint32_t thread, double now) {
  Request& r = req_[thread];
  DiskState& d = disk_[r.node];
  // An in-progress readahead transfer holds the disk: the demand read
  // waits for the staging frontier (charged as disk queueing).
  double start = now;
  if (d.free_at > start) {
    charge_wait(result_.queue.disk, d.free_at - start);
    start = d.free_at;
  }
  d.busy = true;
  // Fault decisions draw at dispatch time, in queue order — deterministic,
  // though the draw order differs from the clock core under contention.
  const double svc = sim_.disk_read(r.node, r.lba, result_);
  queue_.push(start + svc, EventKind::kDiskDone, thread);
}

void EventEngine::disk_done(std::uint32_t thread, double now) {
  Request& r = req_[thread];
  DiskState& d = disk_[r.node];
  const auto& cfg = sim_.topology_.config();
  ++result_.disk_reads;
  // Asynchronous readahead: staged blocks stream under the already-
  // positioned head while the requester departs, so staging is free for
  // the requester (it overlaps with its compute) — but the transfer
  // occupies the disk, pushing the staging frontier (free_at) forward.
  // Whoever needs this disk next pays the remainder as queueing delay.
  const std::uint64_t staged_before = result_.prefetches;
  switch (r.route) {
    case Route::kIo:
    case Route::kDirect:
      if (cfg.storage_cache_enabled && !r.bypass &&
          (sim_.policy_ == PolicyKind::kLruInclusive ||
           sim_.policy_ == PolicyKind::kMqInclusive)) {
        sim_.storage_insert(r.node, r.key, result_);
      }
      sim_.after_disk_read(r.key, r.node, r.lba, result_,
                           /*staging_allowed=*/!r.bypass);
      break;
    case Route::kKarmaIo:
      sim_.io_insert(r.io, r.key, result_);
      sim_.last_lba_[r.node] = r.lba;  // keep the stream detector coherent
      break;
    case Route::kKarmaStorage: {
      LruCache& cache = sim_.storage_caches_[r.node];
      if (cache.insert(r.key)) ++result_.storage.evictions;
      ++result_.storage.fills;
      result_.storage.bytes_filled += cfg.block_size;
      sim_.after_disk_read(r.key, r.node, r.lba, result_,
                           /*staging_allowed=*/true);
      break;
    }
    case Route::kKarmaDirect:
      sim_.last_lba_[r.node] = r.lba;
      break;
  }
  const std::uint64_t staged = result_.prefetches - staged_before;
  if (staged > 0) {
    d.free_at = now + static_cast<double>(staged) *
                          sim_.disks_.sequential_transfer();
  }
  // Release the disk and hand the queue to the scheduling policy (LOOK by
  // default — the elevator continues its sweep from the head position).
  d.busy = false;
  if (!d.sched.empty()) {
    const std::uint32_t w = d.sched.pop(sim_.disks_.head(r.node));
    charge_wait(result_.queue.disk, now - req_[w].arrival);
    if (disk_depth_gauge_) {
      disk_depth_gauge_->set(static_cast<std::int64_t>(d.sched.size()));
    }
    dispatch_disk(w, now);
  }
  if (r.route == Route::kIo) {
    fill_io_and_complete(thread, now);
  } else {
    complete(thread, now);
  }
}

void EventEngine::fill_io_and_complete(std::uint32_t thread, double now) {
  // A drain loop in the caller may have switched attribution to a waiter;
  // the fill below belongs to the completing request's tenant.
  sim_.tenant_switch(thread, result_);
  Request& r = req_[thread];
  const auto& cfg = sim_.topology_.config();
  double t = now;
  std::optional<BlockKey> victim;
  sim_.io_insert(r.io, r.key, result_, &victim);
  if (r.is_write) sim_.mark_io_dirty(r.io, r.key);
  if (victim) {
    if (cfg.model_writes) t += sim_.on_io_eviction(r.io, *victim, result_);
    if (sim_.policy_ == PolicyKind::kDemoteLru) {
      // Ship the evicted block down instead of dropping it (Wong & Wilkes).
      sim_.storage_insert(sim_.striping_.storage_node_of(*victim), *victim,
                          result_);
      t += sim_.network_.demotion();
      ++result_.demotions;
    }
  }
  complete(thread, t);
}

void EventEngine::complete(std::uint32_t thread, double now) {
  busy_[thread] += now - req_[thread].issue;
  clock_[thread] = now;
  if (now >= stop_at_) {
    // The largest clock has reached the stop time: drop the pending
    // events so run()'s loop ends here.
    sim_.stopped_ = true;
    queue_.clear();
    return;
  }
  CursorPump& pump = pumps_[thread];
  if (pump.exhausted() && !pump.refill()) return;  // stream drained
  queue_.push(now, EventKind::kThreadIssue, thread);
}

SimulationResult EventEngine::run(const TraceSource& source,
                                  double stop_at) {
  const std::size_t threads = sim_.io_node_of_thread_.size();
  const std::size_t streams = source.thread_count();
  const auto& cfg = sim_.topology_.config();
  result_ = SimulationResult{};
  stop_at_ = stop_at;
  sim_.stopped_ = false;
  if (sim_.tenants_enabled()) result_.tenants.resize(sim_.tenant_count_);
  clock_.assign(threads, 0.0);
  busy_.assign(threads, 0.0);
  req_.assign(threads, Request{});
  io_wait_.assign(cfg.io_nodes, {});
  io_busy_.assign(cfg.io_nodes, 0);
  storage_wait_.assign(cfg.storage_nodes, {});
  storage_busy_.assign(cfg.storage_nodes, 0);
  disk_.assign(cfg.storage_nodes, DiskState{});
  // Disk scheduling policy: QosConfig selects it; disabled QoS keeps the
  // default-constructed LOOK scheduler (bit-identical to the PR 6 inline
  // elevator).
  if (cfg.qos.enabled) {
    for (DiskState& d : disk_) {
      d.sched = DiskScheduler(cfg.qos.scheduler, cfg.qos.sched_window);
    }
  }

  const bool tracing = obs::enabled();
  std::uint32_t lane = 0;
  if (tracing) {
    static std::atomic<std::uint32_t> next_lane{0};
    lane = next_lane.fetch_add(1);
    auto& reg = obs::registry();
    io_depth_gauge_ = &reg.gauge("sim.event.queue_depth.io");
    storage_depth_gauge_ = &reg.gauge("sim.event.queue_depth.storage");
    disk_depth_gauge_ = &reg.gauge("sim.event.queue_depth.disk");
  }

  const bool analytic = analytic_eligible();
  for (std::size_t p = 0; p < source.phase_count() && !sim_.stopped_; ++p) {
    for (std::uint32_t rep = 0;
         rep < source.phase_repeat(p) && !sim_.stopped_; ++rep) {
      const double phase_start = clock_.empty() ? 0.0 : clock_[0];
      pumps_.clear();
      pumps_.reserve(streams);
      std::vector<std::uint32_t> active;
      for (std::uint32_t t = 0; t < streams; ++t) {
        pumps_.emplace_back(source.open(p, t));
        if (pumps_[t].prime()) active.push_back(t);
      }
      if (analytic && active.size() <= 1) {
        // Closed-form fast path: no contention is possible, so the event
        // machinery would only re-derive the clock core's sums per block.
        if (!active.empty()) run_phase_analytic(active.front());
      } else {
        for (std::uint32_t t : active) {
          queue_.push(clock_[t], EventKind::kThreadIssue, t);
        }
        while (!queue_.empty()) {
          const Event e = queue_.pop();
          sim_.tenant_switch(e.a, result_);
          switch (e.kind) {
            case EventKind::kThreadIssue: issue_block(e.a, e.time); break;
            case EventKind::kIoArrive: arrive_io(e.a, e.time); break;
            case EventKind::kIoDone: io_done(e.a, e.time); break;
            case EventKind::kStorageArrive: arrive_storage(e.a, e.time); break;
            case EventKind::kStorageDone: storage_done(e.a, e.time); break;
            case EventKind::kDiskDone: disk_done(e.a, e.time); break;
          }
        }
      }
      // Bulk-synchronous barrier between nests / repetitions.
      const double barrier =
          clock_.empty() ? 0.0
                         : *std::max_element(clock_.begin(), clock_.end());
      for (auto& c : clock_) c = barrier;
      if (tracing) {
        obs::record_virtual_span("sim.phase", "sim", lane, phase_start,
                                 barrier - phase_start,
                                 {{"phase", std::to_string(p)},
                                  {"rep", std::to_string(rep)},
                                  {"core", "event"}});
      }
    }
  }

  result_.exec_time =
      clock_.empty() ? 0.0
                     : *std::max_element(clock_.begin(), clock_.end());
  result_.thread_time = busy_;
  sim_.tenant_finish(result_);
  sim_.settle_trailing_writebacks(result_);
  return result_;
}

}  // namespace flo::storage

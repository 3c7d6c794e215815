#include "storage/event_core.hpp"

#include "obs/metrics.hpp"

namespace flo::storage {

EventEngine::EventEngine(Hierarchy& hierarchy) : h_(hierarchy) {}

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
  const auto& cfg = h_.config();
  return !cfg.io_cache_enabled && !cfg.storage_cache_enabled &&
         !cfg.model_writes && h_.blocks_batchable();
}

void EventEngine::run_phase_analytic(std::uint32_t thread) {
  SimulationResult& result = state_.result;
  h_.tenant_switch(thread, result);
  CursorPump& pump = state_.pumps[thread];
  const auto& cfg = h_.config();
  const NetworkModel& network = h_.network();
  const std::uint64_t cycle = h_.striping().storage_nodes();
  double now = state_.clock[thread];
  double busy_acc = 0;
  do {
    AccessEvent& ev = pump.head();
    // A hand-built run_blocks == 0 event degrades to one block, like the
    // clock scheduler's reference loop.
    const std::uint64_t run = ev.run_blocks == 0 ? 1 : ev.run_blocks;
    double t1 = cfg.latency.cpu_per_element *
                static_cast<double>(ev.element_count);
    t1 += network.compute_io_hop();
    // Position each disk of the stripe cycle once; every later block lands
    // on an already-positioned head and costs the identical hop +
    // pure-transfer double.
    std::uint64_t m = 0;
    for (; m < run && m < cycle; ++m) {
      double dt = t1 + network.io_storage_hop();
      dt += h_.stream_position({ev.file, ev.block + m});
      now += dt;
      busy_acc += dt;
    }
    if (m < run) {
      // The steady tail in one multiplication — this is what makes the
      // phase O(extents) instead of O(blocks). Identical integer stats;
      // the time differs from per-block summation only in FP association,
      // inside the event≡clock tolerance envelope.
      const double dt = t1 + network.io_storage_hop() +
                        h_.disks().sequential_transfer();
      const std::uint64_t rest = run - m;
      const double total = dt * static_cast<double>(rest);
      now += total;
      busy_acc += total;
      h_.settle_stream(ev.file, ev.block + m, rest);
    }
    result.accesses += run;
    result.elements += ev.element_count * run;
    result.disk_reads += run;
  } while (pump.refill());
  state_.clock[thread] = now;
  state_.busy[thread] += busy_acc;
  if (now >= stop_at_) state_.stopped = true;
}

void EventEngine::issue_block(std::uint32_t thread, double now) {
  AccessEvent& ev = state_.pumps[thread].head();
  const BlockKey key{ev.file, ev.block};
  Request& r = req_[thread];
  r = Request{};
  r.key = key;
  r.elements = ev.element_count;
  r.is_write = h_.config().model_writes && ev.is_write;
  r.io = h_.io_node_of(thread);
  r.node = h_.striping().storage_node_of(key);
  r.lba = h_.striping().lba_of(key);
  r.issue = now;
  // Consume the block from the buffered extent (run_blocks == 0 degrades
  // to one block; completion refills once the extent is drained).
  ++ev.block;
  if (ev.run_blocks != 0) --ev.run_blocks;

  const auto [route, front] =
      h_.issue(r.io, key, r.elements, now, state_.result);
  r.route = route;
  if (route == Route::kIo || route == Route::kKarmaIo) {
    queue_.push(now + front, EventKind::kIoArrive, thread);
  } else {
    queue_.push(now + front + h_.network().io_storage_hop(),
                EventKind::kStorageArrive, thread);
  }
}

void EventEngine::arrive_io(std::uint32_t thread, double now) {
  Request& r = req_[thread];
  if (io_busy_[r.io]) {
    r.arrival = now;
    io_wait_[r.io].push_back(thread);
    note_wait(state_.result.queue.io, io_wait_[r.io].size());
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
  if (h_.io_lookup(r.route, r.io, r.key, r.is_write, state_.result)) {
    io_busy_[r.io] = 1;
    queue_.push(now + h_.config().latency.io_cache_hit, EventKind::kIoDone,
                thread);
    return;
  }
  // Miss: the cache server does no work; forward down the hierarchy.
  queue_.push(now + h_.network().io_storage_hop(), EventKind::kStorageArrive,
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
    charge_wait(state_.result.queue.io, now - req_[w].arrival);
    if (io_depth_gauge_) {
      io_depth_gauge_->set(static_cast<std::int64_t>(io_wait_[io].size()));
    }
    // The drained waiter's lookups/hits belong to its own tenant.
    h_.tenant_switch(w, state_.result);
    serve_io(w, now);
  }
  complete(thread, now);
}

void EventEngine::arrive_storage(std::uint32_t thread, double now) {
  Request& r = req_[thread];
  if (!r.faults_resolved) {
    r.faults_resolved = true;
    // Outage windows are resolved against the request's issue time,
    // exactly as the clock core does.
    double delay = 0;
    r.bypass = h_.resolve_storage_faults(r.route, r.node, r.issue, delay,
                                         state_.result);
    if (delay > 0) {
      // Wait out the retries, then re-arrive.
      queue_.push(now + delay, EventKind::kStorageArrive, thread);
      return;
    }
  }
  if (!h_.uses_storage_cache(r.route, r.bypass)) {
    enqueue_disk(thread, now);
    return;
  }
  if (storage_busy_[r.node]) {
    r.arrival = now;
    storage_wait_[r.node].push_back(thread);
    note_wait(state_.result.queue.storage, storage_wait_[r.node].size());
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
  if (h_.storage_lookup(r.node, r.key, state_.result)) {
    storage_busy_[r.node] = 1;
    queue_.push(now + h_.config().latency.storage_cache_hit,
                EventKind::kStorageDone, thread);
    return;
  }
  enqueue_disk(thread, now);
}

void EventEngine::storage_done(std::uint32_t thread, double now) {
  Request& r = req_[thread];
  h_.after_storage_hit(r.route, r.node, r.key, state_.result);
  const NodeId node = r.node;
  storage_busy_[node] = 0;
  while (!storage_busy_[node] && !storage_wait_[node].empty()) {
    const std::uint32_t w = storage_wait_[node].front();
    storage_wait_[node].pop_front();
    charge_wait(state_.result.queue.storage, now - req_[w].arrival);
    if (storage_depth_gauge_) {
      storage_depth_gauge_->set(
          static_cast<std::int64_t>(storage_wait_[node].size()));
    }
    // The drained waiter's lookups/hits belong to its own tenant.
    h_.tenant_switch(w, state_.result);
    serve_storage(w, now);
  }
  depart_below_io(thread, now);
}

void EventEngine::enqueue_disk(std::uint32_t thread, double now) {
  Request& r = req_[thread];
  DiskState& d = disk_[r.node];
  if (!d.busy) {
    dispatch_disk(thread, now);
    return;
  }
  r.arrival = now;
  d.sched.push(r.lba, thread, now, h_.qos_priority_of_thread(thread));
  note_wait(state_.result.queue.disk, d.sched.size());
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
    charge_wait(state_.result.queue.disk, d.free_at - start);
    start = d.free_at;
  }
  d.busy = true;
  // Fault decisions draw at dispatch time, in queue order — deterministic,
  // though the draw order differs from the clock core under contention.
  const double svc = h_.disk_read(r.node, r.lba, state_.result);
  queue_.push(start + svc, EventKind::kDiskDone, thread);
}

void EventEngine::disk_done(std::uint32_t thread, double now) {
  Request& r = req_[thread];
  DiskState& d = disk_[r.node];
  ++state_.result.disk_reads;
  // Asynchronous readahead: staged blocks stream under the already-
  // positioned head while the requester departs, so staging is free for
  // the requester (it overlaps with its compute) — but the transfer
  // occupies the disk, pushing the staging frontier (free_at) forward.
  // Whoever needs this disk next pays the remainder as queueing delay.
  const std::uint64_t staged_before = state_.result.prefetches;
  h_.after_demand_read(r.route, r.io, r.node, r.key, r.bypass, state_.result);
  const std::uint64_t staged = state_.result.prefetches - staged_before;
  if (staged > 0) {
    d.free_at = now + static_cast<double>(staged) *
                          h_.disks().sequential_transfer();
  }
  // Release the disk and hand the queue to the scheduling policy (LOOK by
  // default — the elevator continues its sweep from the head position).
  d.busy = false;
  if (!d.sched.empty()) {
    const std::uint32_t w = d.sched.pop(h_.disks().head(r.node));
    charge_wait(state_.result.queue.disk, now - req_[w].arrival);
    if (disk_depth_gauge_) {
      disk_depth_gauge_->set(static_cast<std::int64_t>(d.sched.size()));
    }
    dispatch_disk(w, now);
  }
  depart_below_io(thread, now);
}

void EventEngine::depart_below_io(std::uint32_t thread, double now) {
  const Request& r = req_[thread];
  if (r.route != Route::kIo) {
    complete(thread, now);
    return;
  }
  // A drain loop in the caller may have switched attribution to a waiter;
  // the I/O fill belongs to the completing request's tenant.
  h_.tenant_switch(thread, state_.result);
  complete(thread, h_.fill_io(r.io, r.key, r.is_write, now, state_.result));
}

void EventEngine::complete(std::uint32_t thread, double now) {
  state_.busy[thread] += now - req_[thread].issue;
  state_.clock[thread] = now;
  if (now >= stop_at_) {
    // The largest clock has reached the stop time: drop the pending
    // events so run()'s loop ends here.
    state_.stopped = true;
    queue_.clear();
    return;
  }
  CursorPump& pump = state_.pumps[thread];
  if (pump.exhausted() && !pump.refill()) return;  // stream drained
  queue_.push(now, EventKind::kThreadIssue, thread);
}

SimulationResult EventEngine::run(const TraceSource& source,
                                  double stop_at) {
  const auto& cfg = h_.config();
  stop_at_ = stop_at;
  req_.assign(h_.thread_count(), Request{});
  io_wait_.assign(cfg.io_nodes, {});
  io_busy_.assign(cfg.io_nodes, 0);
  storage_wait_.assign(cfg.storage_nodes, {});
  storage_busy_.assign(cfg.storage_nodes, 0);
  disk_.assign(cfg.storage_nodes, DiskState{});
  // Disk scheduling policy: QosConfig selects it; disabled QoS keeps the
  // default-constructed LOOK scheduler.
  if (cfg.qos.enabled) {
    for (DiskState& d : disk_) {
      d.sched = DiskScheduler(cfg.qos.scheduler, cfg.qos.sched_window);
    }
  }
  if (obs::enabled()) {
    auto& reg = obs::registry();
    io_depth_gauge_ = &reg.gauge("sim.event.queue_depth.io");
    storage_depth_gauge_ = &reg.gauge("sim.event.queue_depth.storage");
    disk_depth_gauge_ = &reg.gauge("sim.event.queue_depth.disk");
  }

  const bool analytic = analytic_eligible();
  return h_.run(source, state_, SimCoreKind::kEvent,
                [&](const std::vector<std::uint32_t>& active) {
                  if (analytic && active.size() <= 1) {
                    // Closed-form fast path: no contention is possible, so
                    // the event machinery would only re-derive the clock
                    // core's sums per block.
                    if (!active.empty()) run_phase_analytic(active.front());
                  } else {
                    run_phase(active);
                  }
                });
}

void EventEngine::run_phase(const std::vector<std::uint32_t>& active) {
  for (std::uint32_t t : active) {
    queue_.push(state_.clock[t], EventKind::kThreadIssue, t);
  }
  while (!queue_.empty()) {
    const Event e = queue_.pop();
    h_.tenant_switch(e.a, state_.result);
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

}  // namespace flo::storage

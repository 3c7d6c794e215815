#include "layers.hpp"

#include <algorithm>
#include <stdexcept>

#include "baselines/computation_mapping.hpp"
#include "baselines/dimension_reindexing.hpp"
#include "core/io_lower_bound.hpp"
#include "core/optimizer.hpp"
#include "layout/canonical.hpp"
#include "storage/simulator.hpp"
#include "trace/source.hpp"

namespace perfbench {

namespace core = flo::core;
namespace storage = flo::storage;

flo::trace::TraceOptions trace_options() {
  flo::trace::TraceOptions options;
  options.emit_extents = storage::extents_enabled();
  return options;
}

namespace {

/// I/O node of every thread of `schedule`, as the experiment runner
/// hands it to the simulator.
std::vector<storage::NodeId> io_nodes_of_threads(
    const flo::parallel::ParallelSchedule& schedule,
    const storage::StorageTopology& topology) {
  std::vector<storage::NodeId> out(schedule.thread_count());
  for (flo::parallel::ThreadId t = 0; t < schedule.thread_count(); ++t) {
    out[t] = topology.io_node_of(schedule.mapping().node_of(t));
  }
  return out;
}

/// Span names of one simulate step: the result-producing simulation of a
/// cell, or one of the reindexing profiler's candidate simulations (kept
/// apart so the storage.* layer times cover returned results only).
struct SimSpans {
  const char* run;
  const char* bound;
};

SimSpans cell_spans(const core::ExperimentConfig& config) {
  return {config.sim_core == storage::SimCoreKind::kEvent
              ? "storage.event.run"
              : "storage.clock.run",
          "core.io_bound"};
}

/// The experiment runner's simulate step for one (schedule, layouts) pair.
storage::SimulationResult simulate_layouts(
    const flo::ir::Program& program,
    const flo::parallel::ParallelSchedule& schedule,
    const flo::layout::LayoutMap& layouts,
    const storage::StorageTopology& topology,
    const core::ExperimentConfig& config, Tracer& tracer, SimSpans spans) {
  if (config.policy == storage::PolicyKind::kKarma ||
      config.trace != core::TraceMode::kStreaming) {
    throw std::invalid_argument(
        "traced simulate covers the streaming, hint-free policies only");
  }
  const flo::trace::StreamingTraceSource source(program, schedule, layouts,
                                                topology, trace_options());
  const std::vector<storage::NodeId> io_nodes =
      io_nodes_of_threads(schedule, topology);
  storage::HierarchySimulator simulator(topology, config.policy, io_nodes);
  simulator.set_core(config.sim_core);
  storage::SimulationResult result;
  {
    const ScopedSpan span(tracer, spans.run);
    result = simulator.run(source);
  }
  const ScopedSpan span(tracer, spans.bound);
  const core::IoBound bound =
      core::compute_io_lower_bound(source, io_nodes, topology, config.policy);
  result.io_bound_bytes = bound.io_bound_bytes;
  result.storage_bound_bytes = bound.storage_bound_bytes;
  return result;
}

}  // namespace

core::CompiledExperiment traced_compile(const flo::ir::Program& program,
                                        const core::ExperimentConfig& config,
                                        Tracer& tracer, LayerCounts& counts) {
  const ScopedSpan compile_span(tracer, "core.compile");
  const storage::StorageTopology topology(config.topology);
  const storage::StorageTopology compile_topology(
      config.compile_topology.value_or(config.topology));
  core::CompiledExperiment out;
  {
    const ScopedSpan span(tracer, "parallel.schedule");
    out.schedule = flo::parallel::ParallelSchedule(program, config.threads,
                                                   config.mapping);
  }
  switch (config.scheme) {
    case core::Scheme::kDefault:
      out.layouts = flo::layout::default_layouts(program);
      break;
    case core::Scheme::kInterNode:
    case core::Scheme::kInterNodeIoOnly:
    case core::Scheme::kInterNodeStorageOnly: {
      core::OptimizerOptions options;
      options.mask = config.scheme == core::Scheme::kInterNodeIoOnly
                         ? flo::layout::LayerMask::kIoOnly
                     : config.scheme == core::Scheme::kInterNodeStorageOnly
                         ? flo::layout::LayerMask::kStorageOnly
                         : flo::layout::LayerMask::kBoth;
      options.partitioning.weighted = !config.unweighted_step1;
      options.solver = config.solver;
      const ScopedSpan span(tracer, "core.optimize");
      core::OptimizationResult opt =
          core::FileLayoutOptimizer(compile_topology)
              .optimize(program, out.schedule, options);
      counts.optimize_calls += 1;
      counts.arrays_partitioned += opt.plan.optimized_count();
      out.plan = std::move(opt.plan);
      out.layouts = std::move(opt.layouts);
      break;
    }
    case core::Scheme::kComputationMapping: {
      out.layouts = flo::layout::default_layouts(program);
      const ScopedSpan span(tracer, "baselines.compmap");
      out.schedule = flo::baselines::apply_computation_mapping(
          program, out.schedule, out.layouts, topology);
      break;
    }
    case core::Scheme::kDimensionReindexing: {
      const ScopedSpan span(tracer, "baselines.reindex");
      std::size_t runs = 0;
      const auto profiler = [&](const flo::layout::LayoutMap& candidate) {
        ++runs;
        const ScopedSpan candidate_span(tracer, "baselines.reindex.candidate");
        return simulate_layouts(
                   program, out.schedule, candidate, topology, config, tracer,
                   {"baselines.reindex.run", "baselines.reindex.bound"})
            .exec_time;
      };
      flo::baselines::ReindexResult reindex =
          flo::baselines::apply_dimension_reindexing(program, profiler);
      out.profiler_runs = runs;
      counts.profiler_runs += runs;
      out.layouts = std::move(reindex.layouts);
      break;
    }
  }
  return out;
}

storage::SimulationResult traced_simulate(
    const flo::ir::Program& program, const core::CompiledExperiment& compiled,
    const core::ExperimentConfig& config, Tracer& tracer) {
  const ScopedSpan span(tracer, "core.simulate");
  return simulate_layouts(program, compiled.schedule, compiled.layouts,
                          storage::StorageTopology(config.topology), config,
                          tracer, cell_spans(config));
}

WalkStats& WalkStats::operator+=(const WalkStats& other) {
  seconds += other.seconds;
  events += other.events;
  blocks += other.blocks;
  return *this;
}

WalkStats walk(const storage::TraceSource& source) {
  const Clock::time_point start = Clock::now();
  WalkStats out;
  storage::AccessEvent event;
  for (std::size_t phase = 0; phase < source.phase_count(); ++phase) {
    for (std::uint32_t rep = 0; rep < source.phase_repeat(phase); ++rep) {
      for (std::uint32_t t = 0; t < source.thread_count(); ++t) {
        const std::unique_ptr<storage::ThreadCursor> cursor =
            source.open(phase, t);
        while (cursor->next(event)) {
          ++out.events;
          out.blocks += event.run_blocks;
        }
      }
    }
  }
  out.seconds = since(start);
  return out;
}

WalkStats walk_cell(const flo::ir::Program& program,
                    const core::CompiledExperiment& compiled,
                    const core::ExperimentConfig& config) {
  const storage::StorageTopology topology(config.topology);
  const flo::trace::StreamingTraceSource source(
      program, compiled.schedule, compiled.layouts, topology, trace_options());
  return walk(source);
}

void add_sim_totals(
    Metrics& out,
    const std::vector<const storage::SimulationResult*>& results) {
  double exec = 0, io_wait = 0, storage_wait = 0, disk_wait = 0;
  std::uint64_t accesses = 0, io_lookups = 0, io_hits = 0,
                storage_lookups = 0, storage_hits = 0, disk_reads = 0,
                disk_writes = 0, writebacks = 0, prefetches = 0, achieved = 0,
                bound = 0, max_depth = 0, occupancy_peak = 0,
                io_evictions = 0, storage_evictions = 0;
  for (const storage::SimulationResult* r : results) {
    exec += r->exec_time;
    accesses += r->accesses;
    io_lookups += r->io.lookups;
    io_hits += r->io.hits;
    storage_lookups += r->storage.lookups;
    storage_hits += r->storage.hits;
    disk_reads += r->disk_reads;
    disk_writes += r->disk_writes;
    writebacks += r->writebacks;
    prefetches += r->prefetches;
    achieved += r->achieved_bytes();
    bound += r->bound_bytes();
    io_wait += r->queue.io.wait_time;
    storage_wait += r->queue.storage.wait_time;
    disk_wait += r->queue.disk.wait_time;
    max_depth = std::max(max_depth, r->queue.disk.max_depth);
    for (const storage::TenantStats& t : r->tenants) {
      occupancy_peak = std::max(occupancy_peak, t.occupancy_peak);
      io_evictions += t.io_evictions;
      storage_evictions += t.storage_evictions;
    }
  }
  const auto count = [&](const char* name, std::uint64_t v,
                         const char* unit = "count") {
    out[name] = {static_cast<double>(v), unit};
  };
  const auto rate = [](std::uint64_t hits, std::uint64_t lookups) {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  };
  count("storage.accesses", accesses);
  out["storage.exec_s"] = {exec, "s"};
  count("storage.io.lookups", io_lookups);
  out["storage.io.hit_rate"] = {rate(io_hits, io_lookups), "ratio"};
  count("storage.storage.lookups", storage_lookups);
  out["storage.storage.hit_rate"] = {rate(storage_hits, storage_lookups),
                                     "ratio"};
  count("storage.disk.reads", disk_reads);
  count("storage.disk.writes", disk_writes);
  count("storage.writebacks", writebacks);
  count("storage.prefetches", prefetches);
  count("storage.achieved_bytes", achieved, "bytes");
  count("storage.bound_bytes", bound, "bytes");
  out["storage.queue.io.wait_s"] = {io_wait, "s"};
  out["storage.queue.storage.wait_s"] = {storage_wait, "s"};
  out["storage.queue.disk.wait_s"] = {disk_wait, "s"};
  count("storage.queue.disk.max_depth", max_depth);
  count("storage.qos.occupancy_peak", occupancy_peak, "blocks");
  count("storage.qos.io_evictions", io_evictions);
  count("storage.qos.storage_evictions", storage_evictions);
}

}  // namespace perfbench

#include "core/experiment.hpp"

#include <stdexcept>

#include "baselines/computation_mapping.hpp"
#include "baselines/dimension_reindexing.hpp"
#include "core/io_lower_bound.hpp"
#include "layout/canonical.hpp"
#include "obs/span.hpp"
#include "trace/analysis.hpp"
#include "trace/source.hpp"

namespace flo::core {

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kDefault:
      return "default";
    case Scheme::kInterNode:
      return "inter-node";
    case Scheme::kInterNodeIoOnly:
      return "inter-node (I/O layer only)";
    case Scheme::kInterNodeStorageOnly:
      return "inter-node (storage layer only)";
    case Scheme::kComputationMapping:
      return "computation mapping [26]";
    case Scheme::kDimensionReindexing:
      return "dimension reindexing [27]";
  }
  return "?";
}

namespace {

std::vector<storage::NodeId> io_nodes_of_threads(
    const parallel::ParallelSchedule& schedule,
    const storage::StorageTopology& topology) {
  std::vector<storage::NodeId> out(schedule.thread_count());
  for (parallel::ThreadId t = 0; t < schedule.thread_count(); ++t) {
    out[t] = topology.io_node_of(schedule.mapping().node_of(t));
  }
  return out;
}

/// The streaming trace source for (schedule, layouts): per-thread cursors
/// that regenerate the events on every pass (CPU for memory).
trace::StreamingTraceSource trace_source(
    const ir::Program& program, const parallel::ParallelSchedule& schedule,
    const layout::LayoutMap& layouts,
    const storage::StorageTopology& topology) {
  // Extent emission follows the FLO_EXTENTS knob: the expanded stream is
  // identical, so this only selects the simulator's batched fast path.
  trace::TraceOptions trace_options;
  trace_options.emit_extents = storage::extents_enabled();
  return trace::StreamingTraceSource(program, schedule, layouts, topology,
                                     trace_options);
}

/// A simulator for `source` under the configured policy and core.
storage::HierarchySimulator make_simulator(
    const storage::TraceSource& source,
    const parallel::ParallelSchedule& schedule,
    const storage::StorageTopology& topology, const ExperimentConfig& config) {
  // KARMA's application hints: access densities of file segments, one
  // eighth of an I/O cache each (profiling pass, Section 5.4).
  std::vector<storage::RangeHint> hints;
  if (config.policy == storage::PolicyKind::kKarma) {
    const std::uint64_t segment =
        std::max<std::uint64_t>(1, topology.io_cache_blocks() / 8);
    hints = trace::profile_range_hints(source, segment);
  }
  storage::HierarchySimulator simulator(
      topology, config.policy, io_nodes_of_threads(schedule, topology),
      std::move(hints));
  simulator.set_core(config.sim_core);
  return simulator;
}

/// Simulates one (schedule, layouts) pair under the configured policy.
storage::SimulationResult simulate(const ir::Program& program,
                                   const parallel::ParallelSchedule& schedule,
                                   const layout::LayoutMap& layouts,
                                   const storage::StorageTopology& topology,
                                   const ExperimentConfig& config) {
  const trace::StreamingTraceSource source =
      trace_source(program, schedule, layouts, topology);
  storage::SimulationResult result =
      make_simulator(source, schedule, topology, config).run(source);
  // The I/O lower bound (core/io_lower_bound.hpp) depends only on the
  // trace footprint, the capacities, and the policy — attach it here so
  // every caller (benches, the service, flo_opt) reports achieved vs.
  // bound identically.
  const IoBound bound = compute_io_lower_bound(
      source, io_nodes_of_threads(schedule, topology), topology,
      config.policy);
  result.io_bound_bytes = bound.io_bound_bytes;
  result.storage_bound_bytes = bound.storage_bound_bytes;
  return result;
}

}  // namespace

CompiledExperiment compile_experiment(const ir::Program& program,
                                      const ExperimentConfig& config) {
  const obs::ScopedSpan span(
      "compile.experiment", "compile",
      obs::enabled() ? obs::SpanArgs{{"program", program.name()},
                                     {"scheme", scheme_name(config.scheme)}}
                     : obs::SpanArgs{});
  const storage::StorageTopology topology(config.topology);
  if (config.threads != config.topology.compute_nodes) {
    throw std::invalid_argument(
        "run_experiment: one thread per compute node is assumed");
  }
  // Template-hierarchy runs (Section 4.3) compile against the family's
  // reference topology instead of the one being simulated.
  const storage::StorageTopology compile_topology(
      config.compile_topology.value_or(config.topology));
  CompiledExperiment out{
      parallel::ParallelSchedule(program, config.threads, config.mapping),
      {}, {}, 0};

  switch (config.scheme) {
    case Scheme::kDefault: {
      out.layouts = layout::default_layouts(program);
      break;
    }
    case Scheme::kInterNode:
    case Scheme::kInterNodeIoOnly:
    case Scheme::kInterNodeStorageOnly: {
      OptimizerOptions options;
      options.mask = config.scheme == Scheme::kInterNodeIoOnly
                         ? layout::LayerMask::kIoOnly
                     : config.scheme == Scheme::kInterNodeStorageOnly
                         ? layout::LayerMask::kStorageOnly
                         : layout::LayerMask::kBoth;
      options.partitioning.weighted = !config.unweighted_step1;
      options.solver = config.solver;
      const FileLayoutOptimizer optimizer(compile_topology);
      OptimizationResult opt =
          optimizer.optimize(program, out.schedule, options);
      out.plan = std::move(opt.plan);
      out.layouts = std::move(opt.layouts);
      break;
    }
    case Scheme::kComputationMapping: {
      out.layouts = layout::default_layouts(program);
      out.schedule = baselines::apply_computation_mapping(
          program, out.schedule, out.layouts, topology);
      break;
    }
    case Scheme::kDimensionReindexing: {
      const obs::ScopedSpan profile_span("compile.reindex_profile",
                                         "compile");
      // Each candidate needs only its execution time: no lower-bound
      // pass, and the simulation stops once it can no longer beat the
      // search's current best (exact — see apply_dimension_reindexing).
      std::size_t runs = 0;
      std::size_t cutoffs = 0;
      const auto profiler = [&](const layout::LayoutMap& candidate,
                                double bound) {
        ++runs;
        const trace::StreamingTraceSource source =
            trace_source(program, out.schedule, candidate, topology);
        storage::HierarchySimulator simulator =
            make_simulator(source, out.schedule, topology, config);
        const double t = simulator.run(source, bound).exec_time;
        if (simulator.stopped()) ++cutoffs;
        return t;
      };
      baselines::ReindexResult reindex =
          baselines::apply_dimension_reindexing(program, profiler);
      out.profiler_runs = runs;
      out.layouts = std::move(reindex.layouts);
      if (obs::enabled()) {
        obs::registry().counter("sim.profiler_cutoffs").add(cutoffs);
      }
      break;
    }
  }
  if (obs::enabled() && out.profiler_runs != 0) {
    obs::registry().counter("sim.profiler_runs").add(out.profiler_runs);
  }
  return out;
}

storage::SimulationResult simulate_experiment(
    const ir::Program& program, const CompiledExperiment& compiled,
    const ExperimentConfig& config) {
  const storage::StorageTopology topology(config.topology);
  storage::SimulationResult result =
      simulate(program, compiled.schedule, compiled.layouts, topology, config);
  // Per-layer hit/miss/bytes/fault counters flow into the registry here —
  // once per experiment cell, never for the reindexing profiler's internal
  // candidate sims (those are tallied as sim.profiler_runs instead).
  storage::publish_to_registry(result);
  return result;
}

ExperimentResult run_experiment(const ir::Program& program,
                                const ExperimentConfig& config) {
  const CompiledExperiment compiled = compile_experiment(program, config);
  ExperimentResult result;
  result.sim = simulate_experiment(program, compiled, config);
  result.plan = compiled.plan;
  result.profiler_runs = compiled.profiler_runs;
  return result;
}

}  // namespace flo::core

// ExperimentRunner — one-call "simulate application X under scheme Y",
// shared by every bench binary and the examples.
//
// An experiment cell splits into two halves:
//   compile_experiment  — schedule the program and derive the scheme's
//                         file layouts (the expensive, shareable part);
//   simulate_experiment — stream the trace through the hierarchy
//                         simulator under the configured policy.
// run_experiment composes the two; the ExperimentEngine (core/engine.hpp)
// calls them separately so cells that share a compilation (e.g. the same
// scheme under several cache policies) compute it once.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "core/optimizer.hpp"
#include "ir/program.hpp"
#include "parallel/thread_mapping.hpp"
#include "storage/policy.hpp"
#include "storage/sim_core.hpp"
#include "storage/stats.hpp"
#include "storage/topology.hpp"

namespace flo::core {

/// The layout/scheduling schemes compared in the paper's evaluation.
enum class Scheme {
  kDefault,               ///< original row-major layouts (Table 2 baseline)
  kInterNode,             ///< this paper (Fig. 7(a) "inter")
  kInterNodeIoOnly,       ///< Fig. 7(f), first bar
  kInterNodeStorageOnly,  ///< Fig. 7(f), second bar
  kComputationMapping,    ///< [26], Fig. 7(g) first bar
  kDimensionReindexing,   ///< [27], Fig. 7(g) second bar
};

const char* scheme_name(Scheme scheme);

/// How the simulator obtains the trace events: always lazily, from
/// per-thread cursors with O(threads) resident state. Kept (with its
/// config field) only because perfbench/src/layers.cpp reads it.
enum class TraceMode {
  kStreaming,
};

struct ExperimentConfig {
  storage::TopologyConfig topology = storage::TopologyConfig::paper_default();
  std::size_t threads = 64;  ///< one per compute node, as in the paper
  parallel::MappingKind mapping = parallel::MappingKind::kIdentity;
  storage::PolicyKind policy = storage::PolicyKind::kLruInclusive;
  Scheme scheme = Scheme::kDefault;
  /// Unweighted Step I (ablation); only affects inter-node schemes.
  bool unweighted_step1 = false;
  /// Step I backend (core/layout_solver.hpp); only affects inter-node
  /// schemes. Joins the compile fingerprint and the engine journal key,
  /// so cells never mix backends.
  SolverKind solver = SolverKind::kUnimodular;
  TraceMode trace = TraceMode::kStreaming;
  /// Simulator core (DESIGN.md §4g): the clock core unless a cell asks
  /// for the event core.
  storage::SimCoreKind sim_core = storage::SimCoreKind::kClock;
  /// When set, the optimizer compiles against this topology while the
  /// simulation runs on `topology` — the Section 4.3 template-hierarchy
  /// scenario (compile once per template family, run on any member).
  std::optional<storage::TopologyConfig> compile_topology;
};

/// Compile-time product of one experiment cell: the schedule actually used
/// (possibly remapped by the computation-mapping baseline) plus the
/// scheme's per-array layouts. Read-only after construction and therefore
/// shareable across concurrently simulating cells.
struct CompiledExperiment {
  parallel::ParallelSchedule schedule;
  layout::LayoutMap layouts;
  layout::ProgramTransformPlan plan;  ///< empty for non-inter-node schemes
  std::size_t profiler_runs = 0;      ///< extra sims (dimension reindexing)
};

struct ExperimentResult {
  storage::SimulationResult sim;
  layout::ProgramTransformPlan plan;  ///< empty for non-inter-node schemes
  std::size_t profiler_runs = 0;      ///< extra sims (dimension reindexing)
};

/// Runs the compile-time half: parallel schedule plus scheme-specific
/// layouts (for dimension reindexing this includes the profiling sims).
CompiledExperiment compile_experiment(const ir::Program& program,
                                      const ExperimentConfig& config);

/// Runs the simulation half against a precompiled cell: streaming trace,
/// KARMA hints when the policy needs them, simulation.
/// Thread-safe for concurrent calls sharing one `compiled`.
storage::SimulationResult simulate_experiment(
    const ir::Program& program, const CompiledExperiment& compiled,
    const ExperimentConfig& config);

/// Runs one experiment end to end: compile_experiment + simulate_experiment.
ExperimentResult run_experiment(const ir::Program& program,
                                const ExperimentConfig& config);

}  // namespace flo::core

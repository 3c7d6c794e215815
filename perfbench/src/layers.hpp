// Traced re-composition of one experiment cell from the libraries' public
// calls, so each layer gets its own span: the parallel schedule, the
// scheme's compile step (Step I/II optimizer or a baseline), the streaming
// trace source, the simulator core and the I/O lower bound. The untraced
// runs call core::compile_experiment / core::simulate_experiment directly;
// both paths are held to the same committed digests, which is what shows
// this decomposition computes the same results.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/experiment.hpp"
#include "harness.hpp"
#include "storage/stats.hpp"
#include "storage/trace_source.hpp"
#include "trace/generator.hpp"

namespace perfbench {

/// Counts the traced path gathers besides span times.
struct LayerCounts {
  std::atomic<std::uint64_t> optimize_calls{0};
  std::atomic<std::uint64_t> arrays_partitioned{0};
  std::atomic<std::uint64_t> profiler_runs{0};
};

/// core::compile_experiment, one span per layer underneath "core.compile".
flo::core::CompiledExperiment traced_compile(
    const flo::ir::Program& program, const flo::core::ExperimentConfig& config,
    Tracer& tracer, LayerCounts& counts);

/// core::simulate_experiment under a "core.simulate" span, with the
/// simulator core ("storage.clock.run" / "storage.event.run") and the lower
/// bound ("core.io_bound") as children.
flo::storage::SimulationResult traced_simulate(
    const flo::ir::Program& program,
    const flo::core::CompiledExperiment& compiled,
    const flo::core::ExperimentConfig& config, Tracer& tracer);

/// Streaming trace options as the experiment runner sets them (extent
/// batching follows the FLO_EXTENTS default).
flo::trace::TraceOptions trace_options();

/// Host cost of producing a trace without simulating it: every cursor of
/// every phase repetition drained, in the order a simulator would open
/// them.
struct WalkStats {
  double seconds = 0;
  std::uint64_t events = 0;  ///< extents pulled from the cursors
  std::uint64_t blocks = 0;  ///< block requests they expand to
  WalkStats& operator+=(const WalkStats& other);
};
WalkStats walk(const flo::storage::TraceSource& source);

/// Drains the trace of one compiled cell (see walk()).
WalkStats walk_cell(const flo::ir::Program& program,
                    const flo::core::CompiledExperiment& compiled,
                    const flo::core::ExperimentConfig& config);

/// Simulated counters summed over `results` (the results an op returns),
/// under the storage.* per-layer names. Exact for a given input.
void add_sim_totals(Metrics& out,
                    const std::vector<const flo::storage::SimulationResult*>&
                        results);

}  // namespace perfbench

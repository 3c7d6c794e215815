#include "core/optimizer.hpp"

#include "layout/canonical.hpp"
#include "obs/span.hpp"

namespace flo::core {

FileLayoutOptimizer::FileLayoutOptimizer(storage::StorageTopology topology)
    : topology_(std::move(topology)) {}

OptimizationResult FileLayoutOptimizer::optimize(
    const ir::Program& program, const parallel::ParallelSchedule& schedule,
    const OptimizerOptions& options) const {
  const obs::ScopedSpan span("compile.optimize", "compile",
                             obs::enabled()
                                 ? obs::SpanArgs{{"program", program.name()}}
                                 : obs::SpanArgs{});
  OptimizationResult result;
  result.plan.program_name = program.name();
  result.layouts.reserve(program.arrays().size());

  for (ir::ArrayId a = 0; a < program.arrays().size(); ++a) {
    layout::ArrayTransformPlan plan;
    plan.array_name = program.array(a).name();
    {
      // Step I behind the LayoutSolver seam: the Eq. 3-5 unimodular greedy
      // by default, or the constraint-network backend via options.solver.
      const obs::ScopedSpan step1("compile.step1", "compile");
      plan.partitioning = solver_for(options.solver)
                              .solve(program, a, schedule,
                                     options.partitioning);
    }

    // Profitability test: an array within a small multiple of one I/O
    // cache is already served at the top of the hierarchy under any layout
    // — the paper's group-1 observation ("very good cache hit rates; no
    // scope for additional improvement"). Restructuring such arrays can
    // only add sparsity; the 2x margin keeps the decision stable across
    // the Fig. 7(c) capacity sweep.
    const bool too_small_to_matter =
        static_cast<std::uint64_t>(program.array(a).byte_size()) <=
        2 * topology_.config().io_cache_bytes;

    // Conflict test: when the chosen hyperplane satisfies well under the
    // majority of the (weighted) references, the unsatisfied ones keep
    // sweeping the relaid file scatteredly and the transformation cannot
    // pay for itself — the paper's twer case ("overly-conflicting requests
    // ... prevent the compiler from choosing a good file layout"). Keep
    // the canonical layout there.
    const bool too_conflicted =
        plan.partitioning.partitioned &&
        5 * plan.partitioning.satisfied_weight <
            3 * plan.partitioning.total_weight;

    layout::FileLayoutPtr chosen;
    if (!too_small_to_matter && !too_conflicted) {
      // Step II: hierarchy-aware chunk-pattern construction (Algorithm 1),
      // consuming the Step I result the solver already produced.
      const obs::ScopedSpan step2("compile.step2", "compile");
      chosen = layout::build_internode_layout(
          program, a, plan.partitioning, schedule, topology_, options.mask);
    }
    if (chosen) {
      plan.optimized = true;
      const auto* internode =
          static_cast<const layout::InterNodeLayout*>(chosen.get());
      plan.pattern_elements = internode->pattern().pattern_elements();
      plan.chunk_elements = internode->pattern().chunk_elements();
    } else {
      chosen = std::make_unique<layout::RowMajorLayout>(
          program.array(a).space());
    }
    if (obs::enabled()) {
      auto& reg = obs::registry();
      reg.counter("compile.arrays_total").add(1);
      if (plan.partitioning.partitioned) {
        reg.counter("compile.arrays_partitioned").add(1);
      }
      if (plan.optimized) {
        reg.counter("compile.arrays_materialized").add(1);
        const auto& internode =
            static_cast<const layout::InterNodeLayout&>(*chosen);
        reg.counter("compile.step2_elements").add(internode.touched_count());
        reg.counter("compile.layout_table_bytes")
            .add(internode.table_bytes());
      }
      if (too_small_to_matter && plan.partitioning.partitioned) {
        reg.counter("compile.arrays_skipped_small").add(1);
      }
      if (too_conflicted) {
        reg.counter("compile.arrays_skipped_conflicted").add(1);
      }
    }
    result.layouts.push_back(std::move(chosen));
    result.plan.arrays.push_back(std::move(plan));
  }
  if (obs::enabled()) {
    obs::registry()
        .histogram("compile.optimize_seconds")
        .observe(span.elapsed_seconds());
  }
  return result;
}

}  // namespace flo::core

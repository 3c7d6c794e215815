#include "baselines/dimension_reindexing.hpp"

#include <limits>
#include <numeric>

#include "layout/permutation.hpp"

namespace flo::baselines {

ReindexResult apply_dimension_reindexing(
    const ir::Program& program, const BoundedLayoutProfiler& profiler) {
  ReindexResult result;
  // Start from the canonical row-major identity permutation per array.
  std::vector<std::vector<std::size_t>> best_order;
  for (const auto& array : program.arrays()) {
    std::vector<std::size_t> identity(array.dims());
    std::iota(identity.begin(), identity.end(), 0);
    best_order.push_back(std::move(identity));
  }

  auto build = [&]() {
    layout::LayoutMap layouts;
    for (std::size_t a = 0; a < program.arrays().size(); ++a) {
      layouts.push_back(std::make_unique<layout::DimensionPermutationLayout>(
          program.arrays()[a].space(), best_order[a]));
    }
    return layouts;
  };

  double best_time =
      profiler(build(), std::numeric_limits<double>::infinity());
  ++result.evaluations;

  for (std::size_t a = 0; a < program.arrays().size(); ++a) {
    const auto orders = layout::all_dimension_orders(
        program.arrays()[a].dims());
    for (const auto& order : orders) {
      if (order == best_order[a]) continue;  // current best already timed
      const auto saved = best_order[a];
      best_order[a] = order;
      const double t = profiler(build(), best_time);
      ++result.evaluations;
      if (t < best_time) {
        best_time = t;
      } else {
        best_order[a] = saved;
      }
    }
  }

  result.layouts = build();
  return result;
}

ReindexResult apply_dimension_reindexing(const ir::Program& program,
                                         const LayoutProfiler& profiler) {
  return apply_dimension_reindexing(
      program, [&](const layout::LayoutMap& layouts, double) {
        return profiler(layouts);
      });
}

}  // namespace flo::baselines

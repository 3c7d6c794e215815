// Baseline [27]: profile-based dimension reindexing (Kandemir et al.,
// FAST'08).
//
// A file-layout strategy that is restricted to dimension permutations of
// each array (e.g. converting row-major to column-major). Following the
// paper's methodology ("using profiling, we exhaustively tried all possible
// dimension reindexings ... and selected the one that generated the best
// execution time"), we profile each candidate layout by simulating the
// resulting trace and keep the fastest, greedily per array.
#pragma once

#include <functional>

#include "ir/program.hpp"
#include "layout/file_layout.hpp"
#include "parallel/schedule.hpp"
#include "storage/topology.hpp"

namespace flo::baselines {

/// Callback that measures the execution time of a candidate layout map.
/// (Provided by the experiment driver so the baseline reuses the exact
/// simulator configuration under test.)
using LayoutProfiler = std::function<double(const layout::LayoutMap&)>;

/// A profiler told the time to beat: it must return the candidate's exact
/// execution time when that is below `bound`, and may return any value
/// >= `bound` otherwise — e.g. by stopping the simulation once its clock
/// reaches `bound` (HierarchySimulator::run's `stop_at`). The first probe
/// gets bound = +inf.
using BoundedLayoutProfiler =
    std::function<double(const layout::LayoutMap&, double bound)>;

struct ReindexResult {
  layout::LayoutMap layouts;
  std::size_t evaluations = 0;  ///< simulator runs performed
};

/// Exhaustive per-array permutation search (greedy across arrays in
/// declaration order, holding other arrays at their current best). A
/// candidate replaces the current best only when strictly faster, so the
/// bounded profiler's answer for a loser (anything >= the best time) picks
/// exactly the orders the unbounded search would.
ReindexResult apply_dimension_reindexing(
    const ir::Program& program, const BoundedLayoutProfiler& profiler);

/// Unbounded adapter: every candidate is measured in full.
ReindexResult apply_dimension_reindexing(const ir::Program& program,
                                         const LayoutProfiler& profiler);

}  // namespace flo::baselines

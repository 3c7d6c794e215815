// FileLayoutOptimizer — the public entry point of the library.
//
// Mirrors Fig. 4 of the paper: input is a parallelized program plus a
// description of the storage-cache topology; output is an optimized file
// layout per disk-resident array (canonical row-major where no
// partitioning exists) and the transform plan describing the updated index
// functions. Everything happens at compile time; there are no runtime
// layout changes.
#pragma once

#include "core/layout_solver.hpp"
#include "ir/program.hpp"
#include "layout/file_layout.hpp"
#include "layout/internode.hpp"
#include "layout/transform_plan.hpp"
#include "parallel/schedule.hpp"
#include "storage/topology.hpp"

namespace flo::core {

struct OptimizerOptions {
  layout::LayerMask mask = layout::LayerMask::kBoth;  ///< Fig. 7(f) sweeps
  layout::PartitioningOptions partitioning;           ///< Eq. 5 ablation
  /// Step I backend (core/layout_solver.hpp).
  SolverKind solver = SolverKind::kUnimodular;
};

struct OptimizationResult {
  layout::LayoutMap layouts;           ///< one per array (never null)
  layout::ProgramTransformPlan plan;   ///< per-array compile-time report
};

class FileLayoutOptimizer {
 public:
  explicit FileLayoutOptimizer(storage::StorageTopology topology);

  /// Determines a file layout for each array of `program` under `schedule`.
  OptimizationResult optimize(const ir::Program& program,
                              const parallel::ParallelSchedule& schedule,
                              const OptimizerOptions& options = {}) const;

  const storage::StorageTopology& topology() const { return topology_; }

 private:
  storage::StorageTopology topology_;
};

}  // namespace flo::core

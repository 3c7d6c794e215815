// Pluggable Step I backends behind a common interface (DESIGN.md §4i).
//
// FileLayoutOptimizer used to call layout::partition_array directly; the
// LayoutSolver seam lets alternative partitioning strategies slot in
// without touching Step II or the reporting stack. Two backends exist:
//
//   - UnimodularSolver: the paper's Eq. 3-5 heaviest-first greedy
//     (layout/partitioning.cpp) — the reference backend and the default.
//   - ConstraintNetworkSolver: Chen & Kandemir-style finite-domain
//     propagation with cost-ranked assignment
//     (layout/constraint_network.cpp).
//
// Every production path compiles with the unimodular default; callers
// that compare the two (the solver_ablation scenario, the solver-agreement
// oracle) pick a backend in code. Backend choice is part of a
// compilation's identity: it joins the CompileCache fingerprint and the
// engine journal key, so cached plans and journal replays never mix
// solvers.
#pragma once

#include "layout/partitioning.hpp"

namespace flo::core {

enum class SolverKind {
  kUnimodular,         ///< reference greedy (default)
  kConstraintNetwork,  ///< finite-domain propagation backend
};

/// Stable short name: "unimodular" / "constraint" (table labels, logs).
const char* solver_name(SolverKind kind);

/// A Step I strategy: produce an ArrayPartitioning for one array. All
/// backends share finalize_partitioning, so a given (hyperplane, primary)
/// choice yields identical downstream fields regardless of backend.
class LayoutSolver {
 public:
  virtual ~LayoutSolver() = default;

  virtual const char* name() const = 0;

  virtual layout::ArrayPartitioning solve(
      const ir::Program& program, ir::ArrayId array,
      const parallel::ParallelSchedule& schedule,
      const layout::PartitioningOptions& options) const = 0;
};

/// Returns the process-wide singleton for `kind` (stateless, thread-safe).
const LayoutSolver& solver_for(SolverKind kind);

}  // namespace flo::core

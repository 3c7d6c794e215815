// The benchmark's workloads. Each times its set-up (SetUpTimer), runs
// whole passes until the next one would overrun the time budget (at least
// one), checks every op against the committed digests and invariants, and
// returns what it measured. Traced runs alternate untraced and traced
// passes so the tracing overhead is measured inside the run.
#pragma once

#include "harness.hpp"

namespace perfbench {

Report run_layout_grid(const Options& options);
Report run_baseline_schemes(const Options& options);
Report run_shared_tenants(const Options& options);
Report run_serve_compile(const Options& options);

/// Shows that the checks count a perturbed result as a failure. Returns
/// the process exit code (0 when every perturbation was caught).
int self_test(const Options& options);

/// The serve_compile half of self_test: a perturbed response body, an
/// unechoed body hash and a non-ok status must each count as a failure.
int serve_self_test(const Options& options);

/// Workers of the engine pool and threads of the trace-walk phase.
inline constexpr std::size_t kWorkers = 4;

/// Path of a workload's committed digest table.
std::string expected_path(const Options& options);

/// Fills the tracing overhead from the measured and traced passes.
void add_overhead(Report& report);

}  // namespace perfbench

// The oracle library: every cross-layer invariant the stack guarantees,
// packaged as an executable check over one generated FuzzCase. Each oracle
// returns std::nullopt when the invariant holds and a failure description
// otherwise; the fuzz harness (testing/harness.hpp) runs a glob-selected
// subset per case and the shrinker replays one oracle while minimizing.
//
// Oracles (DESIGN.md §4f):
//   parse-roundtrip     emit_flo -> parse_program reproduces the program
//   parse-total         mutated program text never escapes ParseError
//   count-conservation  streaming events carry exactly the closed-form
//                       element count; extents on/off agree event-by-event
//   stream-vs-eager     streaming cursors == eager generator, per event
//   extent-equivalence  simulator extent fast path == per-block reference
//   event-vs-clock      event core == clock core inside the no-contention
//                       envelope (one thread, prefetch off, faults off);
//                       model_writes traces — including the end-of-run
//                       write-back flush — fuzz inside the envelope
//   tenant-isolation    N=1 trace::InterleavedTraceSource run == plain run
//                       bit-for-bit in both cores, with the single tenant
//                       slice conserving every attributed aggregate
//   sim-stop-time       a simulator stop time above exec_time is a no-op
//                       (to_wire-identical); one at or below it reports
//                       exec_time >= the stop time, in both cores
//   layout-bijection    optimized layouts are injective element->slot maps
//                       with per-thread chunk contiguity (Algorithm 1)
//   solver-agreement    both Step I backends (core/layout_solver.hpp) emit
//                       valid partitionings; the constraint network never
//                       satisfies less weight than the unimodular greedy
//   engine-workers      ExperimentEngine results independent of workers
//   wire-roundtrip      stats to_wire/from_wire round-trips bit-exactly
//   conversion-roundtrip canonical -> optimized -> canonical is identity
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "testing/generator.hpp"

namespace flo::testing {

struct Oracle {
  std::string name;
  std::string description;
  /// True when the check walks the program element-by-element (trace
  /// generation, simulation, whole-data-space scans). The harness skips
  /// such oracles for huge-trip cases, whose element counts exceed 2^32.
  bool element_walk = true;
  std::function<std::optional<std::string>(const FuzzCase&)> check;
};

/// The full registry, in a fixed order.
const std::vector<Oracle>& all_oracles();

/// Oracles whose name matches the glob (util::glob_match), registry order.
std::vector<const Oracle*> select_oracles(const std::string& glob);

/// Runs one oracle, translating an escaped exception into a failure (an
/// oracle crashing on a generated case is itself a finding).
std::optional<std::string> run_oracle(const Oracle& oracle,
                                      const FuzzCase& fuzz_case);

}  // namespace flo::testing

// Simulator core selection: the clock core (per-thread virtual clocks with
// the extent fast path — the golden reference) versus the discrete-event
// core (global event queue with shared-cache queueing, disk-head
// scheduling and asynchronous readahead). The clock core is the default;
// ExperimentConfig::sim_core and HierarchySimulator::set_core pick the
// event core per cell (DESIGN.md §4g).
#pragma once

namespace flo::storage {

enum class SimCoreKind {
  kClock,  ///< per-thread virtual clocks + extent batching (golden)
  kEvent,  ///< discrete-event engine with contention modeling
};

const char* sim_core_name(SimCoreKind core);

}  // namespace flo::storage

// Trace generation: walks a parallelized program under a chosen set of file
// layouts and produces the per-thread block-request streams the storage
// simulator consumes. This is where "file layout" becomes observable
// behaviour: the same program under two layouts yields different block
// streams and hence different cache dynamics.
#pragma once

#include "ir/program.hpp"
#include "layout/file_layout.hpp"
#include "parallel/schedule.hpp"
#include "storage/simulator.hpp"
#include "storage/topology.hpp"

namespace flo::trace {

/// Options of the streaming source (trace/source.hpp); the eager
/// generator below takes none and stays the per-block golden reference.
struct TraceOptions {
  /// Run-length-encode ascending same-count block runs into multi-block
  /// extents (AccessEvent::run_blocks). The expanded stream is
  /// bit-identical to the per-block stream; the simulator's extent fast
  /// path services whole runs per scheduler step.
  bool emit_extents = false;
};

/// Generates the full trace program: one phase per loop nest (with the
/// nest's repeat count), per-thread streams ordered by the thread's
/// iteration blocks. Consecutive accesses by one thread to the same block
/// merge into a single request with an element count (a client issues one
/// I/O per block for a streaming run over it). `layouts[a]` maps array a's
/// elements to file slots; file sizes (in blocks) are derived from each
/// layout's slot span.
storage::TraceProgram generate_trace(const ir::Program& program,
                                     const parallel::ParallelSchedule& schedule,
                                     const layout::LayoutMap& layouts,
                                     const storage::StorageTopology& topology);

}  // namespace flo::trace

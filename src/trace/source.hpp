// StreamingTraceSource: the pull-based counterpart of generate_trace.
//
// Instead of materializing every thread's block-request stream up front
// (O(total element accesses) memory), events are generated on demand as the
// simulator pulls them through per-thread cursors. Cursor state is the
// odometer position of one thread's walk — O(nest depth + references +
// blocks-per-thread) — so whole-program simulation runs in O(threads)
// resident trace state and scale sweeps are no longer bounded by trace
// memory. The event stream is bit-identical to the eager generator's
// (tests/trace/source_test.cpp holds both to the same golden sequences).
#pragma once

#include "ir/program.hpp"
#include "layout/file_layout.hpp"
#include "parallel/schedule.hpp"
#include "storage/topology.hpp"
#include "storage/trace_source.hpp"
#include "trace/generator.hpp"

namespace flo::trace {

/// Lazily generates the trace of `program` under `schedule` and `layouts`.
/// Holds references only: program, schedule, layouts and topology must
/// outlive the source (and any cursor opened from it).
class StreamingTraceSource final : public storage::TraceSource {
 public:
  StreamingTraceSource(const ir::Program& program,
                       const parallel::ParallelSchedule& schedule,
                       const layout::LayoutMap& layouts,
                       const storage::StorageTopology& topology,
                       const TraceOptions& options = {});

  std::size_t phase_count() const override;
  std::uint32_t phase_repeat(std::size_t phase) const override;
  std::size_t thread_count() const override;
  const std::vector<std::uint64_t>& file_blocks() const override;
  std::unique_ptr<storage::ThreadCursor> open(
      std::size_t phase, std::uint32_t thread) const override;

  /// Upper-bound estimate of the resident bytes one open cursor holds
  /// (odometer + per-reference state + the thread's block list for
  /// `phase`). The O(threads) memory regression test asserts the sum over
  /// all threads stays far below what the eager trace would occupy.
  std::size_t cursor_state_bytes(std::size_t phase,
                                 std::uint32_t thread) const;

 private:
  const ir::Program* program_;
  const parallel::ParallelSchedule* schedule_;
  const layout::LayoutMap* layouts_;
  std::uint64_t block_size_;
  bool emit_extents_;
  std::vector<std::uint64_t> file_blocks_;
};

}  // namespace flo::trace

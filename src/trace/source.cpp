#include "trace/source.hpp"

#include <limits>
#include <stdexcept>

#include "trace/walker.hpp"

namespace flo::trace {

namespace {

/// Walks one thread's share of one nest lazily. The raw walker order is
/// exactly emit_thread_events' (block -> iteration -> reference); the
/// pull-side coalescing merges consecutive same-(file, block, kind)
/// accesses across iteration and block boundaries, like the eager
/// generator's back-of-stream merge.
class StreamingCursor final : public storage::ThreadCursor {
 public:
  StreamingCursor(const ir::Program& program, const ir::LoopNest& nest,
                  const parallel::BlockDecomposition& decomp,
                  parallel::ThreadId thread, const layout::LayoutMap& layouts,
                  std::uint64_t block_size, bool emit_extents)
      : walker_(program, nest, decomp, thread, layouts, block_size),
        emit_extents_(emit_extents) {}

  bool next(storage::AccessEvent& out) override {
    if (!emit_extents_) return next_block(out);
    // Extent RLE on top of the coalesced per-block stream: ascending
    // same-count same-kind block runs fold into one event. Expanding the
    // extents reproduces the per-block stream exactly, so downstream
    // per-block splitting is bit-identical to the reference.
    if (!has_extent_) {
      if (!next_block(extent_)) return false;
      has_extent_ = true;
    }
    storage::AccessEvent nb;
    while (next_block(nb)) {
      if (nb.file == extent_.file &&
          nb.block == extent_.block + extent_.run_blocks &&
          nb.element_count == extent_.element_count &&
          nb.is_write == extent_.is_write &&
          extent_.run_blocks < std::numeric_limits<std::uint32_t>::max()) {
        ++extent_.run_blocks;
      } else {
        out = extent_;
        extent_ = nb;
        return true;
      }
    }
    out = extent_;
    has_extent_ = false;
    return true;
  }

  std::size_t state_bytes() const {
    return sizeof(*this) - sizeof(walker_) + walker_.state_bytes();
  }

 private:
  /// The pre-extent stream: one event per block (the golden reference).
  bool next_block(storage::AccessEvent& out) {
    if (!has_pending_) {
      if (!walker_.next(pending_)) return false;
      has_pending_ = true;
    }
    storage::AccessEvent raw;
    while (walker_.next(raw)) {
      if (raw.file == pending_.file && raw.block == pending_.block &&
          raw.is_write == pending_.is_write) {
        pending_.element_count += raw.element_count;
      } else {
        out = pending_;
        pending_ = raw;
        return true;
      }
    }
    out = pending_;
    has_pending_ = false;
    return true;
  }

  ThreadNestWalker walker_;
  bool emit_extents_;
  storage::AccessEvent pending_{};
  bool has_pending_ = false;
  storage::AccessEvent extent_{};
  bool has_extent_ = false;
};

}  // namespace

StreamingTraceSource::StreamingTraceSource(
    const ir::Program& program, const parallel::ParallelSchedule& schedule,
    const layout::LayoutMap& layouts,
    const storage::StorageTopology& topology, const TraceOptions& options)
    : program_(&program),
      schedule_(&schedule),
      layouts_(&layouts),
      block_size_(topology.config().block_size),
      emit_extents_(options.emit_extents) {
  if (layouts.size() != program.arrays().size()) {
    throw std::invalid_argument("StreamingTraceSource: layouts size mismatch");
  }
  for (const auto& l : layouts) {
    if (!l) throw std::invalid_argument("StreamingTraceSource: null layout");
  }
  file_blocks_.reserve(program.arrays().size());
  for (std::size_t a = 0; a < program.arrays().size(); ++a) {
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(layouts[a]->file_slots()) *
        static_cast<std::uint64_t>(
            program.array(static_cast<ir::ArrayId>(a)).element_size());
    file_blocks_.push_back((bytes + block_size_ - 1) / block_size_);
  }
}

std::size_t StreamingTraceSource::phase_count() const {
  return program_->nests().size();
}

std::uint32_t StreamingTraceSource::phase_repeat(std::size_t phase) const {
  return static_cast<std::uint32_t>(program_->nests()[phase].repeat());
}

std::size_t StreamingTraceSource::thread_count() const {
  return schedule_->thread_count();
}

const std::vector<std::uint64_t>& StreamingTraceSource::file_blocks() const {
  return file_blocks_;
}

std::unique_ptr<storage::ThreadCursor> StreamingTraceSource::open(
    std::size_t phase, std::uint32_t thread) const {
  return std::make_unique<StreamingCursor>(
      *program_, program_->nests()[phase], schedule_->decomposition(phase),
      thread, *layouts_, block_size_, emit_extents_);
}

std::size_t StreamingTraceSource::cursor_state_bytes(
    std::size_t phase, std::uint32_t thread) const {
  const StreamingCursor cursor(
      *program_, program_->nests()[phase], schedule_->decomposition(phase),
      thread, *layouts_, block_size_, emit_extents_);
  return cursor.state_bytes();
}

}  // namespace flo::trace

#include "trace/generator.hpp"

#include <stdexcept>

namespace flo::trace {

namespace {

/// Walks one thread's share of one nest and appends its block requests.
void emit_thread_events(const ir::Program& program, const ir::LoopNest& nest,
                        const parallel::BlockDecomposition& decomp,
                        parallel::ThreadId thread,
                        const layout::LayoutMap& layouts,
                        std::uint64_t block_size,
                        storage::ThreadTrace& out) {
  const std::size_t depth = nest.depth();
  const std::size_t u = decomp.parallel_dim();
  std::vector<std::int64_t> iter(depth);

  // Pre-fetch per-reference state.
  struct RefState {
    const ir::Reference* ref;
    const layout::FileLayout* layout;
    std::int64_t element_size;
  };
  std::vector<RefState> refs;
  refs.reserve(nest.references().size());
  for (const auto& ref : nest.references()) {
    refs.push_back({&ref, layouts[ref.array].get(),
                    program.array(ref.array).element_size()});
  }

  for (const auto& block : decomp.blocks_of(thread)) {
    // Odometer over the full nest with dimension u restricted to the block.
    for (std::size_t k = 0; k < depth; ++k) {
      iter[k] = k == u ? block.lower : nest.iterations().bound(k).lower;
    }
    bool more = true;
    while (more) {
      for (const auto& rs : refs) {
        const linalg::IntVector element = rs.ref->map.evaluate(iter);
        const std::int64_t slot = rs.layout->slot(element);
        const std::uint64_t byte =
            static_cast<std::uint64_t>(slot) *
            static_cast<std::uint64_t>(rs.element_size);
        const std::uint64_t blk = byte / block_size;
        const bool is_write = rs.ref->kind == ir::AccessKind::kWrite;
        if (!out.empty() && out.back().file == rs.ref->array &&
            out.back().block == blk && out.back().is_write == is_write) {
          ++out.back().element_count;
        } else {
          out.push_back({rs.ref->array, blk, 1, is_write});
        }
      }
      // Advance the odometer (dimension u confined to the block).
      more = false;
      for (std::size_t k = depth; k-- > 0;) {
        const std::int64_t lo =
            k == u ? block.lower : nest.iterations().bound(k).lower;
        const std::int64_t hi =
            k == u ? block.upper : nest.iterations().bound(k).upper;
        if (iter[k] < hi) {
          ++iter[k];
          for (std::size_t j = k + 1; j < depth; ++j) {
            iter[j] = j == u ? block.lower : nest.iterations().bound(j).lower;
          }
          more = true;
          break;
        }
        (void)lo;
      }
    }
  }
}

}  // namespace

storage::TraceProgram generate_trace(const ir::Program& program,
                                     const parallel::ParallelSchedule& schedule,
                                     const layout::LayoutMap& layouts,
                                     const storage::StorageTopology& topology) {
  if (layouts.size() != program.arrays().size()) {
    throw std::invalid_argument("generate_trace: layouts size mismatch");
  }
  for (const auto& l : layouts) {
    if (!l) throw std::invalid_argument("generate_trace: null layout");
  }
  storage::TraceProgram trace;
  const std::uint64_t block_size = topology.config().block_size;

  trace.file_blocks.reserve(program.arrays().size());
  for (std::size_t a = 0; a < program.arrays().size(); ++a) {
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(layouts[a]->file_slots()) *
        static_cast<std::uint64_t>(
            program.array(static_cast<ir::ArrayId>(a)).element_size());
    trace.file_blocks.push_back((bytes + block_size - 1) / block_size);
  }

  trace.phases.reserve(program.nests().size());
  for (std::size_t n = 0; n < program.nests().size(); ++n) {
    const auto& nest = program.nests()[n];
    storage::PhaseTrace phase;
    phase.repeat = static_cast<std::uint32_t>(nest.repeat());
    phase.per_thread.resize(schedule.thread_count());
    for (parallel::ThreadId t = 0; t < schedule.thread_count(); ++t) {
      emit_thread_events(program, nest, schedule.decomposition(n), t, layouts,
                         block_size, phase.per_thread[t]);
    }
    trace.phases.push_back(std::move(phase));
  }
  return trace;
}

}  // namespace flo::trace

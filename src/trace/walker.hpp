// ThreadNestWalker: element-exact lazy walk of one thread's share of one
// loop nest, in the eager generator's order (iteration blocks -> odometer
// -> references).
//
// The walker is the streaming pipeline's inner loop: a phase with repeat R
// is regenerated R times instead of being materialized once, so the
// per-element cost must be a handful of integer adds, not an affine-map
// evaluation. Each reference therefore carries incremental state: when the
// odometer bumps dimension k (resetting the dimensions inside it), the
// reference's file position moves by a precomputed per-dimension delta.
// Layouts with a linear slot form (canonical orders, permutations) keep a
// running slot directly — one add per step; other layouts (chunk-addressed
// inter-node) keep the running element point and pay one virtual slot()
// call per access, still allocation-free.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "ir/program.hpp"
#include "layout/file_layout.hpp"
#include "parallel/schedule.hpp"
#include "storage/trace_source.hpp"

namespace flo::trace {

class ThreadNestWalker {
 public:
  /// Where the nest's shape allows it, the walker emits one event per
  /// same-block run along the innermost dimension (with the run's element
  /// count) instead of one event per element; its caller coalesces
  /// downstream, which yields the same stream either way.
  ThreadNestWalker(const ir::Program& program, const ir::LoopNest& nest,
                   const parallel::BlockDecomposition& decomp,
                   parallel::ThreadId thread, const layout::LayoutMap& layouts,
                   std::uint64_t block_size)
      : nest_(&nest),
        blocks_(decomp.blocks_of(thread)),
        depth_(nest.depth()),
        iter_(nest.depth(), 0),
        lo_(nest.depth(), 0),
        hi_(nest.depth(), 0),
        u_(decomp.parallel_dim()),
        block_size_(block_size),
        block_shift_(std::has_single_bit(block_size)
                         ? std::countr_zero(block_size)
                         : -1) {
    refs_.reserve(nest.references().size());
    for (const auto& ref : nest.references()) {
      RefState rs;
      rs.ref = &ref;
      rs.layout = layouts[ref.array].get();
      rs.element_size = program.array(ref.array).element_size();
      rs.strides = rs.layout->linear_slot_strides();
      const linalg::IntMatrix& q = ref.map.access_matrix();
      const std::size_t m = rs.strides.empty() ? q.rows() : 1;
      rs.state.assign(m, 0);
      rs.inc.assign(depth_ * m, 0);
      rs.suffix_reset.assign((depth_ + 1) * m, 0);
      for (std::size_t k = 0; k < depth_; ++k) {
        if (m == 1) {
          // Linear layout: per-dimension slot delta dot(strides, Q column).
          std::int64_t delta = 0;
          for (std::size_t r = 0; r < q.rows(); ++r) {
            delta += rs.strides[r] * q.at(r, k);
          }
          rs.inc[k] = delta;
        } else {
          for (std::size_t r = 0; r < m; ++r) {
            rs.inc[k * m + r] = q.at(r, k);
          }
        }
      }
      refs_.push_back(std::move(rs));
    }
    // Run merging needs a constant slot delta along the innermost
    // dimension, which only the single-reference linear-layout shape
    // guarantees (with several references the raw stream interleaves them
    // within each iteration, so runs would reorder events).
    merge_runs_ = depth_ > 0 && refs_.size() == 1 &&
                  !refs_[0].strides.empty();
    if (blocks_.empty() || refs_.empty()) {
      done_ = true;
    } else {
      enter_block();
    }
  }

  /// Produces the next access event; false at end of stream. Without run
  /// merging every event covers exactly one element access.
  bool next(storage::AccessEvent& out) {
    if (done_) return false;
    if (merge_runs_) return next_run(out);
    const RefState& rs = refs_[ref_idx_];
    const std::int64_t slot =
        rs.strides.empty() ? rs.layout->slot(rs.state) : rs.state[0];
    const std::uint64_t byte = static_cast<std::uint64_t>(slot) *
                               static_cast<std::uint64_t>(rs.element_size);
    const std::uint64_t block =
        block_shift_ >= 0 ? byte >> block_shift_ : byte / block_size_;
    out = {rs.ref->array, block, 1,
           rs.ref->kind == ir::AccessKind::kWrite};
    if (++ref_idx_ == refs_.size()) {
      ref_idx_ = 0;
      step();
    }
    return true;
  }

  /// Resident bytes of the walker's own state (the streaming-memory test
  /// compares this against the eager trace's size).
  std::size_t state_bytes() const {
    std::size_t bytes = sizeof(*this) +
                        blocks_.capacity() * sizeof(blocks_[0]) +
                        (iter_.capacity() + lo_.capacity() + hi_.capacity()) *
                            sizeof(std::int64_t);
    for (const auto& rs : refs_) {
      bytes += sizeof(rs) + rs.strides.capacity() * sizeof(std::int64_t) +
               rs.state.capacity() * sizeof(std::int64_t) +
               rs.inc.capacity() * sizeof(std::int64_t) +
               rs.suffix_reset.capacity() * sizeof(std::int64_t);
    }
    return bytes;
  }

 private:
  struct RefState {
    const ir::Reference* ref = nullptr;
    const layout::FileLayout* layout = nullptr;
    std::int64_t element_size = 1;
    /// Non-empty iff the layout has a linear slot form.
    std::vector<std::int64_t> strides;
    /// Running slot (linear layouts, length 1) or element point (length m).
    std::vector<std::int64_t> state;
    /// Per-dimension state delta for a +1 step, depth x |state|.
    std::vector<std::int64_t> inc;
    /// suffix_reset[j] = state delta of resetting dims j..depth-1 from
    /// their upper to their lower bound, (depth+1) x |state| (last row 0).
    /// Depends on the current block's bounds of the parallel dimension.
    std::vector<std::int64_t> suffix_reset;
  };

  /// Positions the odometer at the start of blocks_[block_idx_] and
  /// recomputes every reference's state and reset deltas from scratch
  /// (once per block; all per-element work is incremental).
  void enter_block() {
    for (std::size_t k = 0; k < depth_; ++k) {
      const poly::LoopBound& bound = nest_->iterations().bound(k);
      lo_[k] = k == u_ ? blocks_[block_idx_].lower : bound.lower;
      hi_[k] = k == u_ ? blocks_[block_idx_].upper : bound.upper;
      iter_[k] = lo_[k];
    }
    for (RefState& rs : refs_) {
      const linalg::IntVector point = rs.ref->map.evaluate(iter_);
      const std::size_t m = rs.state.size();
      if (m == 1 && !rs.strides.empty()) {
        std::int64_t slot = 0;
        for (std::size_t r = 0; r < point.size(); ++r) {
          slot += rs.strides[r] * point[r];
        }
        rs.state[0] = slot;
      } else {
        for (std::size_t r = 0; r < m; ++r) rs.state[r] = point[r];
      }
      for (std::size_t j = depth_; j-- > 0;) {
        const std::int64_t span = lo_[j] - hi_[j];
        for (std::size_t r = 0; r < m; ++r) {
          rs.suffix_reset[j * m + r] =
              rs.suffix_reset[(j + 1) * m + r] + span * rs.inc[j * m + r];
        }
      }
    }
  }

  /// Single-reference linear-layout fast path: emits the current element's
  /// block with the count of the consecutive innermost-dimension steps that
  /// stay inside it, then resumes past the run. Coalescing the element-
  /// exact stream yields the same events with the same counts.
  bool next_run(storage::AccessEvent& out) {
    RefState& rs = refs_[0];
    const std::int64_t slot = rs.state[0];
    const std::uint64_t byte = static_cast<std::uint64_t>(slot) *
                               static_cast<std::uint64_t>(rs.element_size);
    const std::uint64_t block =
        block_shift_ >= 0 ? byte >> block_shift_ : byte / block_size_;
    out = {rs.ref->array, block, 1,
           rs.ref->kind == ir::AccessKind::kWrite};
    const std::size_t last = depth_ - 1;
    const std::int64_t room = hi_[last] - iter_[last];
    if (room > 0) {
      const std::int64_t d = rs.inc[last];
      std::int64_t run;
      if (d == 0) {
        run = room;
      } else if (d > 0) {
        // Last slot of the block (the block holds byte < (block+1)*size).
        const std::int64_t hi_slot =
            (static_cast<std::int64_t>((block + 1) * block_size_) - 1) /
            rs.element_size;
        run = (hi_slot - slot) / d;
      } else {
        // First slot of the block, rounded up to a whole element.
        const std::int64_t lo_slot =
            (static_cast<std::int64_t>(block * block_size_) +
             rs.element_size - 1) /
            rs.element_size;
        run = (slot - lo_slot) / -d;
      }
      if (run > room) run = room;
      if (run > 0) {
        // 64-bit: a stride-0 innermost dimension (d == 0) merges its whole
        // remaining trip count into this one event, which can exceed 2^32;
        // the old uint32 accumulation silently wrapped.
        out.element_count += static_cast<std::uint64_t>(run);
        iter_[last] += run;
        rs.state[0] += run * d;
      }
    }
    step();
    return true;
  }

  /// Advances the odometer by one step (dimension u confined to the
  /// current block), moving to the next block when exhausted.
  void step() {
    for (std::size_t k = depth_; k-- > 0;) {
      if (iter_[k] < hi_[k]) {
        ++iter_[k];
        for (std::size_t j = k + 1; j < depth_; ++j) iter_[j] = lo_[j];
        for (RefState& rs : refs_) {
          const std::size_t m = rs.state.size();
          const std::int64_t* inc = rs.inc.data() + k * m;
          const std::int64_t* reset = rs.suffix_reset.data() + (k + 1) * m;
          for (std::size_t r = 0; r < m; ++r) {
            rs.state[r] += inc[r] + reset[r];
          }
        }
        return;
      }
    }
    if (++block_idx_ < blocks_.size()) {
      enter_block();
    } else {
      done_ = true;
    }
  }

  const ir::LoopNest* nest_;
  std::vector<RefState> refs_;
  std::vector<parallel::IterationBlock> blocks_;
  std::size_t depth_;
  std::vector<std::int64_t> iter_;
  std::vector<std::int64_t> lo_;  ///< current per-dim bounds (block-aware)
  std::vector<std::int64_t> hi_;
  std::size_t u_;
  std::uint64_t block_size_;
  int block_shift_;  ///< log2(block_size) when a power of two, else -1
  std::size_t block_idx_ = 0;
  std::size_t ref_idx_ = 0;
  bool merge_runs_ = false;
  bool done_ = false;
};

}  // namespace flo::trace

#include "layout/internode.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "linalg/gcd.hpp"

namespace flo::layout {

namespace {

// slot_of_ sentinels; every real slot must stay below both.
constexpr std::uint32_t kUntouched = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kPending = kUntouched - 1;  ///< touched, no slot yet

std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

/// A linear functional v = w . a of the element a = Q i + q, taken along a
/// nest's odometer: its value at the box's first point, and step[k], its
/// change when loop k advances by one while every loop inside it wraps from
/// its upper back to its lower bound (the trace/walker.hpp technique).
/// Built with checked arithmetic once per reference, so the walk that
/// follows is plain adds — every value it forms is v at a box point.
struct SteppedForm {
  std::int64_t first = 0;
  std::vector<std::int64_t> step;
};

SteppedForm stepped_form(std::span<const std::int64_t> w,
                         const poly::AffineReference& map,
                         const poly::IterationSpace& iters) {
  const linalg::IntMatrix& q = map.access_matrix();
  const std::size_t n = iters.depth();
  SteppedForm f;
  f.first = linalg::dot(w, map.offset());
  f.step.resize(n);
  std::vector<std::int64_t> coeff(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t r = 0; r < w.size(); ++r) {
      coeff[k] = linalg::checked_add(coeff[k],
                                     linalg::checked_mul(w[r], q.at(r, k)));
    }
    f.first = linalg::checked_add(
        f.first, linalg::checked_mul(coeff[k], iters.bound(k).lower));
  }
  std::int64_t inner_span = 0;  // v(inner loops at upper) - v(at lower)
  for (std::size_t k = n; k-- > 0;) {
    f.step[k] = linalg::checked_sub(coeff[k], inner_span);
    const poly::LoopBound& b = iters.bound(k);
    inner_span = linalg::checked_add(
        inner_span, linalg::checked_mul(coeff[k], b.upper - b.lower));
  }
  return f;
}

/// Calls visit(idx, s) at every point of `iters` (at least one loop deep,
/// as LoopNest guarantees) in program order, with idx and s advanced
/// incrementally from their stepped forms.
template <typename Visit>
void walk_box(const poly::IterationSpace& iters, const SteppedForm& idx_form,
              const SteppedForm& s_form, Visit&& visit) {
  std::int64_t idx = idx_form.first;
  std::int64_t s = s_form.first;
  const std::size_t last = iters.depth() - 1;
  const std::int64_t inner_steps = iters.bound(last).upper -
                                   iters.bound(last).lower;
  const std::int64_t inner_idx = idx_form.step[last];
  const std::int64_t inner_s = s_form.step[last];
  // Steps left at each outer level before it wraps.
  std::vector<std::int64_t> left(last);
  for (std::size_t k = 0; k < last; ++k) {
    left[k] = iters.bound(k).upper - iters.bound(k).lower;
  }
  for (;;) {
    visit(idx, s);
    for (std::int64_t j = 0; j < inner_steps; ++j) {
      idx += inner_idx;
      s += inner_s;
      visit(idx, s);
    }
    std::size_t k = last;
    do {
      if (k == 0) return;
      --k;
    } while (left[k] == 0);
    --left[k];
    for (std::size_t j = k + 1; j < last; ++j) {
      left[j] = iters.bound(j).upper - iters.bound(j).lower;
    }
    idx += idx_form.step[k];
    s += s_form.step[k];
  }
}

}  // namespace

parallel::ThreadId InterNodeLayout::owner_of_s(std::int64_t s) const {
  return decomp_.thread_of(
      floor_div(s - partitioning_.beta, partitioning_.alpha));
}

InterNodeLayout::InterNodeLayout(const ir::Program& program,
                                 ir::ArrayId array,
                                 const ArrayPartitioning& partitioning,
                                 const parallel::ParallelSchedule& schedule,
                                 std::vector<PatternLayer> layers,
                                 std::vector<std::size_t> leaf_cache_of_thread,
                                 std::uint64_t block_elems)
    : space_(program.array(array).space()), partitioning_(partitioning) {
  if (!partitioning_.partitioned) {
    throw std::invalid_argument("InterNodeLayout: array not partitioned");
  }
  if (partitioning_.alpha == 0) {
    throw std::invalid_argument("InterNodeLayout: zero parallel stride");
  }
  decomp_ = schedule.decomposition(partitioning_.primary_nest);
  const auto& d = partitioning_.hyperplane;

  // Step I's hyperplane range over the declared box bounds every s the
  // walk forms; checked once here, so s - beta never overflows below.
  linalg::checked_sub(partitioning_.s_min, partitioning_.beta);
  linalg::checked_sub(partitioning_.s_max, partitioning_.beta);
  std::vector<std::int64_t> stride(space_.dims(), 1);  // row-major
  for (std::size_t r = stride.size(); r-- > 1;) {
    stride[r - 1] = linalg::checked_mul(stride[r], space_.extent(r));
  }

  // Pass 1: gather the touched elements of this array across every
  // reference of every nest (Algorithm 1 iterates "each data element
  // accessed by thread j"), with their hyperplane value, per owner. Which
  // reference reaches an element first does not matter: each thread's
  // items are put in (s, idx) order below, and those keys are unique.
  struct Item {
    std::int64_t s;
    std::int64_t idx;
    bool operator<(const Item& o) const {
      return s != o.s ? s < o.s : idx < o.idx;
    }
  };
  std::vector<std::vector<Item>> per_thread(schedule.thread_count());
  slot_of_.assign(static_cast<std::size_t>(space_.element_count()),
                  kUntouched);
  for (const auto& nest : program.nests()) {
    for (const auto& ref : nest.references()) {
      if (ref.array != array) continue;
      // Every index stays inside the box, so the running row-major index
      // is a valid table position at every point.
      if (!ref.map.stays_within(nest.iterations(), space_)) {
        throw std::invalid_argument(
            "InterNodeLayout: reference leaves the array's data space");
      }
      walk_box(nest.iterations(),
               stepped_form(stride, ref.map, nest.iterations()),
               stepped_form(d, ref.map, nest.iterations()),
               [&](std::int64_t idx, std::int64_t s) {
                 std::uint32_t& cell = slot_of_[static_cast<std::size_t>(idx)];
                 if (cell != kUntouched) return;
                 cell = kPending;
                 per_thread[owner_of_s(s)].push_back({s, idx});
               });
    }
  }

  // Chunk size: Step II's S1/l, capped at the largest per-thread touched
  // share so small or sparse arrays stay dense (block-aligned).
  std::size_t max_share = 1;
  for (const auto& items : per_thread) {
    touched_ += items.size();
    max_share = std::max(max_share, items.size());
  }
  const std::uint64_t cap =
      (static_cast<std::uint64_t>(max_share) + block_elems - 1) /
      block_elems * block_elems;
  pattern_ = ChunkPattern(std::move(layers), schedule.thread_count(),
                          static_cast<std::uint64_t>(
                              program.array(array).element_size()),
                          std::move(leaf_cache_of_thread), cap);

  // Pass 2: slab-major order within each thread, then chunk addressing —
  // one Algorithm 1 address per chunk, consecutive slots inside it.
  const std::uint64_t c = pattern_.chunk_elements();
  for (parallel::ThreadId t = 0; t < per_thread.size(); ++t) {
    auto& items = per_thread[t];
    if (!std::is_sorted(items.begin(), items.end())) {
      std::sort(items.begin(), items.end());
    }
    for (std::uint64_t k = 0, x = 0; k < items.size(); k += c, ++x) {
      const std::uint64_t start = pattern_.chunk_start(t, x);
      const std::uint64_t len = std::min<std::uint64_t>(c, items.size() - k);
      if (start >= kPending || len > kPending - start) {
        throw std::length_error(
            "InterNodeLayout: file slots exceed the 32-bit slot table");
      }
      for (std::uint64_t j = 0; j < len; ++j) {
        slot_of_[static_cast<std::size_t>(items[k + j].idx)] =
            static_cast<std::uint32_t>(start + j);
      }
      patterned_slots_ = std::max(patterned_slots_,
                                  static_cast<std::int64_t>(start + len));
    }
  }
}

std::int64_t InterNodeLayout::slot(
    std::span<const std::int64_t> element) const {
  const std::int64_t idx = space_.linearize_row_major(element);
  if (idx >= 0 && idx < static_cast<std::int64_t>(slot_of_.size())) {
    const std::uint32_t s = slot_of_[static_cast<std::size_t>(idx)];
    if (s != kUntouched) return s;
  }
  // Untouched element: lives in the canonical-order tail past the
  // patterned region (kept total and injective for robustness; the
  // program's own traces never reach here).
  return patterned_slots_ + idx;
}

std::int64_t InterNodeLayout::file_slots() const {
  // Upper bound covering the untouched tail.
  return patterned_slots_ + space_.element_count();
}

parallel::ThreadId InterNodeLayout::owner(
    std::span<const std::int64_t> element) const {
  return owner_of_s(linalg::dot(partitioning_.hyperplane, element));
}

std::string InterNodeLayout::describe() const {
  std::string out = "inter-node " + space_.to_string() + " d=(";
  for (std::size_t k = 0; k < partitioning_.hyperplane.size(); ++k) {
    if (k > 0) out += ",";
    out += std::to_string(partitioning_.hyperplane[k]);
  }
  out += ") " + pattern_.describe();
  return out;
}

std::vector<std::size_t> leaf_cache_of_threads(
    const parallel::ParallelSchedule& schedule,
    const storage::StorageTopology& topology, LayerMask mask) {
  std::vector<std::size_t> leaf(schedule.thread_count());
  for (parallel::ThreadId t = 0; t < schedule.thread_count(); ++t) {
    const storage::NodeId io =
        topology.io_node_of(schedule.mapping().node_of(t));
    leaf[t] = mask == LayerMask::kStorageOnly
                  ? topology.storage_node_of_io(io)
                  : io;
  }
  return leaf;
}

FileLayoutPtr build_internode_layout(const ir::Program& program,
                                     ir::ArrayId array,
                                     const parallel::ParallelSchedule& schedule,
                                     const storage::StorageTopology& topology,
                                     LayerMask mask,
                                     const PartitioningOptions& options) {
  return build_internode_layout(
      program, array, partition_array(program, array, schedule, options),
      schedule, topology, mask);
}

FileLayoutPtr build_internode_layout(const ir::Program& program,
                                     ir::ArrayId array,
                                     const ArrayPartitioning& partitioning,
                                     const parallel::ParallelSchedule& schedule,
                                     const storage::StorageTopology& topology,
                                     LayerMask mask) {
  if (!partitioning.partitioned) return nullptr;
  const std::uint64_t block_elems = std::max<std::uint64_t>(
      1, topology.config().block_size /
             static_cast<std::uint64_t>(program.array(array).element_size()));
  return std::make_unique<InterNodeLayout>(
      program, array, partitioning, schedule, pattern_layers(topology, mask),
      leaf_cache_of_threads(schedule, topology, mask), block_elems);
}

}  // namespace flo::layout

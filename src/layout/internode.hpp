// The inter-node file layout: Step I ownership + Step II chunk addressing
// materialized as a FileLayout.
//
// Following Algorithm 1 ("for each data element accessed by thread j"),
// the layout packs the elements the program actually touches: ownership of
// a touched element a follows from the partitioning hyperplane — s = d.a
// determines the parallel-loop coordinate i_u = (s - beta) / alpha of the
// iterations reaching it through the primary reference, and the block
// decomposition maps i_u to its thread. Each thread's touched elements,
// taken in slab-major order, fill its chunks; chunk x starts at the
// Algorithm 1 address. Untouched elements (possible when the affine image
// of the iteration space does not cover the declared box) are appended
// past the patterned region in canonical order, so the mapping stays total
// and injective.
//
// Construction walks every reference's iteration box incrementally (a
// running row-major index and hyperplane value, one add per odometer step)
// and records slots in one 4-byte table over the declared box; ownership
// is derived from the hyperplane, never stored.
#pragma once

#include "ir/program.hpp"
#include "layout/chunk_pattern.hpp"
#include "layout/file_layout.hpp"
#include "layout/partitioning.hpp"
#include "parallel/schedule.hpp"
#include "storage/topology.hpp"

namespace flo::layout {

class InterNodeLayout final : public FileLayout {
 public:
  /// Builds the layout for one partitioned array of `program`.
  /// `partitioning` must have partitioned == true. The chunk pattern is
  /// derived from `layers`/`leaf_cache_of_thread` with the chunk capped at
  /// the largest per-thread touched share (rounded up to `block_elems`).
  /// Throws std::invalid_argument when a reference leaves the array's data
  /// space, and std::length_error when a file slot would not fit the
  /// 32-bit slot table.
  InterNodeLayout(const ir::Program& program, ir::ArrayId array,
                  const ArrayPartitioning& partitioning,
                  const parallel::ParallelSchedule& schedule,
                  std::vector<PatternLayer> layers,
                  std::vector<std::size_t> leaf_cache_of_thread,
                  std::uint64_t block_elems);

  std::int64_t slot(std::span<const std::int64_t> element) const override;
  std::int64_t file_slots() const override;
  std::string describe() const override;

  /// The thread owning a given element (exposed for tests and hints).
  parallel::ThreadId owner(std::span<const std::int64_t> element) const;

  /// Number of elements the program touches in this array.
  std::size_t touched_count() const { return touched_; }

  /// Resident bytes of the slot table (4 per declared element).
  std::size_t table_bytes() const {
    return slot_of_.size() * sizeof(slot_of_[0]);
  }

  const ChunkPattern& pattern() const { return pattern_; }
  const ArrayPartitioning& partitioning() const { return partitioning_; }

 private:
  /// Thread owning hyperplane value s: the block decomposition's owner of
  /// the parallel-loop coordinate floor((s - beta) / alpha).
  parallel::ThreadId owner_of_s(std::int64_t s) const;

  poly::DataSpace space_;
  ArrayPartitioning partitioning_;
  parallel::BlockDecomposition decomp_;  ///< of the primary nest
  ChunkPattern pattern_;

  /// Row-major index -> file slot (Algorithm 1 packing), dense over the
  /// declared box; UINT32_MAX marks elements the program never accesses.
  /// The trace walk calls slot() once per element access, so the lookup
  /// must be a plain load, not a hash probe. Every slot is checked to fit
  /// below the sentinels when the table is filled.
  std::vector<std::uint32_t> slot_of_;
  std::size_t touched_ = 0;
  std::int64_t patterned_slots_ = 0;  ///< end of the chunked region
};

/// Convenience: runs Step I and Step II for one array; returns nullptr when
/// the array cannot be partitioned (caller keeps the canonical layout).
FileLayoutPtr build_internode_layout(const ir::Program& program,
                                     ir::ArrayId array,
                                     const parallel::ParallelSchedule& schedule,
                                     const storage::StorageTopology& topology,
                                     LayerMask mask = LayerMask::kBoth,
                                     const PartitioningOptions& options = {});

/// Step II only, against a precomputed Step I result — the path the
/// optimizer takes now that Step I runs behind a LayoutSolver backend
/// (core/layout_solver.hpp). Returns nullptr when !partitioning.partitioned.
FileLayoutPtr build_internode_layout(const ir::Program& program,
                                     ir::ArrayId array,
                                     const ArrayPartitioning& partitioning,
                                     const parallel::ParallelSchedule& schedule,
                                     const storage::StorageTopology& topology,
                                     LayerMask mask = LayerMask::kBoth);

/// Each thread's cache index at the bottom layer of the Step II pattern:
/// its I/O node for kBoth/kIoOnly, its storage node for kStorageOnly,
/// derived from the schedule's thread -> compute-node mapping.
std::vector<std::size_t> leaf_cache_of_threads(
    const parallel::ParallelSchedule& schedule,
    const storage::StorageTopology& topology, LayerMask mask);

}  // namespace flo::layout

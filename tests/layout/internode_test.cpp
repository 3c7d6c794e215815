#include "layout/internode.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "ir/builder.hpp"
#include "storage/topology.hpp"
#include "testing/generator.hpp"

namespace flo::layout {
namespace {

storage::StorageTopology small_topology() {
  storage::TopologyConfig c;
  c.compute_nodes = 8;
  c.io_nodes = 4;
  c.storage_nodes = 2;
  c.block_size = 64;           // 8 elements of 8 bytes
  c.io_cache_bytes = 1024;     // 16 blocks
  c.storage_cache_bytes = 2048;
  return storage::StorageTopology(c);
}

ir::Program transposed_program(std::int64_t n = 32) {
  return ir::ProgramBuilder("p")
      .array("A", {n, n})
      .nest("sweep", {{0, n - 1}, {0, n - 1}}, 0)
      .read("A", {{0, 1}, {1, 0}})
      .done()
      .build();
}

TEST(InterNodeLayoutTest, SlotsAreInjective) {
  const auto p = transposed_program();
  const parallel::ParallelSchedule schedule(p, 8);
  const auto layout =
      build_internode_layout(p, 0, schedule, small_topology());
  ASSERT_NE(layout, nullptr);
  const auto& space = p.array(0).space();
  std::set<std::int64_t> slots;
  for (std::int64_t i = 0; i < space.element_count(); ++i) {
    const std::int64_t slot = layout->slot(space.delinearize_row_major(i));
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, layout->file_slots());
    EXPECT_TRUE(slots.insert(slot).second) << "duplicate slot " << slot;
  }
}

TEST(InterNodeLayoutTest, OwnershipFollowsColumnSlabs) {
  // Transposed access parallel on i1: thread t owns column slab t.
  const auto p = transposed_program(32);
  const parallel::ParallelSchedule schedule(p, 8);
  const auto generic =
      build_internode_layout(p, 0, schedule, small_topology());
  ASSERT_NE(generic, nullptr);
  const auto* layout =
      dynamic_cast<const InterNodeLayout*>(generic.get());
  ASSERT_NE(layout, nullptr);
  // Column c belongs to thread c / 4 (32 columns over 8 threads).
  for (std::int64_t r = 0; r < 32; ++r) {
    for (std::int64_t c = 0; c < 32; ++c) {
      EXPECT_EQ(layout->owner(std::vector<std::int64_t>{r, c}),
                static_cast<parallel::ThreadId>(c / 4))
          << "element (" << r << ", " << c << ")";
    }
  }
}

TEST(InterNodeLayoutTest, ThreadDataIsChunkContiguous) {
  const auto p = transposed_program(32);
  const parallel::ParallelSchedule schedule(p, 8);
  const auto generic =
      build_internode_layout(p, 0, schedule, small_topology());
  const auto* layout = dynamic_cast<const InterNodeLayout*>(generic.get());
  ASSERT_NE(layout, nullptr);
  const std::uint64_t c = layout->pattern().chunk_elements();

  // Collect each thread's slots; they must exactly fill chunks whose
  // starts match Algorithm 1's closed form.
  std::map<parallel::ThreadId, std::set<std::int64_t>> slots_of;
  const auto& space = p.array(0).space();
  for (std::int64_t i = 0; i < space.element_count(); ++i) {
    const auto point = space.delinearize_row_major(i);
    slots_of[layout->owner(point)].insert(layout->slot(point));
  }
  for (const auto& [thread, slots] : slots_of) {
    std::uint64_t x = 0;
    auto it = slots.begin();
    while (it != slots.end()) {
      const std::uint64_t start = layout->pattern().chunk_start(thread, x);
      for (std::uint64_t e = 0; e < c && it != slots.end(); ++e, ++it) {
        EXPECT_EQ(static_cast<std::uint64_t>(*it), start + e)
            << "thread " << thread << " chunk " << x;
      }
      ++x;
    }
  }
}

TEST(InterNodeLayoutTest, UnpartitionableArrayReturnsNull) {
  const ir::Program p = ir::ProgramBuilder("p")
                            .array("X", {32, 32})
                            .nest("n", {{0, 31}, {0, 31}, {0, 31}}, 0)
                            .read("X", {{0, 0, 1}, {0, 1, 0}})
                            .done()
                            .build();
  const parallel::ParallelSchedule schedule(p, 8);
  EXPECT_EQ(build_internode_layout(p, 0, schedule, small_topology()),
            nullptr);
}

TEST(InterNodeLayoutTest, RequiresPartitionedInput) {
  const auto p = transposed_program();
  const parallel::ParallelSchedule schedule(p, 8);
  ArrayPartitioning not_partitioned;
  not_partitioned.transform = linalg::IntMatrix::identity(2);
  EXPECT_THROW(InterNodeLayout(p, 0, not_partitioned, schedule,
                               {{1024, 4}}, {}, 8),
               std::invalid_argument);
}

TEST(InterNodeLayoutTest, TouchedCountMatchesAccessImage) {
  const auto p = transposed_program(32);
  const parallel::ParallelSchedule schedule(p, 8);
  const auto generic =
      build_internode_layout(p, 0, schedule, small_topology());
  const auto* layout = dynamic_cast<const InterNodeLayout*>(generic.get());
  ASSERT_NE(layout, nullptr);
  // The transposed sweep touches every element exactly once.
  EXPECT_EQ(layout->touched_count(), 32u * 32u);
}

TEST(InterNodeLayoutTest, SparseImagePacksOnlyTouchedElements) {
  // A strided reference touches one element in four: the layout packs the
  // touched quarter contiguously and parks the rest past the pattern.
  const auto p = ir::ProgramBuilder("sparse")
                     .array("A", {128, 32})
                     .nest("n", {{0, 31}, {0, 31}}, 0)
                     .read("A", {{4, 0}, {0, 1}})
                     .done()
                     .build();
  const parallel::ParallelSchedule schedule(p, 8);
  const auto generic =
      build_internode_layout(p, 0, schedule, small_topology());
  const auto* layout = dynamic_cast<const InterNodeLayout*>(generic.get());
  ASSERT_NE(layout, nullptr);
  EXPECT_EQ(layout->touched_count(), 32u * 32u);
  // Touched elements land inside the patterned region...
  const std::int64_t touched_slot =
      layout->slot(std::vector<std::int64_t>{4, 0});
  // ...while untouched ones land past it.
  const std::int64_t untouched_slot =
      layout->slot(std::vector<std::int64_t>{1, 0});
  EXPECT_LT(touched_slot, untouched_slot);
  EXPECT_LT(untouched_slot, layout->file_slots());
}

TEST(InterNodeLayoutTest, UntouchedElementsFollowTheBlockDecomposition) {
  // Rows 4r are touched; rows 4r+1..4r+3 are not. Every row of a 4-row
  // slab shares its hyperplane slab, so its owner is the owner of the
  // touched row that starts the slab: rows 0..15 belong to thread 0
  // (iterations 0..3 of the parallel loop, one block per thread).
  const auto p = ir::ProgramBuilder("sparse")
                     .array("A", {128, 32})
                     .nest("n", {{0, 31}, {0, 31}}, 0)
                     .read("A", {{4, 0}, {0, 1}})
                     .done()
                     .build();
  const parallel::ParallelSchedule schedule(p, 8);
  const auto generic =
      build_internode_layout(p, 0, schedule, small_topology());
  const auto* layout = dynamic_cast<const InterNodeLayout*>(generic.get());
  ASSERT_NE(layout, nullptr);
  EXPECT_EQ(layout->owner(std::vector<std::int64_t>{5, 0}), 0u);
  std::size_t wrong = 0;
  for (std::int64_t r = 0; r < 128; ++r) {
    for (std::int64_t c = 0; c < 32; ++c) {
      const auto got = layout->owner(std::vector<std::int64_t>{r, c});
      const auto want = layout->owner(std::vector<std::int64_t>{r - r % 4, c});
      EXPECT_EQ(want, static_cast<parallel::ThreadId>(r / 16));
      if (got != want) ++wrong;
    }
  }
  EXPECT_EQ(wrong, 0u);
}

// Reference packer: the per-point evaluate-and-sort construction of
// Algorithm 1 written the plain way, for the equivalence test below.
struct PackedReference {
  std::vector<std::int64_t> slot;  ///< per row-major element
  std::vector<parallel::ThreadId> owner;
  std::size_t touched = 0;
  std::int64_t file_slots = 0;
};

std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

PackedReference reference_pack(const ir::Program& p, ir::ArrayId array,
                               const ArrayPartitioning& part,
                               const parallel::ParallelSchedule& schedule,
                               const storage::StorageTopology& topology,
                               LayerMask mask) {
  const auto& space = p.array(array).space();
  const auto& decomp = schedule.decomposition(part.primary_nest);
  const std::int64_t count = space.element_count();
  PackedReference out;
  out.slot.assign(static_cast<std::size_t>(count), -1);
  out.owner.resize(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t s =
        linalg::dot(part.hyperplane, space.delinearize_row_major(i));
    out.owner[i] = decomp.thread_of(floor_div(s - part.beta, part.alpha));
  }

  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> per_thread(
      schedule.thread_count());
  for (const auto& nest : p.nests()) {
    std::vector<std::int64_t> iter = nest.iterations().first();
    do {
      for (const auto& ref : nest.references()) {
        if (ref.array != array) continue;
        const auto element = ref.map.evaluate(iter);
        const std::int64_t idx = space.linearize_row_major(element);
        if (out.slot[idx] != -1) continue;
        out.slot[idx] = -2;
        per_thread[out.owner[idx]].push_back(
            {linalg::dot(part.hyperplane, element), idx});
      }
    } while (nest.iterations().next(iter));
  }

  std::size_t max_share = 1;
  for (const auto& items : per_thread) {
    out.touched += items.size();
    max_share = std::max(max_share, items.size());
  }
  const std::uint64_t element_size =
      static_cast<std::uint64_t>(p.array(array).element_size());
  const std::uint64_t block_elems = std::max<std::uint64_t>(
      1, topology.config().block_size / element_size);
  const ChunkPattern pattern(
      pattern_layers(topology, mask), schedule.thread_count(), element_size,
      leaf_cache_of_threads(schedule, topology, mask),
      (max_share + block_elems - 1) / block_elems * block_elems);
  const std::uint64_t c = pattern.chunk_elements();
  std::int64_t patterned = 0;
  for (parallel::ThreadId t = 0; t < per_thread.size(); ++t) {
    auto& items = per_thread[t];
    std::sort(items.begin(), items.end());
    for (std::size_t k = 0; k < items.size(); ++k) {
      const auto slot =
          static_cast<std::int64_t>(pattern.chunk_start(t, k / c) + k % c);
      out.slot[items[k].second] = slot;
      patterned = std::max(patterned, slot + 1);
    }
  }
  for (std::int64_t i = 0; i < count; ++i) {
    if (out.slot[i] == -1) out.slot[i] = patterned + i;
  }
  out.file_slots = patterned + count;
  return out;
}

/// Builds every partitioned array's layout under `mask` and compares it
/// with the reference packer element by element; returns how many layouts
/// were compared.
std::size_t expect_matches_reference(const ir::Program& p,
                                     const parallel::ParallelSchedule& schedule,
                                     const storage::StorageTopology& topology,
                                     LayerMask mask) {
  std::size_t compared = 0;
  for (ir::ArrayId a = 0; a < p.arrays().size(); ++a) {
    const ArrayPartitioning part = partition_array(p, a, schedule);
    const auto generic =
        build_internode_layout(p, a, part, schedule, topology, mask);
    if (!part.partitioned) {
      EXPECT_EQ(generic, nullptr);
      continue;
    }
    const auto* layout = dynamic_cast<const InterNodeLayout*>(generic.get());
    if (layout == nullptr) {
      ADD_FAILURE() << "array " << a << " partitioned but no layout built";
      continue;
    }
    SCOPED_TRACE("array " + p.array(a).name() + " mask " +
                 layer_mask_name(mask) + " " + layout->describe());
    const PackedReference want =
        reference_pack(p, a, part, schedule, topology, mask);
    const auto& space = p.array(a).space();
    EXPECT_EQ(layout->touched_count(), want.touched);
    EXPECT_EQ(layout->file_slots(), want.file_slots);
    EXPECT_EQ(layout->table_bytes(),
              want.slot.size() * sizeof(std::uint32_t));
    std::size_t mismatched = 0;
    for (std::int64_t i = 0; i < space.element_count(); ++i) {
      const auto e = space.delinearize_row_major(i);
      if (layout->slot(e) != want.slot[i] ||
          layout->owner(e) != want.owner[i]) {
        if (++mismatched <= 3) {
          ADD_FAILURE() << "element " << i << ": slot " << layout->slot(e)
                        << " owner " << layout->owner(e) << ", reference slot "
                        << want.slot[i] << " owner " << want.owner[i];
        }
      }
    }
    EXPECT_EQ(mismatched, 0u);
    ++compared;
  }
  return compared;
}

constexpr LayerMask kMasks[] = {LayerMask::kBoth, LayerMask::kIoOnly,
                                LayerMask::kStorageOnly};

TEST(InterNodeLayoutTest, MatchesReferencePackerOnRandomPrograms) {
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const testing::FuzzCase fc = testing::random_case(rng);
    const parallel::ParallelSchedule schedule(fc.program, fc.system.threads,
                                              fc.system.mapping);
    const storage::StorageTopology topology(fc.system.config);
    for (const LayerMask mask : kMasks) {
      compared += expect_matches_reference(fc.program, schedule, topology,
                                           mask);
    }
  }
  // The sample must actually exercise Step II, not just skip it.
  EXPECT_GE(compared, 600u) << compared;
}

TEST(InterNodeLayoutTest, MatchesReferencePackerOnHandWrittenNests) {
  const std::vector<ir::Program> programs = {
      // Multi-reference stencil: the references overlap, and the later
      // ones discover only the boundary elements.
      ir::ProgramBuilder("stencil")
          .array("A", {34, 34})
          .nest("n", {{0, 31}, {0, 31}}, 1)
          .read_ofs("A", {{1, 0}, {0, 1}}, {1, 0})
          .read_ofs("A", {{1, 0}, {0, 1}}, {0, 1})
          .read_ofs("A", {{1, 0}, {0, 1}}, {2, 1})
          .write_ofs("A", {{1, 0}, {0, 1}}, {1, 2})
          .done()
          .build(),
      // Negative coefficients: both dimensions reversed, and a second
      // nest reaching the array transposed.
      ir::ProgramBuilder("reversed")
          .array("A", {24, 40})
          .nest("rev", {{0, 23}, {0, 39}}, 0)
          .read_ofs("A", {{-1, 0}, {0, -1}}, {23, 39})
          .done()
          .nest("tr", {{0, 39}, {0, 23}}, 1)
          .write("A", {{0, 1}, {1, 0}})
          .done()
          .build(),
      // Strided sparse image with a negative lower bound and a 3-deep
      // nest whose middle loop does not index the array.
      ir::ProgramBuilder("strided")
          .array("A", {64, 3, 30})
          .nest("n", {{-4, 11}, {0, 2}, {0, 9}}, 0)
          .read_ofs("A", {{4, 0, 0}, {0, 0, 0}, {0, 0, 3}}, {16, 1, 2})
          .done()
          .build(),
  };
  const storage::StorageTopology topology = small_topology();
  for (const auto& p : programs) {
    SCOPED_TRACE(p.name());
    std::size_t compared = 0;
    for (const auto mapping : {parallel::MappingKind::kIdentity,
                               parallel::MappingKind::kPermutation2}) {
      const parallel::ParallelSchedule schedule(p, 8, mapping);
      for (const LayerMask mask : kMasks) {
        compared += expect_matches_reference(p, schedule, topology, mask);
      }
    }
    EXPECT_GT(compared, 0u);
  }
}

TEST(InterNodeLayoutTest, SlotsPastThe32BitTableThrowLengthError) {
  // A 64 GiB block makes the chunk (capped at one block) 2^33 elements, so
  // every thread but the first starts its data past 2^32: the layout must
  // refuse to narrow its slots instead of wrapping them.
  storage::TopologyConfig c;
  c.compute_nodes = 8;
  c.io_nodes = 4;
  c.storage_nodes = 2;
  c.block_size = 1ull << 36;
  c.io_cache_bytes = 1ull << 37;
  c.storage_cache_bytes = 1ull << 38;
  const storage::StorageTopology huge_blocks(c);
  const auto p = transposed_program(8);
  const parallel::ParallelSchedule schedule(p, 8);
  EXPECT_THROW(build_internode_layout(p, 0, schedule, huge_blocks),
               std::length_error);
}

TEST(InterNodeLayoutTest, LeafCacheMappingFollowsThreadMapping) {
  const auto p = transposed_program();
  parallel::ParallelSchedule schedule(p, 8);
  const auto topo = small_topology();
  const auto identity =
      leaf_cache_of_threads(schedule, topo, LayerMask::kBoth);
  EXPECT_EQ(identity, (std::vector<std::size_t>{0, 0, 1, 1, 2, 2, 3, 3}));
  const auto storage_only =
      leaf_cache_of_threads(schedule, topo, LayerMask::kStorageOnly);
  EXPECT_EQ(storage_only,
            (std::vector<std::size_t>{0, 0, 0, 0, 1, 1, 1, 1}));
}

TEST(InterNodeLayoutTest, DifferentMappingsChangeLayout) {
  const auto p = transposed_program();
  parallel::ParallelSchedule identity(p, 8);
  parallel::ParallelSchedule permuted(p, 8,
                                      parallel::MappingKind::kPermutation2);
  const auto a = build_internode_layout(p, 0, identity, small_topology());
  const auto b = build_internode_layout(p, 0, permuted, small_topology());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  bool differs = false;
  const auto& space = p.array(0).space();
  for (std::int64_t i = 0; i < space.element_count(); ++i) {
    const auto point = space.delinearize_row_major(i);
    if (a->slot(point) != b->slot(point)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(InterNodeLayoutTest, DescribeMentionsHyperplane) {
  const auto p = transposed_program();
  const parallel::ParallelSchedule schedule(p, 8);
  const auto layout =
      build_internode_layout(p, 0, schedule, small_topology());
  ASSERT_NE(layout, nullptr);
  EXPECT_NE(layout->describe().find("inter-node"), std::string::npos);
  EXPECT_NE(layout->describe().find("d=(0,1)"), std::string::npos);
}

TEST(InterNodeLayoutTest, IoOnlyMaskBuildsSingleLayerPattern) {
  const auto p = transposed_program();
  const parallel::ParallelSchedule schedule(p, 8);
  const auto generic = build_internode_layout(p, 0, schedule,
                                              small_topology(),
                                              LayerMask::kIoOnly);
  const auto* layout = dynamic_cast<const InterNodeLayout*>(generic.get());
  ASSERT_NE(layout, nullptr);
  // One real layer plus the virtual root.
  EXPECT_EQ(layout->pattern().pattern_elements().size(), 2u);
}

}  // namespace
}  // namespace flo::layout

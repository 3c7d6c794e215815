#include "baselines/dimension_reindexing.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "ir/builder.hpp"
#include "layout/permutation.hpp"
#include "util/rng.hpp"

namespace flo::baselines {
namespace {

ir::Program two_array_program() {
  return ir::ProgramBuilder("p")
      .array("A", {16, 16})
      .array("B", {16, 16})
      .nest("n", {{0, 15}, {0, 15}}, 0)
      .read("A", {{0, 1}, {1, 0}})
      .read("B", {{1, 0}, {0, 1}})
      .done()
      .build();
}

TEST(DimensionReindexingTest, PicksTheProfiledBestPermutation) {
  const auto p = two_array_program();
  // A fake profiler preferring column-major for A and row-major for B.
  const auto profiler = [&](const layout::LayoutMap& layouts) {
    double cost = 0;
    const auto* a = dynamic_cast<const layout::DimensionPermutationLayout*>(
        layouts[0].get());
    const auto* b = dynamic_cast<const layout::DimensionPermutationLayout*>(
        layouts[1].get());
    cost += a->order() == std::vector<std::size_t>{1, 0} ? 1.0 : 2.0;
    cost += b->order() == std::vector<std::size_t>{0, 1} ? 1.0 : 2.0;
    return cost;
  };
  const ReindexResult result = apply_dimension_reindexing(p, profiler);
  const auto* a = dynamic_cast<const layout::DimensionPermutationLayout*>(
      result.layouts[0].get());
  const auto* b = dynamic_cast<const layout::DimensionPermutationLayout*>(
      result.layouts[1].get());
  EXPECT_EQ(a->order(), (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(b->order(), (std::vector<std::size_t>{0, 1}));
  // Initial profile + one alternative per 2-D array.
  EXPECT_EQ(result.evaluations, 3u);
}

TEST(DimensionReindexingTest, KeepsIdentityWhenBest) {
  const auto p = two_array_program();
  std::size_t calls = 0;
  const auto profiler = [&](const layout::LayoutMap&) {
    // First call (identity) is cheapest; all alternatives cost more.
    return calls++ == 0 ? 1.0 : 5.0;
  };
  const ReindexResult result = apply_dimension_reindexing(p, profiler);
  for (std::size_t a = 0; a < 2; ++a) {
    const auto* layout =
        dynamic_cast<const layout::DimensionPermutationLayout*>(
            result.layouts[a].get());
    EXPECT_EQ(layout->order(), (std::vector<std::size_t>{0, 1}));
  }
}

TEST(DimensionReindexingTest, TiesKeepCurrentLayout) {
  const auto p = two_array_program();
  const auto profiler = [](const layout::LayoutMap&) { return 1.0; };
  const ReindexResult result = apply_dimension_reindexing(p, profiler);
  const auto* a = dynamic_cast<const layout::DimensionPermutationLayout*>(
      result.layouts[0].get());
  EXPECT_EQ(a->order(), (std::vector<std::size_t>{0, 1}));
}

TEST(DimensionReindexingTest, EvaluationCountScalesWithDims) {
  const auto p = ir::ProgramBuilder("p3")
                     .array("C", {8, 8, 8})
                     .nest("n", {{0, 7}, {0, 7}, {0, 7}}, 0)
                     .read("C", {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
                     .done()
                     .build();
  std::size_t calls = 0;
  const auto profiler = [&](const layout::LayoutMap&) {
    return static_cast<double>(++calls);
  };
  const ReindexResult result = apply_dimension_reindexing(p, profiler);
  // Initial + 5 alternative 3-D permutations ("six possible file layouts").
  EXPECT_EQ(result.evaluations, 6u);
}

// --- bounded search -------------------------------------------------------

ir::Program mixed_rank_program() {
  return ir::ProgramBuilder("mixed")
      .array("A", {8, 8})
      .array("B", {4, 4, 4})
      .array("C", {8, 8})
      .nest("n", {{0, 3}, {0, 3}, {0, 3}}, 0)
      .read("A", {{1, 0, 0}, {0, 1, 0}})
      .read("B", {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
      .read("C", {{0, 1, 0}, {1, 0, 0}})
      .done()
      .build();
}

std::vector<std::vector<std::size_t>> orders_of(const layout::LayoutMap& map) {
  std::vector<std::vector<std::size_t>> out;
  for (const auto& l : map) {
    out.push_back(
        dynamic_cast<const layout::DimensionPermutationLayout&>(*l).order());
  }
  return out;
}

/// A deterministic cost per full candidate: the sum of per-(array, order)
/// costs drawn from a tiny set, so exact ties between candidates are
/// common.
class TieCosts {
 public:
  explicit TieCosts(std::uint64_t seed) : rng_(seed) {}
  double operator()(const layout::LayoutMap& map) {
    double cost = 0;
    const auto orders = orders_of(map);
    for (std::size_t a = 0; a < orders.size(); ++a) {
      auto [it, fresh] = table_.try_emplace({a, orders[a]}, 0.0);
      if (fresh) it->second = static_cast<double>(1 + rng_.next_below(3));
      cost += it->second;
    }
    return cost;
  }

 private:
  util::Rng rng_;
  std::map<std::pair<std::size_t, std::vector<std::size_t>>, double> table_;
};

TEST(DimensionReindexingTest, BoundedSearchMatchesUnboundedWithTies) {
  const auto p = mixed_rank_program();
  // Three ways a bounded profiler may answer for a loser: exactly the
  // bound, somewhat above it, and +inf.
  const auto loser_answers = {0.0, 0.5,
                               std::numeric_limits<double>::infinity()};
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    // One cost table per seed, shared by both searches (it is filled
    // lazily, so the unbounded search fills it first).
    TieCosts costs(seed);
    const auto unbounded_profiler = [&](const layout::LayoutMap& map) {
      return costs(map);
    };
    const ReindexResult unbounded =
        apply_dimension_reindexing(p, unbounded_profiler);
    for (const double over : loser_answers) {
      std::vector<double> bounds;
      const auto bounded_profiler = [&](const layout::LayoutMap& map,
                                        double bound) {
        bounds.push_back(bound);
        const double t = costs(map);
        return t < bound ? t : bound + over;
      };
      const ReindexResult bounded =
          apply_dimension_reindexing(p, bounded_profiler);
      EXPECT_EQ(orders_of(bounded.layouts), orders_of(unbounded.layouts))
          << "seed " << seed << ", loser answer bound + " << over;
      EXPECT_EQ(bounded.evaluations, unbounded.evaluations);
      // The first probe is unbounded; later bounds only ever tighten.
      ASSERT_FALSE(bounds.empty());
      EXPECT_TRUE(std::isinf(bounds.front()));
      for (std::size_t i = 1; i < bounds.size(); ++i) {
        EXPECT_LE(bounds[i], bounds[i - 1]);
      }
    }
  }
}

TEST(DimensionReindexingTest, BoundedSearchKeepsEarliestCandidateOnTie) {
  const auto p = two_array_program();
  // A's alternative ties the identity exactly; B's alternative is faster.
  const auto profiler = [&](const layout::LayoutMap& map, double bound) {
    const auto orders = orders_of(map);
    const double t = orders[1] == std::vector<std::size_t>{1, 0} ? 1.0 : 2.0;
    return t < bound ? t : bound;  // a tie comes back as the bound itself
  };
  const ReindexResult result = apply_dimension_reindexing(p, profiler);
  EXPECT_EQ(orders_of(result.layouts),
            (std::vector<std::vector<std::size_t>>{{0, 1}, {1, 0}}));
  EXPECT_EQ(result.evaluations, 3u);
}

}  // namespace
}  // namespace flo::baselines

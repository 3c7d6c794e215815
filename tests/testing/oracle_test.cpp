#include "testing/oracles.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "testing/generator.hpp"

namespace flo::testing {
namespace {

TEST(Oracles, RegistryHoldsTheDocumentedSet) {
  const auto& oracles = all_oracles();
  ASSERT_EQ(oracles.size(), 14u);
  const char* expected[] = {
      "parse-roundtrip",  "parse-total",        "count-conservation",
      "stream-vs-eager",  "extent-equivalence", "event-vs-clock",
      "tenant-isolation", "qos-neutrality",     "sim-stop-time",
      "layout-bijection", "solver-agreement",   "engine-workers",
      "wire-roundtrip",   "conversion-roundtrip"};
  for (std::size_t i = 0; i < oracles.size(); ++i) {
    EXPECT_EQ(oracles[i].name, expected[i]);
    EXPECT_FALSE(oracles[i].description.empty());
  }
  // The closed-form oracles are the only ones a huge-trip case may run.
  EXPECT_FALSE(oracles[0].element_walk);
  EXPECT_FALSE(oracles[1].element_walk);
  EXPECT_FALSE(oracles[2].element_walk);
  EXPECT_TRUE(oracles[3].element_walk);
}

TEST(Oracles, GlobSelection) {
  EXPECT_EQ(select_oracles("*").size(), all_oracles().size());
  EXPECT_EQ(select_oracles("parse-*").size(), 2u);
  EXPECT_EQ(select_oracles("wire-roundtrip").size(), 1u);
  EXPECT_EQ(select_oracles("event-vs-clock").size(), 1u);
  EXPECT_EQ(select_oracles("*-roundtrip").size(), 3u);
  EXPECT_TRUE(select_oracles("no-such-oracle").empty());
}

TEST(Oracles, AllOraclesHoldOnGeneratedCases) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    util::Rng rng(seed);
    const FuzzCase fuzz_case = random_case(rng);
    for (const Oracle& oracle : all_oracles()) {
      const auto failure = run_oracle(oracle, fuzz_case);
      EXPECT_FALSE(failure) << "seed " << seed << " oracle " << oracle.name
                            << ": " << failure.value_or("");
    }
  }
}

TEST(Oracles, ClosedFormOraclesHoldOnHugeCases) {
  for (std::uint64_t seed = 200; seed < 203; ++seed) {
    util::Rng rng(seed);
    const FuzzCase fuzz_case = random_case(rng, /*huge=*/true);
    for (const Oracle& oracle : all_oracles()) {
      if (oracle.element_walk) continue;
      const auto failure = run_oracle(oracle, fuzz_case);
      EXPECT_FALSE(failure) << "seed " << seed << " oracle " << oracle.name
                            << ": " << failure.value_or("");
    }
  }
}

TEST(Oracles, RunOracleTranslatesEscapedExceptions) {
  Oracle throwing{"throwing", "always throws", false,
                  [](const FuzzCase&) -> std::optional<std::string> {
                    throw std::runtime_error("boom");
                  }};
  util::Rng rng(1);
  const FuzzCase fuzz_case = random_case(rng);
  const auto failure = run_oracle(throwing, fuzz_case);
  ASSERT_TRUE(failure);
  EXPECT_NE(failure->find("boom"), std::string::npos);
}

}  // namespace
}  // namespace flo::testing

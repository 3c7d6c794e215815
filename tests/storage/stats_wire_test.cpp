// Wire-format coverage for the sim-v5 revision (DESIGN.md §4k): the
// per-tenant QoS fields ride at the end of each tenant record, doubles
// stay C99 hexfloats (bit-exact round trips), lines with an older tag are
// rejected, and trailing fields are rejected.
#include "storage/stats.hpp"

#include <gtest/gtest.h>

#include <string>

namespace flo::storage {
namespace {

SimulationResult sample_result() {
  SimulationResult r;
  r.io = {100, 60, 40, 12, 40 * 2048};
  r.storage = {40, 10, 30, 3, 30 * 2048};
  r.exec_time = 0.1 + 0.2;  // not exactly representable: hexfloat territory
  r.thread_time = {0.3, 1.0 / 3.0};
  r.disk_reads = 30;
  r.accesses = 100;
  r.elements = 400;

  TenantStats t0;
  t0.accesses = 70;
  t0.elements = 280;
  t0.io_lookups = 70;
  t0.io_hits = 45;
  t0.busy_time = 2.0 / 7.0;
  t0.io_evictions = 9;
  t0.storage_evictions = 2;
  t0.occupancy_peak = 5;
  TenantStats t1;
  t1.accesses = 30;
  t1.io_lookups = 30;
  t1.io_hits = 15;
  t1.busy_time = 0.125;
  r.tenants = {t0, t1};
  return r;
}

/// Drops the last `n` space-separated tokens from a wire line.
std::string drop_tokens(std::string line, int n) {
  for (int i = 0; i < n; ++i) {
    line.resize(line.find_last_of(' '));
  }
  return line;
}

TEST(StatsWireTest, V5RoundTripIsBitExact) {
  const SimulationResult result = sample_result();
  const std::string wire = to_wire(result);
  EXPECT_EQ(wire.rfind("sim-v5 ", 0), 0u) << wire;
  const auto back = from_wire(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, result);  // doubles included — hexfloats are lossless
  ASSERT_EQ(back->tenants.size(), 2u);
  EXPECT_EQ(back->tenants[0].io_evictions, 9u);
  EXPECT_EQ(back->tenants[0].storage_evictions, 2u);
  EXPECT_EQ(back->tenants[0].occupancy_peak, 5u);
  EXPECT_DOUBLE_EQ(back->tenants[0].busy_time, 2.0 / 7.0);
}

TEST(StatsWireTest, OlderVersionTagsAreRejected) {
  // Only sim-v5 parses; a journal recomputes a cell whose line is older.
  // Each old tag is rejected both on a current body and on the body that
  // version actually wrote (per tenant record: no QoS fields in v4; no
  // tenant slices before v4, no bounds before v3, no queue stats in v1).
  const std::string v5 = to_wire(sample_result());
  SimulationResult one_tenant = sample_result();
  one_tenant.tenants.resize(1);
  const std::string v5_one = to_wire(one_tenant);
  SimulationResult no_tenants = sample_result();
  no_tenants.tenants.clear();
  const std::string v5_none = to_wire(no_tenants);
  const auto retag = [](std::string line, const char* tag) {
    return line.replace(0, 6, tag);
  };
  const std::string written[] = {
      retag(drop_tokens(v5_none, 12), "sim-v1"),
      retag(drop_tokens(v5_none, 3), "sim-v2"),
      retag(drop_tokens(v5_none, 1), "sim-v3"),
      retag(drop_tokens(v5_one, 3), "sim-v4"),
  };
  for (const std::string& line : written) {
    EXPECT_FALSE(from_wire(line).has_value()) << line;
    EXPECT_FALSE(from_wire(retag(v5, line.substr(0, 6).c_str())).has_value())
        << line.substr(0, 6);
  }
  EXPECT_TRUE(from_wire(v5).has_value());
}

TEST(StatsWireTest, TrailingFieldsAreRejected) {
  const std::string wire = to_wire(sample_result());
  EXPECT_FALSE(from_wire(wire + " 7").has_value());
}

TEST(StatsWireTest, TruncatedLinesAreRejectedNotCrashed) {
  const std::string wire = to_wire(sample_result());
  for (std::size_t cut = 0; cut < wire.size(); cut += 11) {
    EXPECT_FALSE(from_wire(wire.substr(0, cut)).has_value()) << cut;
  }
}

}  // namespace
}  // namespace flo::storage

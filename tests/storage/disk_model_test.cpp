#include "storage/disk_model.hpp"

#include "storage/network_model.hpp"

#include <gtest/gtest.h>

namespace flo::storage {
namespace {

DiskModel default_model() { return DiskModel{}; }

TEST(DiskArrayTest, SequentialAccessIsTransferLimited) {
  DiskArray disks(1, default_model(), 2048);
  const double scattered = disks.service(0, 5000);  // long seek from LBA 0
  const double next = disks.service(0, 5001);
  // Adjacent block streams with no seek or rotation.
  EXPECT_LT(next, scattered);
  EXPECT_NEAR(next, 2048.0 / default_model().bandwidth, 1e-9);
}

TEST(DiskArrayTest, SameBlockCostsTransferOnly) {
  DiskArray disks(1, default_model(), 2048);
  disks.service(0, 100);
  const double again = disks.service(0, 100);
  EXPECT_NEAR(again, 2048.0 / default_model().bandwidth, 1e-9);
}

TEST(DiskArrayTest, LongerSeeksCostMore) {
  DiskArray disks(1, default_model(), 2048);
  disks.service(0, 0);
  const double small = disks.peek_service(0, 100);
  const double large = disks.peek_service(0, 1ull << 21);
  EXPECT_GT(large, small);
  // Both scattered accesses include the rotational delay (3 ms at 10k RPM).
  EXPECT_GT(small, 0.5 * 60.0 / 10000.0);
}

TEST(DiskArrayTest, SeekBoundedByMaxSeek) {
  const DiskModel m = default_model();
  DiskArray disks(1, m, 2048);
  disks.service(0, 0);
  const double worst = disks.peek_service(0, m.capacity_blocks * 10);
  const double rotation = 0.5 * 60.0 / m.rpm;
  EXPECT_LE(worst, m.max_seek + rotation + 2048.0 / m.bandwidth + 1e-9);
}

TEST(DiskArrayTest, PeekDoesNotMoveHead) {
  DiskArray disks(1, default_model(), 2048);
  disks.service(0, 0);
  const double a = disks.peek_service(0, 500);
  const double b = disks.peek_service(0, 500);
  EXPECT_EQ(a, b);
  // service() does move it: after reading 500 the same block is cheap.
  disks.service(0, 500);
  EXPECT_LT(disks.peek_service(0, 501), a);
}

TEST(DiskArrayTest, IndependentHeadsPerDisk) {
  DiskArray disks(2, default_model(), 2048);
  disks.service(0, 1000);
  // Disk 1's head is still at 0.
  EXPECT_GT(disks.peek_service(1, 1000), disks.peek_service(0, 1000));
}

TEST(DiskArrayTest, CountsReads) {
  DiskArray disks(1, default_model(), 2048);
  disks.service(0, 1);
  disks.service(0, 2);
  EXPECT_EQ(disks.total_reads(), 2u);
  disks.reset();
  EXPECT_EQ(disks.total_reads(), 0u);
}

TEST(DiskArrayTest, InvalidParametersRejected) {
  EXPECT_THROW(DiskArray(0, default_model(), 2048), std::invalid_argument);
  DiskModel bad = default_model();
  bad.rpm = 0;
  EXPECT_THROW(DiskArray(1, bad, 2048), std::invalid_argument);
  bad = default_model();
  bad.bandwidth = 0;
  EXPECT_THROW(DiskArray(1, bad, 2048), std::invalid_argument);
}

TEST(DiskArrayTest, PositionedReadsChargeSequentialTransfer) {
  DiskArray disks(1, default_model(), 2048);
  disks.service(0, 9000);
  const double first = disks.service(0, 100);  // pays the seek
  // Once the head is in place, each further block streams at pure
  // transfer time, bitwise equal to the constant the extent paths charge.
  const double transfer = 2048.0 / default_model().bandwidth;
  EXPECT_NEAR(disks.sequential_transfer(), transfer, 1e-12);
  EXPECT_GT(first, disks.sequential_transfer());
  for (std::uint64_t lba = 101; lba < 104; ++lba) {
    EXPECT_EQ(disks.service(0, lba), disks.sequential_transfer());
  }
}

TEST(DiskArrayTest, NoteSequentialReadsMatchesServiceCalls) {
  DiskArray noted(2, default_model(), 2048);
  DiskArray served(2, default_model(), 2048);
  noted.service(0, 5000);
  served.service(0, 5000);
  noted.service(0, 123);
  served.service(0, 123);
  noted.note_sequential_reads(0, 130, 7);
  for (std::uint64_t lba = 124; lba < 131; ++lba) served.service(0, lba);
  EXPECT_EQ(noted.total_reads(), served.total_reads());
  EXPECT_EQ(noted.head(0), served.head(0));
  // Heads end at the same place: the next read costs the same.
  EXPECT_EQ(noted.peek_service(0, 500), served.peek_service(0, 500));
  // An empty run leaves the array untouched.
  noted.note_sequential_reads(0, 9999, 0);
  EXPECT_EQ(noted.head(0), 130u);
  EXPECT_EQ(noted.total_reads(), served.total_reads());
}

TEST(NetworkModelTest, HopCostsIncludeWireTime) {
  LatencyModel lat;
  const NetworkModel net(lat, 2048, 1.0e9);
  EXPECT_NEAR(net.compute_io_hop(), lat.net_compute_io + 2048.0 / 1.0e9,
              1e-12);
  EXPECT_NEAR(net.io_storage_hop(), lat.net_io_storage + 2048.0 / 1.0e9,
              1e-12);
  EXPECT_NEAR(net.demotion(), lat.demotion_cost + 2048.0 / 1.0e9, 1e-12);
}

TEST(NetworkModelTest, BadBandwidthRejected) {
  EXPECT_THROW(NetworkModel(LatencyModel{}, 2048, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace flo::storage

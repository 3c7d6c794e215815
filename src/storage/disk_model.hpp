// Mechanical disk service-time model (one disk per storage node).
//
// service = seek(distance) + average rotational delay + transfer
// with the classic square-root seek curve between track-to-track and
// full-stroke times. Each disk tracks its last head position, so sequential
// block streams are cheap and scattered streams pay near-full seeks — the
// disk-level reason file layout matters even below the caches.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/topology.hpp"

namespace flo::storage {

class DiskArray {
 public:
  DiskArray() = default;

  DiskArray(std::size_t disks, const DiskModel& model,
            std::uint64_t block_size);

  /// Service time (s) for reading `lba` on `disk`; advances the head.
  double service(NodeId disk, std::uint64_t lba);

  /// Peeks the would-be service time without moving the head.
  double peek_service(NodeId disk, std::uint64_t lba) const;

  /// Service time of a read with the head already in position (distance
  /// <= 1): pure transfer, zero seek and rotation. Bitwise-equal to what
  /// service() returns in that case, so callers streaming a long run can
  /// charge this constant per block instead of re-deriving it.
  double sequential_transfer() const { return transfer_time_; }

  /// Settles the bookkeeping for `count` sequential reads on `disk` whose
  /// times the caller already charged via sequential_transfer(): moves the
  /// head to `last_lba` (the final block of the run) and counts the reads,
  /// leaving the array in exactly the state the equivalent service() calls
  /// would.
  void note_sequential_reads(NodeId disk, std::uint64_t last_lba,
                             std::uint64_t count);

  /// Moves the head without charging service time (readahead staging
  /// physically streams the blocks while the disk is already positioned).
  void advance_head(NodeId disk, std::uint64_t lba);

  /// Current head position (the event core's elevator scheduler picks the
  /// next queued request relative to it).
  std::uint64_t head(NodeId disk) const { return head_.at(disk); }

  std::uint64_t total_reads() const { return reads_; }

  void reset();

 private:
  double seek_time(std::uint64_t from, std::uint64_t to) const;

  DiskModel model_;
  double rotational_delay_ = 0;  ///< half a revolution (s)
  double transfer_time_ = 0;     ///< block_size / bandwidth (s)
  std::vector<std::uint64_t> head_;
  std::uint64_t reads_ = 0;
};

}  // namespace flo::storage

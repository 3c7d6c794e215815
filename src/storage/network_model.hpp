// Interconnect cost model: fixed per-hop latency plus a bandwidth term per
// block transfer, for the compute<->I/O and I/O<->storage links.
#pragma once

#include <cstdint>

#include "storage/topology.hpp"

namespace flo::storage {

class NetworkModel {
 public:
  NetworkModel() = default;
  NetworkModel(const LatencyModel& latency, std::uint64_t block_size,
               double link_bandwidth = 1.0e9 /* B/s */);

  /// One compute-node <-> I/O-node round trip carrying a block.
  double compute_io_hop() const { return compute_io_; }

  /// One I/O-node <-> storage-node round trip carrying a block.
  double io_storage_hop() const { return io_storage_; }

  /// Cost of demoting one block from an I/O cache to a storage cache.
  double demotion() const { return demotion_; }

 private:
  double compute_io_ = 0;
  double io_storage_ = 0;
  double demotion_ = 0;
};

}  // namespace flo::storage

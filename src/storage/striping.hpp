// PVFS-style striping: file data is striped round-robin across all storage
// nodes (Table 1: "Data striping: uses all 4 storage nodes"), one stripe ==
// one data block. Also assigns each file a contiguous LBA region per disk,
// which the disk model uses for seek-distance estimation.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/lru_cache.hpp"
#include "storage/topology.hpp"

namespace flo::storage {

class Striping {
 public:
  Striping() = default;

  /// `file_blocks[f]` is the size of file f in blocks.
  Striping(std::size_t storage_nodes,
           std::vector<std::uint64_t> file_blocks);

  std::size_t storage_nodes() const { return storage_nodes_; }
  std::uint64_t file_blocks(FileId file) const;

  /// Storage node holding block `block` of `file` (round-robin by stripe).
  NodeId storage_node_of(BlockKey key) const;

  /// Logical block address on that node's disk. Files occupy contiguous
  /// per-disk regions in file-id order; within a file, local stripes are
  /// sequential.
  std::uint64_t lba_of(BlockKey key) const;

  /// Total blocks resident on one storage node across all files.
  std::uint64_t blocks_on_node(NodeId node) const;

 private:
  /// Stripes of `file` stored on one node (ceil division per phase offset).
  std::uint64_t local_stripes(FileId file, NodeId node) const;

  std::size_t storage_nodes_ = 0;
  std::vector<std::uint64_t> file_blocks_;
  /// per-node base LBA of each file: base_[node][file]
  std::vector<std::vector<std::uint64_t>> base_;
};

}  // namespace flo::storage

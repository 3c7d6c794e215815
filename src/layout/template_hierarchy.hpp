// Template hierarchies — the second extension Section 4.3 sketches:
// "we are working on an extension that generates layout for a 'template
// hierarchy' instead of a specific (concrete) hierarchy. For example, all
// hierarchies with the same number of high-level caches connected to a
// low-level cache can be considered as belonging to the same 'template',
// and a single compilation for all architectures that belong to the same
// template would suffice (with some performance loss, of course)."
//
// A HierarchyTemplate captures only the *shape* of a hierarchy — per-layer
// fan-ins and capacity ratios — normalized to a reference bottom-layer
// capacity. Two topologies with the same shape share one compilation: the
// template instantiates to a PatternLayer stack using its reference
// capacities, so the emitted layout is identical for every member of the
// template family. The ablation_template scenario measures the performance
// loss against exact per-topology compilation.
#pragma once

#include <string>
#include <vector>

#include "layout/chunk_pattern.hpp"
#include "storage/topology.hpp"

namespace flo::layout {

class HierarchyTemplate {
 public:
  HierarchyTemplate() = default;

  /// Extracts the template of a concrete topology under a layer mask:
  /// per-layer cache counts and capacity ratios relative to the bottom
  /// layer, plus a reference bottom capacity to compile against.
  static HierarchyTemplate from(const storage::StorageTopology& topology,
                                LayerMask mask = LayerMask::kBoth,
                                std::uint64_t reference_bottom_bytes = 0);

  /// True iff `topology` belongs to this template family (same layer
  /// count, same cache counts per layer, same capacity ratios).
  bool matches(const storage::StorageTopology& topology,
               LayerMask mask = LayerMask::kBoth) const;

  /// The PatternLayer stack this template compiles against (reference
  /// capacities; identical for every member of the family).
  std::vector<PatternLayer> reference_layers() const;

  std::size_t layer_count() const { return cache_counts_.size(); }
  const std::vector<std::size_t>& cache_counts() const {
    return cache_counts_;
  }

  std::string describe() const;

 private:
  std::vector<std::size_t> cache_counts_;   ///< per layer, bottom-up
  std::vector<std::uint64_t> ratio_num_;    ///< capacity ratio vs bottom
  std::vector<std::uint64_t> ratio_den_;
  std::uint64_t reference_bottom_bytes_ = 0;
};

}  // namespace flo::layout

// Both simulator cores, for the storage cases that must hold on either:
// such a case loops `for (const SimCoreKind core : kBothCores)` under
// SCOPED_TRACE(sim_core_name(core)) and builds its simulators with sim_on.
#pragma once

#include <utility>
#include <vector>

#include "storage/sim_core.hpp"
#include "storage/simulator.hpp"

namespace flo::storage {

inline constexpr SimCoreKind kBothCores[] = {SimCoreKind::kClock,
                                             SimCoreKind::kEvent};

/// Thread t runs on compute node t, served by that node's I/O node.
inline std::vector<NodeId> identity_io_mapping(const StorageTopology& topo) {
  std::vector<NodeId> out(topo.config().compute_nodes);
  for (NodeId c = 0; c < out.size(); ++c) out[c] = topo.io_node_of(c);
  return out;
}

/// A simulator on `core` under the identity thread mapping.
inline HierarchySimulator sim_on(SimCoreKind core, const StorageTopology& topo,
                                 PolicyKind policy = PolicyKind::kLruInclusive,
                                 std::vector<RangeHint> hints = {}) {
  HierarchySimulator sim(topo, policy, identity_io_mapping(topo),
                         std::move(hints));
  sim.set_core(core);
  return sim;
}

}  // namespace flo::storage

// Unit-disc connectivity graph over placed nodes.
//
// Ground-truth geometry: who can physically hear whom at the nominal radio
// range. Protocol-level neighbor tables (src/neighbor) are built by message
// exchange on top of this; the disc graph is the oracle used by the medium,
// by scenario setup (e.g. choosing colluders > 2 hops apart), and by tests.
//
// Nodes never move after deployment, so every link's length is computed
// once here and stored beside the link: the medium reads it for every
// frame instead of recomputing it.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "topology/field.h"
#include "topology/spatial_index.h"
#include "util/ids.h"

namespace lw::topo {

class DiscGraph {
 public:
  /// Builds the symmetric adjacency for |positions| nodes with the given
  /// communication range (bi-directional links, per the system model):
  /// b is a neighbor of a iff dist2d(a, b) <= range. Candidates come from
  /// a uniform-cell spatial index (O(N * k) for k neighbors per node
  /// instead of the all-pairs O(N^2) pass).
  DiscGraph(std::vector<Position> positions, double range);

  /// The cell grid over this deployment (cell size = radio range). The
  /// medium queries it for frames that reach beyond the range.
  const SpatialIndex& spatial_index() const { return index_; }

  std::size_t size() const { return positions_.size(); }
  double range() const { return range_; }
  const Position& position(NodeId id) const { return positions_.at(id); }
  const std::vector<Position>& positions() const { return positions_; }

  /// O(log k) membership test (adjacency lists are sorted ascending).
  bool is_neighbor(NodeId a, NodeId b) const;
  /// Neighbor ids in ascending order.
  std::span<const NodeId> neighbors(NodeId id) const {
    return {neighbor_ids_.data() + first_link(id), degree(id)};
  }
  /// Link lengths parallel to neighbors(id): element i is exactly
  /// distance(id, neighbors(id)[i]).
  std::span<const double> link_distances(NodeId id) const {
    return {link_distances_.data() + first_link(id), degree(id)};
  }
  std::size_t degree(NodeId id) const {
    return first_link(id + 1) - first_link(id);
  }

  /// Average node degree across the graph (the paper's N_B).
  double average_degree() const;

  /// Distance in meters between two nodes.
  double distance(NodeId a, NodeId b) const;

  /// BFS hop count between two nodes; nullopt if disconnected.
  std::optional<std::size_t> hop_distance(NodeId from, NodeId to) const;

  /// True if the subgraph induced by nodes [0, prefix) is connected (by
  /// default: every node can reach every other node).
  bool connected(std::size_t prefix) const;
  bool connected() const { return connected(size()); }

  /// Shortest path (in hops) as a node sequence including endpoints;
  /// empty if disconnected. Ties broken toward lower node ids (BFS order).
  std::vector<NodeId> shortest_path(NodeId from, NodeId to) const;

  /// Guards of the directed link from -> to: nodes adjacent to BOTH ends
  /// (including `from` itself, which the paper counts as a guard of all its
  /// outgoing links). `to` is not its own guard.
  std::vector<NodeId> guards_of_link(NodeId from, NodeId to) const;

 private:
  /// Offset of node id's first link; first_link(size()) is the link count.
  std::size_t first_link(NodeId id) const { return link_begin_.at(id); }

  std::vector<Position> positions_;
  double range_;
  SpatialIndex index_;
  /// CSR adjacency: node a's links are [link_begin_[a], link_begin_[a+1])
  /// of the two parallel arrays, ascending by neighbor id.
  std::vector<std::size_t> link_begin_;
  std::vector<NodeId> neighbor_ids_;
  std::vector<double> link_distances_;
};

}  // namespace lw::topo

#include "topology/disc_graph.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/math_util.h"

namespace lw::topo {

namespace {

double checked_range(double range) {
  if (range <= 0) throw std::invalid_argument("range must be positive");
  return range;
}

/// Squared-distance bound beyond which dist2d is certainly above `range`.
/// dx*dx + dy*dy and hypot each err by a few ulps, so a 1e-9 relative
/// margin is far wider than both; only pairs below it reach the exact
/// predicate. Where range^2 is near the subnormal floor the squares lose
/// their relative accuracy, and every candidate goes to the predicate.
double reject_bound(double range) {
  const double range2 = range * range;
  if (range2 < 1e-200) return std::numeric_limits<double>::infinity();
  return range2 * (1.0 + 1e-9);
}

}  // namespace

DiscGraph::DiscGraph(std::vector<Position> positions, double range)
    : positions_(std::move(positions)),
      range_(checked_range(range)),
      index_(positions_, range) {
  const double bound = reject_bound(range_);
  link_begin_.reserve(positions_.size() + 1);
  link_begin_.push_back(0);
  for (NodeId a = 0; a < positions_.size(); ++a) {
    const Position& pa = positions_[a];
    const std::size_t first = neighbor_ids_.size();
    index_.for_each_row_span(pa, range_, [&](std::span<const NodeId> row) {
      for (NodeId b : row) {
        const Position& pb = positions_[b];
        const double dx = pa.x - pb.x;
        const double dy = pa.y - pb.y;
        if (b == a || dx * dx + dy * dy > bound) continue;
        const double dist = dist2d(pa.x, pa.y, pb.x, pb.y);
        if (dist > range_) continue;
        // Insertion sort into this node's ascending run (about 8 long).
        std::size_t at = neighbor_ids_.size();
        neighbor_ids_.push_back(b);
        link_distances_.push_back(dist);
        for (; at > first && neighbor_ids_[at - 1] > b; --at) {
          neighbor_ids_[at] = neighbor_ids_[at - 1];
          link_distances_[at] = link_distances_[at - 1];
        }
        neighbor_ids_[at] = b;
        link_distances_[at] = dist;
      }
    });
    link_begin_.push_back(neighbor_ids_.size());
  }
}

bool DiscGraph::is_neighbor(NodeId a, NodeId b) const {
  const auto adj = neighbors(a);
  return std::binary_search(adj.begin(), adj.end(), b);
}

double DiscGraph::average_degree() const {
  if (positions_.empty()) return 0.0;
  return static_cast<double>(neighbor_ids_.size()) /
         static_cast<double>(positions_.size());
}

double DiscGraph::distance(NodeId a, NodeId b) const {
  const Position& pa = positions_.at(a);
  const Position& pb = positions_.at(b);
  return dist2d(pa.x, pa.y, pb.x, pb.y);
}

std::optional<std::size_t> DiscGraph::hop_distance(NodeId from,
                                                   NodeId to) const {
  auto path = shortest_path(from, to);
  if (path.empty()) return std::nullopt;
  return path.size() - 1;
}

bool DiscGraph::connected(std::size_t prefix) const {
  if (prefix > size()) throw std::out_of_range("prefix beyond graph size");
  if (prefix == 0) return true;
  // BFS; the frontier keeps every visited node, so its size is the count.
  std::vector<char> seen(prefix, 0);
  std::vector<NodeId> frontier{0};
  frontier.reserve(prefix);
  seen[0] = 1;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    for (NodeId next : neighbors(frontier[head])) {
      if (next >= prefix || seen[next]) continue;
      seen[next] = 1;
      frontier.push_back(next);
    }
  }
  return frontier.size() == prefix;
}

std::vector<NodeId> DiscGraph::shortest_path(NodeId from, NodeId to) const {
  if (from >= size() || to >= size()) {
    throw std::out_of_range("node id out of range");
  }
  if (from == to) return {from};
  std::vector<NodeId> parent(size(), kInvalidNode);
  std::vector<NodeId> frontier{from};
  parent[from] = from;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeId current = frontier[head];
    for (NodeId next : neighbors(current)) {
      if (parent[next] != kInvalidNode) continue;
      parent[next] = current;
      if (next == to) {
        std::vector<NodeId> path{to};
        for (NodeId hop = to; hop != from; hop = parent[hop]) {
          path.push_back(parent[hop]);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(next);
    }
  }
  return {};
}

std::vector<NodeId> DiscGraph::guards_of_link(NodeId from, NodeId to) const {
  std::vector<NodeId> guards;
  // The sender is a guard of its own outgoing link.
  if (is_neighbor(from, to)) guards.push_back(from);
  for (NodeId candidate : neighbors(from)) {
    if (candidate == to) continue;
    if (is_neighbor(candidate, to)) guards.push_back(candidate);
  }
  return guards;
}

}  // namespace lw::topo

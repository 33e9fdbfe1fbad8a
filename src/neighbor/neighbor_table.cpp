#include "neighbor/neighbor_table.h"

#include <algorithm>

namespace lw::nbr {

void NeighborTable::add_neighbor(NodeId id) {
  // kInvalidNode is a sentinel, never a table member.
  if (id == kInvalidNode || knows_neighbor(id)) return;
  order_.push_back(id);
}

void NeighborTable::set_neighbor_list(NodeId owner,
                                      std::span<const NodeId> list) {
  if (!knows_neighbor(owner)) return;
  lists_[owner].assign(list.begin(), list.end());
}

bool NeighborTable::has_list_of(NodeId owner) const {
  return lists_.count(owner) != 0;
}

const std::vector<NodeId>* NeighborTable::list_of(NodeId owner) const {
  auto it = lists_.find(owner);
  return it == lists_.end() ? nullptr : &it->second;
}

void NeighborTable::revoke(NodeId id) {
  if (!knows_neighbor(id) || is_revoked(id)) return;
  revoked_.push_back(id);
}

void NeighborTable::expire_neighbor(NodeId id) {
  if (!knows_neighbor(id)) return;
  order_.erase(std::remove(order_.begin(), order_.end(), id), order_.end());
  lists_.erase(id);
}

void NeighborTable::clear() {
  order_.clear();
  revoked_.clear();
  lists_.clear();
}

std::vector<NodeId> NeighborTable::active_neighbors() const {
  std::vector<NodeId> active;
  active.reserve(order_.size());
  for (NodeId id : order_) {
    if (!is_revoked(id)) active.push_back(id);
  }
  return active;
}

std::size_t NeighborTable::storage_bytes() const {
  std::size_t bytes = 5 * order_.size();
  for (const auto& [owner, list] : lists_) {
    (void)owner;
    bytes += 4 * list.size();
  }
  return bytes;
}

}  // namespace lw::nbr

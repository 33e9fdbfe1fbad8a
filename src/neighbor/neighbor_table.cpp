#include "neighbor/neighbor_table.h"

#include <algorithm>

namespace lw::nbr {

void NeighborTable::add_neighbor(NodeId id) {
  // kInvalidNode is a sentinel, never a table member.
  if (id == kInvalidNode || knows_neighbor(id)) return;
  order_.push_back(id);
  lists_.emplace_back();
}

void NeighborTable::set_neighbor_list(NodeId owner,
                                      std::span<const NodeId> list) {
  const std::size_t i = index_of(owner);
  if (i == order_.size()) return;
  lists_[i].emplace(list.begin(), list.end());
}

bool NeighborTable::has_list_of(NodeId owner) const {
  return list_of(owner) != nullptr;
}

const std::vector<NodeId>* NeighborTable::list_of(NodeId owner) const {
  const std::size_t i = index_of(owner);
  return i == order_.size() || !lists_[i] ? nullptr : &*lists_[i];
}

void NeighborTable::revoke(NodeId id) {
  if (!knows_neighbor(id) || is_revoked(id)) return;
  revoked_.push_back(id);
}

void NeighborTable::expire_neighbor(NodeId id) {
  const std::size_t i = index_of(id);
  if (i == order_.size()) return;
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(i));
  lists_.erase(lists_.begin() + static_cast<std::ptrdiff_t>(i));
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
  for (const auto& list : lists_) {
    if (list) bytes += 4 * list->size();
  }
  return bytes;
}

}  // namespace lw::nbr

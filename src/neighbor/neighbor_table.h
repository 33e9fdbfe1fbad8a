// First- and second-hop neighbor knowledge with revocation state.
//
// After secure discovery a node stores (a) its own first-hop neighbor list
// and (b) the full neighbor list R_B of each of its neighbors B — the
// second-hop knowledge LITEWORP's checks and guard predicate rely on.
// Revocation marks a neighbor as isolated: it stays in the table (so alerts
// about it still verify) but fails every admission check.
//
// Every structure is sized by the neighborhood, never by the network: the
// first-hop list, the second-hop lists beside it and the revoked ids are
// short vectors (about N_B entries each) that membership questions scan
// directly. Per the paper's cost model (Section 5.2) that is under 0.5 KB
// per node at N_B = 10.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "util/ids.h"

namespace lw::nbr {

class NeighborTable {
 public:
  /// Registers a verified first-hop neighbor.
  void add_neighbor(NodeId id);

  /// True if `id` is a known first-hop neighbor, revoked or not.
  bool knows_neighbor(NodeId id) const { return contains(order_, id); }

  /// True if `id` is a first-hop neighbor in good standing.
  bool is_active_neighbor(NodeId id) const {
    return knows_neighbor(id) && !is_revoked(id);
  }

  /// Stores the authenticated neighbor list R_owner of a first-hop
  /// neighbor. Silently ignored when `owner` is unknown (a list from a
  /// non-neighbor is rejected upstream anyway).
  void set_neighbor_list(NodeId owner, std::span<const NodeId> list);
  void set_neighbor_list(NodeId owner, std::initializer_list<NodeId> list) {
    set_neighbor_list(owner, std::span<const NodeId>(list.begin(), list.size()));
  }

  bool has_list_of(NodeId owner) const;

  /// R_owner, or nullptr if not stored. Valid until the next
  /// add_neighbor, expire_neighbor or clear.
  const std::vector<NodeId>* list_of(NodeId owner) const;

  /// True if `candidate` appears in the stored list R_owner — i.e. the
  /// claim "owner received this from candidate" is topologically plausible.
  /// Never true for kInvalidNode.
  bool in_list_of(NodeId owner, NodeId candidate) const {
    const std::vector<NodeId>* list = list_of(owner);
    return candidate != kInvalidNode && list != nullptr &&
           std::find(list->begin(), list->end(), candidate) != list->end();
  }

  /// Marks a neighbor as isolated. Idempotent.
  void revoke(NodeId id);
  bool is_revoked(NodeId id) const { return contains(revoked_, id); }

  /// Drops a first-hop neighbor entirely (crash aging): its entry and its
  /// stored second-hop list go, so the node can be re-admitted from
  /// scratch when it recovers. Revocation is NOT forgotten — an isolated
  /// attacker stays isolated across its own reboot.
  void expire_neighbor(NodeId id);

  /// Wipes everything including revocations (the owner itself crashed).
  void clear();

  /// All first-hop neighbors (including revoked); insertion order.
  const std::vector<NodeId>& neighbors() const { return order_; }

  /// First-hop neighbors in good standing.
  std::vector<NodeId> active_neighbors() const;

  std::size_t neighbor_count() const { return order_.size(); }
  std::size_t revoked_count() const { return revoked_.size(); }

  /// Storage footprint per the paper's cost model: 5 bytes per first-hop
  /// entry (4 id + 1 MalC) plus 4 bytes per stored second-hop list entry.
  std::size_t storage_bytes() const;

 private:
  static bool contains(const std::vector<NodeId>& ids, NodeId id) {
    return std::find(ids.begin(), ids.end(), id) != ids.end();
  }
  /// Position of `id` in order_ (and lists_), or order_.size().
  std::size_t index_of(NodeId id) const {
    return static_cast<std::size_t>(
        std::find(order_.begin(), order_.end(), id) - order_.begin());
  }

  std::vector<NodeId> order_;
  /// Revoked ids; kept across expire_neighbor, emptied only by clear().
  std::vector<NodeId> revoked_;
  /// R_owner of order_[i] at lists_[i], in received order (alert recipients
  /// are signed in this order); empty until the owner's list arrives.
  std::vector<std::optional<std::vector<NodeId>>> lists_;
};

}  // namespace lw::nbr

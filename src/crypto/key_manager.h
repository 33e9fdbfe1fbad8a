// Pairwise key pre-distribution.
//
// LITEWORP assumes a pairwise key-management substrate (the paper cites
// probabilistic pre-distribution schemes). For the simulation we model the
// *outcome* of such a scheme: every ordered pair of nodes can derive the
// same symmetric key, rooted in a per-deployment master secret. Deriving
// K(a,b) = HMAC(master, min(a,b) || max(a,b)) gives each unordered pair a
// distinct key without any per-node state, which matches the paper's claim
// that key management costs nothing during failure-free operation.
//
// Prepared HMAC states are cached per unordered pair in one hash map, so
// the cache holds only the pairs that actually exchange authenticated
// messages (about N * N_B / 2), keeping per-node state O(N_B).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "crypto/hmac.h"
#include "util/ids.h"

namespace lw::crypto {

class KeyManager {
 public:
  /// master_secret seeds the whole deployment; nodes sharing the same
  /// KeyManager (same deployment) agree on all pairwise keys.
  explicit KeyManager(std::uint64_t master_secret);

  /// Bucket hint for a deployment of `count` nodes (late joiners
  /// included). Any id works without it; states are derived lazily.
  void reserve_nodes(std::size_t count) { states_.reserve(count); }

  /// Symmetric key shared by the unordered pair {a, b}. pairwise_key(a,b)
  /// == pairwise_key(b,a).
  Key pairwise_key(NodeId a, NodeId b) const;

  /// Tags message with the key shared by {self, peer}.
  AuthTag sign(NodeId self, NodeId peer, std::string_view message) const;

  /// Verifies a tag allegedly produced with the key shared by {a, b}.
  bool verify(NodeId a, NodeId b, std::string_view message,
              const AuthTag& tag) const;

  /// Prepared HMAC state for the key shared by {a, b}. Derived once per
  /// unordered pair and cached; sign/verify reuse it so every tag costs
  /// two SHA-256 finishes instead of a key derivation plus pad rehashing.
  /// References stay valid for the KeyManager's lifetime (map nodes never
  /// move on rehash).
  /// Safe without locking: each simulated deployment owns its KeyManager.
  const HmacKey& pairwise_state(NodeId a, NodeId b) const;

 private:
  /// Heap-free K(lo, hi) derivation + pad absorption.
  HmacKey derive_state(NodeId lo, NodeId hi) const;

  HmacKey master_state_;
  /// Prepared state per unordered pair, keyed by lo << 32 | hi.
  mutable std::unordered_map<std::uint64_t, HmacKey> states_;
};

/// An external attacker: has no valid keys, so every tag it forges is an
/// 8-byte guess. Used by tests to show outsider packets are rejected.
AuthTag forge_tag(std::uint64_t attacker_state);

}  // namespace lw::crypto

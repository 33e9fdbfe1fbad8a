// Dynamic neighbor discovery for incremental deployment (Sections 4.1, 7).
//
// "Incremental deployment of a node in the network is identical to having
// a mobile node move to its location" — the paper handles it by augmenting
// LITEWORP with a dynamic secure neighbor-discovery protocol. This is that
// augmentation: a challenge-response join.
//
//   joiner J:        broadcast JOIN_HELLO (repeated; live channel)
//   established B:   fresh nonce -> JOIN_CHALLENGE to J, tagged with
//                    the pairwise key K(B, J)
//   joiner J:        verify; JOIN_RESPONSE binding the nonce under K(J, B);
//                    add B (the authenticated challenge proves B's key)
//   established B:   verify nonce + tag -> add J; unicast R_B to J
//                    (ARQ-reliable) and broadcast the updated R_B so the
//                    rest of the neighborhood extends its second-hop
//                    knowledge with J
//   joiner J:        after a settle period, broadcast its own R_J
//
// Limitation (the paper's too): during the join window a wormhole can
// tunnel the exchange and forge adjacency with a distant node — the
// pairwise tags prove key possession, not proximity. Closing that needs
// distance bounding ([15][16] in the paper); established nodes remain
// protected by their immutable tables either way.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "neighbor/neighbor_table.h"
#include "node/node_env.h"

namespace lw::nbr {

struct JoinParams {
  /// JOIN_HELLO is repeated on the live channel (no collision-free grace).
  int hello_repeats = 3;
  Duration hello_gap = 2.0;
  /// The joiner broadcasts its own neighbor list this long after starting
  /// (twice, for loss robustness).
  Duration settle_time = 8.0;
};

class DynamicJoinAgent {
 public:
  DynamicJoinAgent(node::NodeEnv& env, NeighborTable& table,
                   JoinParams params);

  /// Joiner side: announce ourselves and run the handshake.
  void start_join();

  /// Forgets one peer's admission and any outstanding nonce for it (the
  /// peer crashed / was aged out): its next JOIN_HELLO gets a fresh
  /// challenge instead of being ignored as already-admitted.
  void forget(NodeId peer);

  /// Wipes all join state (this node crashed). Pending hello/share events
  /// are disarmed via an epoch check; a later start_join() re-runs the
  /// protocol from scratch.
  void reset();

  /// Both sides: JOIN_HELLO / JOIN_CHALLENGE / JOIN_RESPONSE frames.
  void handle(const pkt::Packet& packet);

  /// Invoked each time the joiner side authenticates a new neighbor (the
  /// challenge's tag proved the peer's pairwise key). The robustness
  /// harness uses this as the "rejoined the network" mark when measuring
  /// crash-recovery latency.
  void set_on_neighbor_gained(std::function<void(NodeId)> cb) {
    on_neighbor_gained_ = std::move(cb);
  }

  bool joining() const { return joining_; }
  std::uint64_t challenges_issued() const { return challenges_issued_; }
  std::uint64_t joins_admitted() const { return joins_admitted_; }
  std::uint64_t rejected_handshakes() const { return rejected_; }

 private:
  void send_join_hello();
  void handle_hello(const pkt::Packet& packet);
  void handle_challenge(const pkt::Packet& packet);
  void handle_response(const pkt::Packet& packet);
  /// Shares this node's (updated) neighbor list: unicast to `to` when
  /// valid, plus a local broadcast for the rest of the neighborhood.
  void share_list(NodeId unicast_to);

  std::string challenge_message(NodeId challenger, NodeId joiner,
                                std::uint64_t nonce) const;
  std::string response_message(NodeId joiner, NodeId challenger,
                               std::uint64_t nonce) const;

  node::NodeEnv& env_;
  NeighborTable& table_;
  /// Reusable serialization buffer for list auth payloads.
  std::string auth_buf_;
  JoinParams params_;
  bool joining_ = false;
  /// True once this join emitted its nbr.join_complete event (the span
  /// closes at the FIRST authenticated neighbor; later ones are routine).
  bool join_completed_ = false;
  SeqNo seq_ = 0;
  /// Bumped by reset(); scheduled hellos/shares from before a crash no-op.
  int epoch_ = 0;
  /// Established side: outstanding nonce per candidate joiner.
  std::unordered_map<NodeId, std::uint64_t> pending_nonces_;
  /// Joiners we already admitted (challenge replays are ignored).
  std::unordered_set<NodeId> admitted_;
  std::uint64_t challenges_issued_ = 0;
  std::uint64_t joins_admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::function<void(NodeId)> on_neighbor_gained_;
};

}  // namespace lw::nbr

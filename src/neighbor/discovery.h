// Secure one-time neighbor discovery (Section 4.2.1, "Building Neighbor
// Lists").
//
// On deployment a node broadcasts HELLO; every node hearing it sends back an
// authenticated HELLO_REPLY under the pairwise shared key; the node collects
// verified repliers into its neighbor list R_A and finally broadcasts R_A,
// individually authenticated for each member. Receivers verify their tag and
// store R_A as second-hop knowledge. The protocol runs exactly once; the
// system model guarantees no malicious insider is within two hops during
// this window (compromise-threshold-time assumption).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>

#include "neighbor/neighbor_table.h"
#include "node/node_env.h"
#include "topology/disc_graph.h"
#include "util/sim_time.h"

namespace lw::nbr {

struct DiscoveryParams {
  /// HELLO broadcast happens at a uniform time in [0, hello_jitter_max].
  /// Generous spreading matters: every HELLO provokes a burst of
  /// authenticated unicast replies, and at 40 kbps a compressed burst
  /// drives the MAC into channel-busy drops.
  Duration hello_jitter_max = 3.0;
  /// Each HELLO reply is delayed by a uniform jitter in [0, this] to spread
  /// the burst of replies.
  Duration reply_jitter_max = 1.5;
  /// Replies arriving later than this after our HELLO are ignored. At high
  /// densities a reply can sit several seconds behind a queue of other
  /// replies, so the window is generous.
  Duration reply_timeout = 6.0;
  /// Time (from node start) at which R_A is broadcast; must exceed
  /// hello_jitter_max + reply_timeout so the list is complete.
  Duration list_broadcast_at = 10.0;
  /// Jitter on the list broadcast.
  Duration list_jitter_max = 1.0;
};

/// Upper bound on when discovery has completed for every node (the paper's
/// T_ND); traffic and attacks are configured to start after this.
Duration discovery_complete_time(const DiscoveryParams& params);

class DiscoveryAgent {
 public:
  DiscoveryAgent(node::NodeEnv& env, NeighborTable& table,
                 DiscoveryParams params);

  /// Schedules the HELLO broadcast and the later list broadcast.
  void start();

  /// Handles HELLO / HELLO_REPLY / NEIGHBOR_LIST frames heard by the node.
  void handle(const pkt::Packet& packet);

  /// Fills the table directly from ground-truth geometry, skipping the
  /// message exchange. For unit tests of higher layers; scenario runs use
  /// the real protocol.
  void bootstrap_from_oracle(const topo::DiscGraph& graph);

  const NeighborTable& table() const { return table_; }
  bool hello_sent() const { return hello_sent_; }

  /// Replies failing tag verification (should stay 0 without an attacker).
  std::uint64_t rejected_replies() const { return rejected_replies_; }
  /// List broadcasts failing verification.
  std::uint64_t rejected_lists() const { return rejected_lists_; }

 private:
  void send_hello();
  void send_reply(const pkt::Packet& hello);
  void broadcast_list();

  void handle_hello(const pkt::Packet& packet);
  void handle_reply(const pkt::Packet& packet);
  void handle_list(const pkt::Packet& packet);

  const std::string& reply_auth_message(NodeId replier, NodeId announcer,
                                       SeqNo hello_seq);

  node::NodeEnv& env_;
  /// Reusable serialization buffer for auth payloads (sign/verify are
  /// per-packet hot spots; keep the capacity across calls).
  std::string auth_buf_;
  NeighborTable& table_;
  DiscoveryParams params_;
  bool hello_sent_ = false;
  Time hello_time_ = kTimeNever;
  SeqNo hello_seq_ = 0;
  /// HELLOs we already replied to (announcer ids) — one reply each.
  std::unordered_set<NodeId> replied_to_;
  std::uint64_t rejected_replies_ = 0;
  std::uint64_t rejected_lists_ = 0;
};

}  // namespace lw::nbr

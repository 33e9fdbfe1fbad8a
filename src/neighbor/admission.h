// Receiver-side packet admission (the neighbor-knowledge checks).
//
// With LITEWORP enabled a node applies these rules to every routed frame it
// is asked to process:
//   1. the claimed transmitter must be a first-hop neighbor — this alone
//      defeats the high-power (3.3) and packet-relay (3.4) wormhole modes;
//   2. the claimed transmitter must not be revoked (isolation);
//   3. an announced previous hop must appear in the transmitter's stored
//      neighbor list R_tx ("C discards the packet if A is not a second hop
//      neighbor") — this defeats the naive encapsulation/out-of-band replay
//      that names the remote colluder as previous hop;
//   4. a revoked previous hop poisons the packet (no traffic is accepted
//      from a revoked node, even transitively).
#pragma once

#include <cstdint>

#include "neighbor/neighbor_table.h"
#include "packet/packet.h"

namespace lw::nbr {

enum class Admission {
  kAccept,
  kUnknownSender,   // claimed_tx not a first-hop neighbor
  kRevokedSender,   // claimed_tx revoked
  kBogusPrevHop,    // announced prev hop not in R_claimed_tx
  kRevokedPrevHop,  // announced prev hop revoked
};

struct AdmissionStats {
  std::uint64_t accepted = 0;
  std::uint64_t unknown_sender = 0;
  std::uint64_t revoked_sender = 0;
  std::uint64_t bogus_prev_hop = 0;
  std::uint64_t revoked_prev_hop = 0;

  void record(Admission verdict);
  std::uint64_t total_rejected() const {
    return unknown_sender + revoked_sender + bogus_prev_hop +
           revoked_prev_hop;
  }
};

/// Applies the admission rules for a routed frame (REQ/REP/DATA) received
/// by `self`. Discovery traffic is verified cryptographically instead and
/// ALERTs carry their own authentication; neither goes through here.
Admission check_frame(const NeighborTable& table, const pkt::Packet& packet);

}  // namespace lw::nbr

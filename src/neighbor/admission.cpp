#include "neighbor/admission.h"

namespace lw::nbr {

void AdmissionStats::record(Admission verdict) {
  switch (verdict) {
    case Admission::kAccept:
      ++accepted;
      break;
    case Admission::kUnknownSender:
      ++unknown_sender;
      break;
    case Admission::kRevokedSender:
      ++revoked_sender;
      break;
    case Admission::kBogusPrevHop:
      ++bogus_prev_hop;
      break;
    case Admission::kRevokedPrevHop:
      ++revoked_prev_hop;
      break;
  }
}

Admission check_frame(const NeighborTable& table, const pkt::Packet& packet) {
  const NodeId sender = packet.claimed_tx;
  if (!table.knows_neighbor(sender)) return Admission::kUnknownSender;
  if (table.is_revoked(sender)) return Admission::kRevokedSender;

  const NodeId prev = packet.announced_prev_hop;
  if (prev == kInvalidNode) {
    // Only origination transmissions (a REQ leaving its source, a REP
    // leaving the destination, a DATA leaving its origin) may omit the
    // previous-hop announcement; a forwarder omitting it is cheating.
    return packet.origin == sender ? Admission::kAccept
                                   : Admission::kBogusPrevHop;
  }
  {
    if (table.is_revoked(prev)) return Admission::kRevokedPrevHop;
    // We can only validate the previous hop when we hold R_sender; a
    // missing list (should not happen after discovery) fails closed.
    if (!table.in_list_of(sender, prev)) return Admission::kBogusPrevHop;
  }
  return Admission::kAccept;
}

}  // namespace lw::nbr

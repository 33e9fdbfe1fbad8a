#include "phy/radio.h"

#include <algorithm>
#include <cassert>

namespace lw::phy {

bool Radio::channel_busy(Time now, std::uint64_t current_seq) const {
  if (transmitting(now) || now < nav_until_) return true;
  // Receptions are registered at transmit time, so a record only means
  // energy on the channel once its start has passed (records self-remove
  // at finish_receive). A start exactly at `now` counts only when the
  // virtual begin event precedes the caller's event in the schedule.
  for (const Reception& r : ongoing_) {
    if (r.start < now || (r.start == now && r.begin_seq < current_seq)) {
      return true;
    }
  }
  return false;
}

void Radio::begin_transmit(Time now, Time until, bool collisions) {
  tx_busy_until_ = until;
  for (Reception& r : ongoing_) {
    if (r.start <= now) {
      // Half-duplex: a transmitting node cannot decode what is already
      // arriving. Gate evaluated at transmit time, as before.
      if (collisions) r.corrupted = true;
    } else if (r.collisions && r.start < until) {
      // A frame that will begin arriving while we are still on air; its
      // own begin-time gate decides, matching the transmitting() check
      // the dedicated begin event used to perform.
      r.corrupted = true;
    }
  }
}

void Radio::finish_transmit() {
  if (tx_done_sink_) tx_done_sink_();
}

void Radio::register_reception(std::shared_ptr<const pkt::Packet> packet,
                               Time start, Time end, bool collisions,
                               std::uint64_t begin_seq) {
  Reception reception{std::move(packet), start, end, begin_seq, collisions,
                      false};
  // Half-duplex against a transmission already under way at `start`.
  // Transmissions that begin between now and `start` are handled by
  // begin_transmit when they happen.
  if (reception.collisions && start < tx_busy_until_) {
    reception.corrupted = true;
  }
  // Pairwise overlap with every other registered arrival. The frame that
  // starts later is the one whose begin event used to observe the overlap,
  // so its collision gate decides for the pair; when it fires, both frames
  // are lost. Equal starts carry equal gates (the gate is a function of
  // start time only), so the choice is immaterial for ties.
  for (Reception& other : ongoing_) {
    if (std::max(start, other.start) >= std::min(end, other.end)) continue;
    const bool gate =
        start >= other.start ? reception.collisions : other.collisions;
    if (gate) {
      other.corrupted = true;
      reception.corrupted = true;
    }
  }
  ongoing_.push_back(std::move(reception));
}

RxOutcome Radio::finish_receive(const pkt::Packet& packet, bool random_loss) {
  auto it = std::find_if(
      ongoing_.begin(), ongoing_.end(),
      [&](const Reception& r) { return r.packet->uid == packet.uid; });
  assert(it != ongoing_.end() && "finish_receive without register_reception");
  bool corrupted = it->corrupted;
  std::shared_ptr<const pkt::Packet> held = std::move(it->packet);
  ongoing_.erase(it);

  RxOutcome outcome = corrupted        ? RxOutcome::kCollision
                      : random_loss    ? RxOutcome::kRandomLoss
                                       : RxOutcome::kDelivered;
  if (outcome == RxOutcome::kDelivered && frame_sink_) frame_sink_(*held);
  return outcome;
}

void Radio::drop_reception(PacketUid uid) {
  auto it = std::find_if(
      ongoing_.begin(), ongoing_.end(),
      [&](const Reception& r) { return r.packet->uid == uid; });
  if (it != ongoing_.end()) ongoing_.erase(it);
}

bool Radio::replace_pending(PacketUid uid,
                            std::shared_ptr<const pkt::Packet> packet) {
  auto it = std::find_if(
      ongoing_.begin(), ongoing_.end(),
      [&](const Reception& r) { return r.packet->uid == uid; });
  if (it == ongoing_.end()) return false;
  it->packet = std::move(packet);
  return true;
}

}  // namespace lw::phy

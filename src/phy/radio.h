// Per-node radio: reception state, collision detection, carrier sense.
//
// The radio is promiscuous: every successfully decoded frame is handed to
// the frame sink regardless of its link-layer destination. Local monitoring
// depends on this (guards overhear their neighbors' traffic). Half-duplex:
// a node cannot decode while it is transmitting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "packet/packet.h"
#include "util/ids.h"
#include "util/sim_time.h"

namespace lw::phy {

/// Result of one reception attempt.
enum class RxOutcome {
  kDelivered,
  kCollision,   // overlapped with another frame or with own transmission
  kRandomLoss,  // independent loss (PhyParams::extra_loss_prob)
};

class Radio {
 public:
  using FrameSink = std::function<void(const pkt::Packet&)>;
  using DropSink = std::function<void(const pkt::Packet&, RxOutcome)>;
  using TxDoneSink = std::function<void()>;

  explicit Radio(NodeId id) : id_(id) {}

  NodeId id() const { return id_; }

  /// Upcall for successfully decoded frames (MAC/promiscuous tap).
  void set_frame_sink(FrameSink sink) { frame_sink_ = std::move(sink); }
  /// Optional upcall for failed receptions.
  void set_drop_sink(DropSink sink) { drop_sink_ = std::move(sink); }
  /// Upcall when a transmission this node started finishes (MAC dequeue).
  void set_tx_done_sink(TxDoneSink sink) { tx_done_sink_ = std::move(sink); }

  /// Carrier sense: any energy on the channel at this node right now
  /// (own transmission or any ongoing reception, corrupted or not), or a
  /// NAV reservation set by an overheard RTS/CTS.
  ///
  /// `current_seq` is the event sequence number of the caller's executing
  /// event. A reception whose start equals `now` exactly counts as energy
  /// only if its (virtual) begin event would already have run — i.e. its
  /// begin_seq is below `current_seq`. This reproduces, tie for tie, the
  /// behavior of the begin-event model the fused delivery path replaced.
  /// The default treats all started receptions as audible (the outside-
  /// the-run-loop case, where every event at or before `now` has run).
  bool channel_busy(Time now,
                    std::uint64_t current_seq = ~std::uint64_t{0}) const;

  /// Virtual carrier sense: defer until `until` (kept at the max of all
  /// overheard reservations).
  void set_nav(Time until) { nav_until_ = std::max(nav_until_, until); }
  Time nav_until() const { return nav_until_; }

  /// True while this node is transmitting.
  bool transmitting(Time now) const { return now < tx_busy_until_; }

  // --- Medium-facing interface ---

  /// A frame this node transmits occupies [now, until). Half-duplex
  /// enforcement happens here: with `collisions` on, receptions in
  /// progress at `now` are corrupted (the old corrupt_ongoing_receptions),
  /// and already-registered receptions that will begin mid-transmission
  /// are corrupted under their own collision gate — exactly what their
  /// begin-time transmitting() check used to decide.
  void begin_transmit(Time now, Time until, bool collisions);

  /// Notifies the MAC that this node's transmission completed.
  void finish_transmit();

  /// Registers an arriving frame occupying [start, end) at this radio.
  /// Called at transmit time (start is in the future); the medium
  /// schedules only the single delivery event at `end`, so collision and
  /// half-duplex outcomes are resolved here from interval overlap instead
  /// of by a dedicated begin event. `collisions` is the collision gate
  /// evaluated at `start` (overlap corrupts only when it is set);
  /// `begin_seq` is the sequence number the begin event would have
  /// carried, used to break exact-time carrier-sense ties.
  void register_reception(std::shared_ptr<const pkt::Packet> packet,
                          Time start, Time end, bool collisions,
                          std::uint64_t begin_seq);

  /// The frame registered for [start, end) finishes at `end`. Delivers to
  /// the frame sink on success; reports the outcome either way.
  RxOutcome finish_receive(const pkt::Packet& packet, bool random_loss);

  // --- Fault-injection hooks (no-ops on the clean path) ---

  /// Quietly discards a registered reception (crashed receiver): no sink
  /// is called, no outcome reported. Safe when the uid is already gone.
  void drop_reception(PacketUid uid);

  /// Swaps the pending reception's payload for `packet` (same uid: a
  /// corrupted copy), so finish_receive delivers the damaged bytes.
  /// Returns false when the uid is not pending.
  bool replace_pending(PacketUid uid,
                       std::shared_ptr<const pkt::Packet> packet);

  /// Forgets carrier/NAV state across a crash. Pending receptions are NOT
  /// cleared here — their delivery events drain them via drop_reception.
  void reset_timing() {
    tx_busy_until_ = kTimeZero;
    nav_until_ = kTimeZero;
  }

 private:
  struct Reception {
    std::shared_ptr<const pkt::Packet> packet;
    Time start;
    Time end;
    std::uint64_t begin_seq;  // seq the begin event would have carried
    bool collisions;  // overlap corrupts (gate evaluated at start time)
    bool corrupted = false;
  };

  NodeId id_;
  FrameSink frame_sink_;
  DropSink drop_sink_;
  TxDoneSink tx_done_sink_;
  Time tx_busy_until_ = kTimeZero;
  Time nav_until_ = kTimeZero;
  std::vector<Reception> ongoing_;
};

}  // namespace lw::phy

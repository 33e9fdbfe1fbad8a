// CSMA/CA medium-access control with stop-and-wait ARQ and RTS/CTS
// virtual carrier sense — a simplified 802.11 DCF, which is what the
// paper's ns-2 stack provides.
//
// * Carrier sense with binary-exponential random backoff and a FIFO
//   transmit queue.
// * Unicast frames are acknowledged; the sender retransmits (same frame
//   uid) up to a retry limit. Without ARQ, multihop unicast (REP/DATA)
//   dies to hidden-terminal collisions.
// * Unicast frames at or above rts_threshold bytes are protected by an
//   RTS/CTS handshake: overhearers of either control frame set their NAV
//   and defer, silencing hidden terminals around both ends for the
//   duration of the DATA+ACK exchange. Broadcasts are neither
//   acknowledged nor RTS-protected, as in 802.11.
// * Flooded control packets are spread by a forwarding jitter at the
//   routing layer; the rushing attacker bypasses every one of these
//   courtesies with SendOptions::skip_backoff.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>

#include "obs/recorder.h"
#include "phy/medium.h"
#include "phy/radio.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace lw::mac {

struct MacParams {
  /// Backoff slot length in seconds.
  Duration slot = 0.002;
  /// Initial contention window in slots; doubles per busy retry up to max.
  /// Sized generously: at 40 kbps a DATA frame lasts ~8 slots, so small
  /// windows re-synchronize contenders instead of separating them.
  int initial_cw_slots = 16;
  int max_cw_slots = 128;
  /// Carrier-busy retries before the frame is dropped. Generous: frames
  /// queued during a dense burst (discovery replies at high N_B, alert
  /// storms) should wait the burst out rather than vanish.
  int max_attempts = 24;
  /// Random forwarding delay applied to flood_jitter sends (ALERT
  /// broadcasts; REQ forwards are jittered by the routing layer).
  Duration flood_jitter_max = 0.3;

  /// Link-layer ARQ for unicast frames.
  bool arq = true;
  /// Retransmissions before a unicast frame is abandoned.
  int max_retransmissions = 5;
  /// Gap between a reception and the control response (ACK/CTS).
  Duration sifs = 0.001;
  /// CTS/ACK wait measured from the end of our transmission.
  Duration response_timeout = 0.04;

  /// RTS/CTS handshake for unicast frames at least this large (bytes).
  /// Disabled by default: at 40 kbps the handshake's own control frames
  /// collide faster than they silence hidden terminals, lowering goodput
  /// (a classic result — RTS/CTS pays off at high bitrates where DATA
  /// airtime dwarfs the handshake, not here). The machinery stays
  /// available for experiments.
  std::uint32_t rts_threshold = 0xFFFFFFFF;
};

struct SendOptions {
  /// Apply the random flood-forwarding jitter before queuing.
  bool flood_jitter = false;
  /// Disc-radius scale; >1 is the high-power attack mode.
  double range_multiplier = 1.0;
  /// Protocol-deviation attacker: transmit immediately, no carrier sense,
  /// no jitter, no backoff.
  bool skip_backoff = false;
};

struct MacStats {
  std::uint64_t enqueued = 0;
  std::uint64_t transmitted = 0;
  std::uint64_t dropped_channel_busy = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t dropped_no_ack = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t rts_sent = 0;
  std::uint64_t cts_sent = 0;
  std::uint64_t duplicates_suppressed = 0;
};

class CsmaMac {
 public:
  using Upcall = std::function<void(const pkt::Packet&)>;
  using SendFailedCallback = std::function<void(const pkt::Packet&)>;

  /// `recorder` (optional) receives mac.backoff / mac.busy_drop events; it
  /// must outlive the MAC.
  CsmaMac(sim::Simulator& simulator, phy::Medium& medium, phy::Radio& radio,
          Rng backoff_rng, MacParams params,
          obs::Recorder* recorder = nullptr);

  /// Frames the MAC delivers upward (everything decoded except MAC-level
  /// control frames and ARQ duplicates).
  void set_upcall(Upcall upcall) { upcall_ = std::move(upcall); }

  /// Queues a frame for transmission.
  void send(pkt::Packet packet, SendOptions options = {});

  /// Optional: invoked when a unicast frame exhausts its ARQ retries
  /// (link-layer delivery failure — the next hop is unreachable). Left
  /// unset on clean runs; the fault-hardened node wires it to routing so
  /// routes through dead next hops are evicted and re-discovered.
  void set_send_failed(SendFailedCallback callback) {
    send_failed_ = std::move(callback);
  }

  /// Wipes all queued frames, pending exchanges, timers and dedupe state
  /// (node crash). Lambdas already in the event queue are disarmed by an
  /// epoch check, so a reset MAC never acts on pre-crash state.
  void reset();

  std::size_t queue_depth() const { return queue_.size(); }
  const MacStats& stats() const { return stats_; }

 private:
  struct Outgoing {
    pkt::Packet packet;
    SendOptions options;
    int busy_attempts = 0;
    int retransmissions = 0;
  };

  /// Unicast exchange in progress (the frame is out of the queue).
  struct Exchange {
    Outgoing frame;
    enum class Stage { kWaitCts, kWaitAck } stage = Stage::kWaitCts;
  };

  void enqueue(Outgoing outgoing, bool front);
  void pump();
  void transmit_now(Outgoing outgoing);
  void on_tx_done();
  void on_frame(const pkt::Packet& packet);
  void begin_exchange(Outgoing outgoing);
  void arm_response_timer();
  void fail_exchange_attempt();
  void send_control_response(pkt::Packet response);
  bool wants_rts(const Outgoing& outgoing) const;
  bool wants_ack(const Outgoing& outgoing) const;
  static bool is_mac_control(pkt::PacketType type) {
    return type == pkt::PacketType::kAck || type == pkt::PacketType::kRts ||
           type == pkt::PacketType::kCts;
  }
  Duration backoff_delay(int attempts);
  Duration frame_duration(const pkt::Packet& packet) const;

  sim::Simulator& simulator_;
  phy::Medium& medium_;
  phy::Radio& radio_;
  Rng rng_;
  MacParams params_;
  obs::Recorder* recorder_;
  Upcall upcall_;
  SendFailedCallback send_failed_;
  /// Bumped by reset(); scheduled lambdas from an earlier epoch no-op.
  int epoch_ = 0;
  std::deque<Outgoing> queue_;
  bool retry_scheduled_ = false;
  /// Control responses (ACK/CTS) inside their SIFS delay.
  int pending_responses_ = 0;
  /// Frame currently on the air.
  std::optional<Outgoing> in_flight_;
  /// Unicast RTS/DATA exchange awaiting its CTS or ACK.
  std::optional<Exchange> exchange_;
  sim::EventHandle response_timer_;
  /// Last unicast frame uid accepted per claimed sender (ARQ dedupe).
  std::unordered_map<NodeId, PacketUid> last_accepted_;
  MacStats stats_;
};

}  // namespace lw::mac

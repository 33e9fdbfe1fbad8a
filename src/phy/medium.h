// The shared broadcast medium.
//
// Disc propagation model over the deployment geometry: every node within
// `range * range_multiplier` of the transmitter receives the frame after a
// distance-proportional propagation delay plus the serialization time at the
// channel bandwidth. Overlapping arrivals at a receiver corrupt each other
// (both are lost), matching the paper's "natural collisions".
//
// The high-power wormhole mode (Section 3.3) transmits with a multiplier
// > 1; honest nodes always use 1.0.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/recorder.h"
#include "packet/packet.h"
#include "phy/phy_params.h"
#include "phy/radio.h"
#include "sim/simulator.h"
#include "topology/disc_graph.h"
#include "util/rng.h"

namespace lw::phy {

/// Channel-level counters for the metrics layer.
struct MediumStats {
  std::uint64_t frames_transmitted = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_collided = 0;
  std::uint64_t frames_random_lost = 0;
  /// Transmission count and airtime (seconds) by packet type (index =
  /// PacketType value).
  std::array<std::uint64_t, 16> tx_by_type{};
  std::array<double, 16> airtime_by_type{};
  /// Receptions lost to collision, by packet type.
  std::array<std::uint64_t, 16> collisions_by_type{};
  /// Fault-injection outcomes; all zero unless a FaultPlan ran.
  std::uint64_t frames_fault_lost = 0;  // link outage / dead receiver
  std::uint64_t frames_corrupted = 0;   // bytes flipped in flight
};

class Medium {
 public:
  Medium(sim::Simulator& simulator, const topo::DiscGraph& graph,
         PhyParams params, Rng loss_rng);

  /// Registers the radio for `radio->id()`. All radios must be attached
  /// before the first transmission.
  void attach(Radio* radio);

  /// Starts transmitting `packet` from `sender` now. The packet's tx_node
  /// is stamped with the sender id. range_multiplier scales the disc radius
  /// (high-power attack mode); 1.0 for honest traffic.
  void transmit(NodeId sender, pkt::Packet packet,
                double range_multiplier = 1.0);

  /// Serialization time of a packet at the channel bandwidth.
  Duration transmit_duration(const pkt::Packet& packet) const;

  /// Carrier sense at a node.
  bool channel_busy(NodeId node) const;

  /// Gives one node a high-gain receiver: it decodes transmissions from up
  /// to `multiplier` times the nominal range. The high-power attacker needs
  /// this for the reverse path (its far "neighbors" answer at normal
  /// power). Honest nodes stay at 1.0.
  void set_rx_range_multiplier(NodeId node, double multiplier);

  /// Attaches the run's observability recorder; the medium emits typed
  /// phy.tx/rx/collision/loss events into it (per-frame tracing — e.g.
  /// an obs::TraceWriter — subscribes there). Must outlive the medium; nullptr
  /// (the default) disables emission entirely.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  const MediumStats& stats() const { return stats_; }
  const PhyParams& params() const { return params_; }
  const topo::DiscGraph& graph() const { return graph_; }

  // --- Fault-injection interface (scenario::Network as fault::FaultHost) ---
  //
  // Every check below hides behind faults_enabled_: a run without a
  // FaultPlan takes the exact same branches and draws the exact same RNG
  // sequence as before this interface existed. Fault randomness comes from
  // a dedicated stream so injected faults never shift loss_rng_'s draws.

  /// Turns the fault paths on and installs the dedicated fault RNG stream.
  void enable_faults(Rng fault_rng);

  /// Silences / revives a node: no transmissions leave it, no receptions
  /// are registered at it, frames already in the air toward it die quietly.
  void set_node_down(NodeId node, bool down);

  /// Per-link outage window: extra_loss >= 1 is a hard outage (frames are
  /// never registered); fractions are drawn per frame at delivery time.
  void set_link_fault(NodeId a, NodeId b, double extra_loss);
  void clear_link_fault(NodeId a, NodeId b);

  /// Inbound corruption window at `node`: each delivered frame's auth tag
  /// bytes are flipped with `probability`, so the frame dies at HMAC
  /// verification instead of in a parser.
  void set_corruption(NodeId node, double probability);
  void clear_corruption(NodeId node);

 private:
  static std::uint64_t link_key(NodeId a, NodeId b) {
    const NodeId lo = a < b ? a : b;
    const NodeId hi = a < b ? b : a;
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }
  double link_fault_loss(NodeId a, NodeId b) const;
  bool collisions_active() const {
    return params_.collisions_enabled &&
           simulator_.now() >= params_.collision_free_until;
  }

  sim::Simulator& simulator_;
  const topo::DiscGraph& graph_;
  PhyParams params_;
  Rng loss_rng_;
  std::vector<Radio*> radios_;
  std::vector<double> rx_range_multiplier_;
  /// max over rx_range_multiplier_ — bounds the spatial-index query disc
  /// so transmit() only visits plausible receivers, never all N nodes.
  double max_rx_multiplier_ = 1.0;
  /// Reusable candidate buffer for the spatial-index query (transmit is
  /// the hot path; no per-frame allocation).
  std::vector<NodeId> rx_candidates_;
  obs::Recorder* recorder_ = nullptr;
  MediumStats stats_;

  // Fault-injection state; untouched (and unread beyond the bool) unless a
  // FaultPlan enabled it.
  bool faults_enabled_ = false;
  Rng fault_rng_{0};  // replaced by enable_faults' dedicated stream
  std::vector<char> node_down_;
  std::vector<double> corrupt_prob_;
  std::unordered_map<std::uint64_t, double> link_fault_;
};

}  // namespace lw::phy

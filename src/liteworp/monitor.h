// LITEWORP local monitor: guard logic, MalC accounting, alert/isolation.
//
// Every node runs one of these (Section 4.2). The monitor taps every frame
// the radio decodes — including frames the node itself transmits (a node is
// a guard of its own outgoing links). It maintains:
//   * the watch buffer (transmit records + REP drop watches),
//   * MalC(i, j): this guard's malicious-activity counter for neighbor j,
//   * the alert buffer, inside its AlertChannel: which guards accused which
//     neighbor.
//
// When MalC crosses C_t the guard convicts the neighbor through its
// AlertChannel (liteworp/alert_channel.h): local revocation plus a
// two-hop-scoped, per-recipient-authenticated ALERT. A node isolates a
// neighbor once gamma distinct guards (the detection confidence index)
// accused it; a circulating accusation also lowers this guard's own bar
// (the corroborated threshold).
#pragma once

#include <cstdint>

#include "liteworp/alert_channel.h"
#include "liteworp/watch_buffer.h"
#include "neighbor/neighbor_table.h"
#include "node/node_env.h"
#include "routing/routing.h"
#include "util/flat_map.h"

namespace lw::lite {

struct LiteworpParams : AlertParams {
  /// delta: how long a REP may sit at the next hop before it counts as
  /// dropped. Must cover worst-case MAC queueing plus the full
  /// ARQ-retransmission window (backoffs included) at 40 kbps — including
  /// the queue bursts around an isolation event (alert storm plus the
  /// re-discovery floods it triggers).
  Duration watch_timeout = 5.0;
  /// TTL of transmit records used by the fabrication check. Must exceed
  /// watch_timeout plus worst-case forwarding latency: if the record of
  /// the handoff expires before the (honestly delayed) forward is
  /// overheard, the forward reads as a fabrication.
  Duration transmit_record_ttl = 10.0;
  /// V_f: MalC increment for fabricating a control packet.
  double malc_fabrication = 4.0;
  /// V_d: MalC increment for dropping a REP.
  double malc_drop = 4.0;
  /// C_t: local-detection threshold on MalC. With the kappa = 7
  /// observation window below, a guard must find 6 of 7 watched packets
  /// fabricated or dropped (6 * V = 24 >= C_t) before raising the FIRST
  /// alert about a node — conservative enough to ride out the correlated
  /// misses of congestion bursts (the analysis' k = 5-of-7 example assumes
  /// a calmer P_C = 0.05).
  double malc_threshold = 24.0;
  /// Corroborated threshold: once a guard holds at least one VERIFIED
  /// alert about a node, its own bar for that node drops to this value
  /// (3 events) — independent partial evidence confirming a circulating
  /// accusation. Accelerates the isolation cascade after the first
  /// detection without weakening the first detection itself; a lone
  /// framing guard still cannot isolate anyone (gamma distinct guards,
  /// each with local evidence, remain necessary).
  double corroborated_threshold = 12.0;
  /// kappa: MalC is evaluated over blocks of this many watched packets per
  /// suspect (the analysis' "fabrications occur within a window of kappa
  /// packets"); the counter resets after each block that stays below C_t.
  /// Count-based windows normalize for traffic rate, which is what the
  /// paper's time window T achieves at its (lower) watch rates.
  /// <= 0 disables the reset entirely (ablation: evidence accumulates
  /// forever and channel noise eventually convicts honest nodes).
  int window_packets = 7;
  /// Ablation switch: accuse on the strict per-link check alone ("did the
  /// announced previous hop transmit this flow?") without the flow-wide
  /// relaxation. Faithful to the paper's literal wording but misfires on
  /// every collision at the guard; the default flow-wide check (see
  /// DESIGN.md) only fires on flows the guard never heard at all — the
  /// actual wormhole signature.
  bool strict_link_check = false;
};

class LocalMonitor {
 public:
  LocalMonitor(node::NodeEnv& env, nbr::NeighborTable& table,
               routing::OnDemandRouting& routing, LiteworpParams params);

  /// No-op placeholder kept for wiring symmetry (the count-based MalC
  /// window needs no timers).
  void start();

  /// Feed for every frame the radio decoded (promiscuous tap), and for
  /// every control frame this node transmits itself.
  void on_overhear(const pkt::Packet& packet);

  /// Handles an ALERT frame (verification, counting, isolation, relay).
  void handle_alert(const pkt::Packet& packet);

  /// Compromised-guard behavior (fault injection): emits one authenticated
  /// ALERT accusing `victim` with NO local evidence behind it. The tags
  /// are genuine — the guard's keys really are compromised — so receivers
  /// verify it; the gamma threshold is what must hold the line.
  void emit_false_alert(NodeId victim);

  /// Wipes all monitoring state (node crash): watch buffer, MalC, dedupe
  /// set and the alert channel (whose epoch check disarms pending repeats,
  /// so a rebooted guard never accuses from pre-crash memory).
  void reset();

  double malc(NodeId suspect) const;
  bool locally_detected(NodeId suspect) const {
    return alerts_.convicted(suspect);
  }
  int alert_count(NodeId suspect) const { return alerts_.alert_count(suspect); }
  const WatchBuffer& watch_buffer() const { return watch_; }
  const LiteworpParams& params() const { return params_; }
  /// The accusation protocol, with its control-plane cost counters.
  const AlertChannel& alerts() const { return alerts_; }

  /// Storage per the paper's cost model: watch buffer + 4-byte alert
  /// entries (MalC bytes are accounted inside the neighbor list).
  std::size_t storage_bytes() const;

 private:
  void observe_control(const pkt::Packet& packet);
  void check_fabrication(const pkt::Packet& packet);
  void maybe_add_drop_watch(const pkt::Packet& packet);
  /// Records one resolved observation of `suspect` (a checked forward or
  /// an expired/cleared drop watch), suspicious or benign, and applies the
  /// kappa-block window discipline.
  /// `kind` is LITEWORP's evidence kind (Section 4.2) as the mon.suspicion
  /// detail: obs::kSuspicionFabrication or obs::kSuspicionDrop.
  void observe(NodeId suspect, bool suspicious, std::uint8_t kind);
  /// C_t, or the corroborated bar once alerts about `suspect` circulate.
  double local_threshold(NodeId suspect) const;

  node::NodeEnv& env_;
  nbr::NeighborTable& table_;
  LiteworpParams params_;

  struct SuspectState {
    double malc = 0.0;
    int observed = 0;  // watched packets in the current kappa block
  };

  WatchBuffer watch_;
  util::FlatMap<NodeId, SuspectState> malc_;
  /// (flow, forwarder) pairs already counted as fabrications this window.
  JudgedForwards suspected_;
  AlertChannel alerts_;
};

}  // namespace lw::lite

// The authenticated ALERT protocol of LITEWORP's isolation step, shared by
// every accusing backend.
//
// A guard that convicts a neighbor revokes it locally and sends a
// two-hop-scoped ALERT, individually authenticated for every neighbor of
// the accused (the paper's "multiple unicasts" realized as one frame with
// per-recipient tags plus a TTL-bounded rebroadcast). A single broadcast
// can die to collisions and alerts are never re-triggered, so the guard
// repeats it on a schedule, and re-sends it while the convicted node keeps
// transmitting. A node isolates a neighbor once gamma distinct guards
// accused it.
//
// The channel owns that whole protocol and its state. A backend keeps only
// its evidence logic and calls convict() once the evidence crosses its bar:
// MalC over kappa-blocks (lite::LocalMonitor) or the leave-one-out z-score
// (defense::ZScoreDefense).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "neighbor/neighbor_table.h"
#include "node/node_env.h"
#include "obs/event.h"
#include "routing/routing.h"

namespace lw::lite {

/// The alert values every accusing backend shares: the base of its
/// parameter block (LiteworpParams, defense::ZScoreParams), with the same
/// names, defaults and CLI keys ("<backend>.alert_ttl") in each.
struct AlertParams {
  /// gamma: alerts from distinct guards required to isolate.
  int detection_confidence = 3;
  /// A detecting guard transmits its alert this many times (fresh sequence
  /// numbers, spaced below), because a single broadcast plus one relay can
  /// die to collisions and alerts are never re-triggered; receivers count
  /// each guard once regardless.
  int alert_repeats = 3;
  Duration alert_repeat_gap = 4.0;
  /// Relay budget on alert frames. 1 covers two hops — enough when the
  /// accused's neighborhood is well-meshed — but the shortest guard-to-
  /// neighbor path can run THROUGH the accused (who will not relay), so
  /// the default allows one extra ring.
  int alert_ttl = 2;
  /// While a convicted node keeps transmitting watched control traffic
  /// (i.e. the threat persists because some neighbors have not isolated it
  /// yet), the guard re-sends its alert at most once per this interval.
  /// Converges lossy neighborhoods to complete isolation.
  Duration realert_interval = 30.0;
};

class AlertChannel {
 public:
  /// `def` tags the channel's mon.* trace events with the owning backend
  /// (an obs::DefenseTag; LITEWORP's 0 leaves its lines untagged).
  AlertChannel(node::NodeEnv& env, nbr::NeighborTable& table,
               routing::OnDemandRouting& routing, AlertParams params,
               std::uint8_t def);

  /// Local conviction: revokes `suspect`, reports the detection (with
  /// `evidence` as the mon.detection value), sends the alert and schedules
  /// its repeats.
  void convict(NodeId suspect, double evidence);

  /// For every watched control frame, before it is judged. True when
  /// `sender` is convicted already: the frame is no further evidence, but
  /// the accusation is re-sent, at most once per realert_interval.
  bool realert_if_convicted(NodeId sender);

  /// One authenticated alert transmission about `suspect`. Also the
  /// compromised-guard path, which accuses without revoking.
  void send(NodeId suspect);

  /// An ALERT frame reached this node: relay it, verify it, count the
  /// guard and isolate the accused at gamma. True when a verified alert
  /// left the accused still unisolated, so the caller may corroborate.
  bool receive(const pkt::Packet& packet);

  /// Emits one mon.* event tagged with the owning backend.
  void emit(obs::EventKind kind, NodeId peer, double value,
            std::uint8_t detail = 0) const;

  /// Node crash: forgets every accusation, and disarms scheduled repeats
  /// (epoch check) so a rebooted guard never accuses from pre-crash memory.
  void reset();

  bool convicted(NodeId suspect) const { return detected_.count(suspect) != 0; }
  /// Distinct guards whose verified alerts about `suspect` this node holds.
  int alert_count(NodeId suspect) const;
  /// The alert buffer per the paper's cost model: 4 bytes per entry.
  std::size_t storage_bytes() const;
  /// ALERT frames this node put on the air (repeats and re-alerts
  /// included, relays not) and their wire bytes.
  std::uint64_t transmitted() const { return transmitted_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  void isolate(NodeId suspect, int alerts);
  void relay(const pkt::Packet& packet);

  node::NodeEnv& env_;
  nbr::NeighborTable& table_;
  routing::OnDemandRouting& routing_;
  AlertParams params_;
  std::uint8_t def_;
  /// Reusable serialization buffer for alert auth payloads.
  std::string auth_buf_;

  std::unordered_set<NodeId> detected_;  // convicted locally
  std::unordered_set<NodeId> isolated_;  // revoked (locally or by alerts)
  std::unordered_map<NodeId, std::unordered_set<NodeId>> alert_buffer_;
  std::unordered_set<FlowKey> seen_alerts_;
  /// Last (re)alert time per convicted node (rate limiting).
  std::unordered_map<NodeId, Time> last_alert_;
  SeqNo seq_ = 0;
  std::uint64_t transmitted_ = 0;
  std::uint64_t bytes_ = 0;
  /// Bumped by reset(); disarms scheduled repeats from before a crash.
  int epoch_ = 0;
};

}  // namespace lw::lite

// Z-score neighbor-table detector (after arXiv 2505.09405).
//
// Receiver-side statistical cousin of the LITEWORP fabrication check: where
// LITEWORP convicts on per-packet evidence (V_f per fabricated forward),
// this backend convicts on a per-neighbor anomaly RATE that is an outlier
// among the node's other neighbors. An "anomaly" is a judged control
// forward whose flow this node never overheard from anyone — the wormhole
// replay signature — so a tunnel endpoint anomalizes nearly everything it
// forwards while honest neighbors only anomalize on rare collision losses.
//
// Conviction requires all three of:
//   * enough samples on the suspect (min_samples) and enough qualified
//     peers to form a baseline (min_peers),
//   * an absolute anomaly rate of at least min_anomaly_rate,
//   * a leave-one-out z-score of at least z_threshold against the other
//     qualified neighbors' rates (std floored at std_floor).
//
// Convicted neighbors are revoked locally and accused through LITEWORP's
// own lite::AlertChannel (liteworp/alert_channel.h: distinct-accuser gamma
// isolation, TTL relay, epoch-guarded repeats), minus the corroboration
// shortcut — this detector has no MalC to lower a bar on.
#pragma once

#include <map>

#include "defense/defense.h"
#include "liteworp/alert_channel.h"
#include "liteworp/watch_buffer.h"

namespace lw::defense {

class ZScoreDefense final : public Defense {
 public:
  ZScoreDefense(const DefenseConfig& config, const Wiring& wiring);

  obs::DefenseTag tag() const override { return obs::DefenseTag::kZScore; }
  void reset() override;
  void observe(const pkt::Packet& packet) override;
  bool admit(const pkt::Packet& packet) override;
  void handle_alert(const pkt::Packet& packet) override;
  void emit_false_alert(NodeId victim) override;
  CostSnapshot cost() const override;
  const nbr::AdmissionStats& admission_stats() const override {
    return admission_stats_;
  }

  // ---- Introspection (tests) ----
  double anomaly_rate(NodeId neighbor) const;
  /// Leave-one-out z-score of `neighbor` against the other qualified
  /// neighbors; 0 while the baseline is too thin (min_peers).
  double zscore_of(NodeId neighbor) const;
  bool locally_detected(NodeId suspect) const {
    return alerts_.convicted(suspect);
  }
  int alert_count(NodeId suspect) const { return alerts_.alert_count(suspect); }
  const ZScoreParams& params() const { return params_; }

 private:
  struct NeighborStats {
    std::uint64_t observed = 0;   // judged forwards
    std::uint64_t anomalies = 0;  // ... of flows never heard at all
  };

  void observe_control(const pkt::Packet& packet);
  void judge_forward(const pkt::Packet& packet);
  void maybe_detect(NodeId suspect);

  node::NodeEnv& env_;
  nbr::NeighborTable& table_;
  ZScoreParams params_;

  lite::WatchBuffer watch_;
  /// Ordered map: the leave-one-out baseline iterates it, and ordered
  /// iteration keeps the floating-point summation order deterministic.
  std::map<NodeId, NeighborStats> stats_;
  /// (flow, forwarder) pairs already judged (one verdict per packet).
  lite::JudgedForwards judged_;
  nbr::AdmissionStats admission_stats_;
  std::uint64_t frames_observed_ = 0;
  lite::AlertChannel alerts_;
};

}  // namespace lw::defense

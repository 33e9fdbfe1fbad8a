#include "defense/zscore.h"

#include <algorithm>
#include <cmath>

namespace lw::defense {

ZScoreDefense::ZScoreDefense(const DefenseConfig& config, const Wiring& wiring)
    : env_(wiring.env),
      table_(wiring.table),
      params_(config.zscore),
      alerts_(wiring.env, wiring.table, wiring.routing, config.zscore,
              static_cast<std::uint8_t>(obs::DefenseTag::kZScore)) {}

void ZScoreDefense::reset() {
  watch_.clear();
  stats_.clear();
  judged_.clear();
  alerts_.reset();
}

void ZScoreDefense::observe(const pkt::Packet& packet) {
  ++frames_observed_;
  if (!pkt::is_watched_control(packet.type)) return;
  observe_control(packet);
}

void ZScoreDefense::observe_control(const pkt::Packet& packet) {
  const NodeId sender = packet.claimed_tx;
  if (alerts_.realert_if_convicted(sender)) return;
  const bool sender_known =
      sender == env_.id() || table_.is_active_neighbor(sender);
  if (!sender_known) return;  // only first-hop neighbors are scored

  // Judge BEFORE recording, so a replay cannot be its own alibi for
  // has_any_transmit (same discipline as the LITEWORP fabrication check).
  judge_forward(packet);
  watch_.record_transmit(packet.flow_key(), sender, env_.now(),
                         params_.transmit_record_ttl);
}

void ZScoreDefense::judge_forward(const pkt::Packet& packet) {
  const NodeId sender = packet.claimed_tx;
  const NodeId prev = packet.announced_prev_hop;
  if (prev == kInvalidNode) return;   // originations carry no claim to test
  if (sender == env_.id()) return;    // we do not score ourselves
  const bool prev_known = prev == env_.id() || table_.is_active_neighbor(prev);
  if (!prev_known || !table_.is_active_neighbor(sender)) return;

  // One verdict per (flow, forwarder), however many link-layer
  // retransmissions we overhear.
  if (!judged_.first_verdict(lite::FlowNodeKey{packet.flow_key(), sender})) {
    return;
  }

  NeighborStats& stats = stats_[sender];
  ++stats.observed;
  if (watch_.has_any_transmit(packet.flow_key(), env_.now())) return;
  // Forward of a flow this node never overheard at all: the wormhole
  // replay signature, scored statistically instead of per-packet.
  ++stats.anomalies;
  alerts_.emit(obs::EventKind::kMonSuspicion, sender, zscore_of(sender),
               obs::kSuspicionAnomaly);
  maybe_detect(sender);
}

double ZScoreDefense::anomaly_rate(NodeId neighbor) const {
  auto it = stats_.find(neighbor);
  if (it == stats_.end() || it->second.observed == 0) return 0.0;
  return static_cast<double>(it->second.anomalies) /
         static_cast<double>(it->second.observed);
}

double ZScoreDefense::zscore_of(NodeId neighbor) const {
  auto self = stats_.find(neighbor);
  if (self == stats_.end() ||
      self->second.observed < static_cast<std::uint64_t>(params_.min_samples)) {
    return 0.0;
  }
  int peers = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const auto& [id, stats] : stats_) {
    if (id == neighbor) continue;
    if (stats.observed < static_cast<std::uint64_t>(params_.min_samples)) {
      continue;
    }
    const double rate = static_cast<double>(stats.anomalies) /
                        static_cast<double>(stats.observed);
    ++peers;
    sum += rate;
    sum_sq += rate * rate;
  }
  // The suspect itself counts toward the peer quorum: min_peers = 3 means
  // "the suspect plus at least two others to form a baseline".
  if (peers + 1 < params_.min_peers) return 0.0;
  const double mean = sum / peers;
  double variance = sum_sq / peers - mean * mean;
  if (variance < 0.0) variance = 0.0;  // rounding
  const double std = std::max(std::sqrt(variance), params_.std_floor);
  return (anomaly_rate(neighbor) - mean) / std;
}

void ZScoreDefense::maybe_detect(NodeId suspect) {
  const NeighborStats& stats = stats_.at(suspect);
  if (stats.observed < static_cast<std::uint64_t>(params_.min_samples)) return;
  const double rate = static_cast<double>(stats.anomalies) /
                      static_cast<double>(stats.observed);
  if (rate < params_.min_anomaly_rate) return;
  const double z = zscore_of(suspect);
  if (z < params_.z_threshold) return;
  alerts_.convict(suspect, z);
}

void ZScoreDefense::emit_false_alert(NodeId victim) {
  // Compromised guard: a genuine-looking authenticated accusation with no
  // statistics behind it. No local revocation (same as the LITEWORP
  // framer): the gamma threshold is what must hold the line.
  alerts_.send(victim);
}

void ZScoreDefense::handle_alert(const pkt::Packet& packet) {
  // No corroboration shortcut: this detector has no per-packet counter
  // whose bar a circulating accusation could lower.
  alerts_.receive(packet);
}

bool ZScoreDefense::admit(const pkt::Packet& packet) {
  // Isolation enforcement only: no traffic from (or via) a revoked node.
  // The statistical evidence itself never drops individual frames.
  admission_stats_.accepted += 1;  // provisional; flipped below on reject
  const bool revoked_sender = table_.is_revoked(packet.claimed_tx);
  const bool revoked_prev = packet.announced_prev_hop != kInvalidNode &&
                            table_.is_revoked(packet.announced_prev_hop);
  if (!revoked_sender && !revoked_prev) return true;
  admission_stats_.accepted -= 1;
  if (revoked_sender) {
    ++admission_stats_.revoked_sender;
  } else {
    ++admission_stats_.revoked_prev_hop;
  }
  return false;
}

CostSnapshot ZScoreDefense::cost() const {
  return {.frames_observed = frames_observed_,
          .admission_checks =
              admission_stats_.accepted + admission_stats_.total_rejected(),
          .admission_rejects = admission_stats_.total_rejected(),
          .control_messages = alerts_.transmitted(),
          .control_bytes = alerts_.bytes(),
          // Watch buffer + 16 bytes per neighbor statistic + 4-byte alert
          // entries (the LITEWORP storage model extended with the stats).
          .storage_bytes = watch_.storage_bytes() + 16 * stats_.size() +
                           alerts_.storage_bytes(),
          .watch_entries = watch_.transmit_records() + watch_.drop_watches(),
          .peak_watch_entries = watch_.peak_entries()};
}

}  // namespace lw::defense

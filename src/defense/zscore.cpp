#include "defense/zscore.h"

#include <algorithm>
#include <cmath>

#include "obs/recorder.h"
#include "util/logging.h"

namespace lw::defense {

ZScoreDefense::ZScoreDefense(const DefenseConfig& config, const Wiring& wiring)
    : env_(wiring.env),
      table_(wiring.table),
      routing_(wiring.routing),
      params_(config.zscore),
      observer_(wiring.observer) {
  if (params_.enabled) judged_.reserve(4096);
}

void ZScoreDefense::reset() {
  ++epoch_;
  watch_.clear();
  stats_.clear();
  detected_.clear();
  isolated_.clear();
  alert_buffer_.clear();
  judged_.clear();
  seen_alerts_.clear();
  last_alert_.clear();
}

void ZScoreDefense::observe(const pkt::Packet& packet) {
  if (!params_.enabled) return;
  ++frames_observed_;
  if (!pkt::is_watched_control(packet.type)) return;
  observe_control(packet);
}

void ZScoreDefense::observe_control(const pkt::Packet& packet) {
  const NodeId sender = packet.claimed_tx;
  if (detected_.count(sender) != 0) {
    // Same persistence rule as the LITEWORP guard: a convicted node still
    // pushing control traffic means some neighbors have not isolated it
    // yet. Re-send the accusation, rate-limited.
    Time& last = last_alert_[sender];
    if (env_.now() - last >= params_.realert_interval) {
      last = env_.now();
      send_alert(sender);
    }
    return;
  }
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
  if (judged_.size() > 8192) judged_.clear();  // bound stale flows
  if (!judged_.insert(lite::FlowNodeKey{packet.flow_key(), sender}).second) {
    return;
  }

  NeighborStats& stats = stats_[sender];
  ++stats.observed;
  if (watch_.has_any_transmit(packet.flow_key(), env_.now())) return;
  // Forward of a flow this node never overheard at all: the wormhole
  // replay signature, scored statistically instead of per-packet.
  ++stats.anomalies;
  if (observer_) {
    observer_->on_suspicion(env_.id(), sender, lite::Suspicion::kAnomaly);
  }
  emit_mon(obs::EventKind::kMonSuspicion, sender, zscore_of(sender),
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
  if (zscore_of(suspect) < params_.z_threshold) return;
  detect_and_alert(suspect);
}

void ZScoreDefense::detect_and_alert(NodeId suspect) {
  detected_.insert(suspect);
  isolated_.insert(suspect);
  table_.revoke(suspect);
  routing_.on_revoked(suspect);
  if (observer_) observer_->on_local_detection(env_.id(), suspect);
  emit_mon(obs::EventKind::kMonDetection, suspect, zscore_of(suspect));
  LW_INFO << "zscore guard " << env_.id() << " detected node " << suspect
          << " at t=" << env_.now();

  if (observer_) observer_->on_alert_sent(env_.id(), suspect);
  last_alert_[suspect] = env_.now();
  send_alert(suspect);
  for (int repeat = 1; repeat < params_.alert_repeats; ++repeat) {
    env_.simulator().schedule(repeat * params_.alert_repeat_gap,
                              [this, suspect, epoch = epoch_] {
                                if (epoch == epoch_) send_alert(suspect);
                              });
  }
}

void ZScoreDefense::send_alert(NodeId suspect) {
  const std::vector<NodeId>* recipients = table_.list_of(suspect);
  pkt::Packet alert = env_.packet_factory().make(pkt::PacketType::kAlert);
  alert.origin = env_.id();
  alert.seq = ++alert_seq_;  // fresh flow per (re)transmission
  alert.accused = suspect;
  alert.accusing_guard = env_.id();
  alert.ttl = static_cast<std::uint8_t>(params_.alert_ttl);
  alert.auth_payload_into(auth_buf_);
  const std::string& payload = auth_buf_;
  if (recipients != nullptr) {
    sign_peers_.clear();
    for (NodeId recipient : *recipients) {
      if (recipient == env_.id() || recipient == suspect) continue;
      sign_peers_.push_back(recipient);
    }
    // One multi-buffer sweep tags the payload for every recipient at once.
    sign_tags_.resize(sign_peers_.size());
    env_.keys().sign_batch(env_.id(), sign_peers_, payload,
                           sign_tags_.data());
    alert.alert_auth.reserve(sign_peers_.size());
    for (std::size_t i = 0; i < sign_peers_.size(); ++i) {
      alert.alert_auth.push_back({sign_peers_[i], sign_tags_[i]});
    }
  }
  seen_alerts_.insert(alert.flow_key());  // do not re-process our own
  ++alerts_transmitted_;
  alert_bytes_ += alert.wire_size();
  emit_mon(obs::EventKind::kMonAlert, suspect, 0.0);
  env_.send(std::move(alert), {.flood_jitter = true});
}

void ZScoreDefense::emit_false_alert(NodeId victim) {
  if (!params_.enabled) return;
  // Compromised guard: a genuine-looking authenticated accusation with no
  // statistics behind it. No local revocation (same as the LITEWORP
  // framer): the gamma threshold is what must hold the line.
  send_alert(victim);
}

void ZScoreDefense::handle_alert(const pkt::Packet& packet) {
  if (!params_.enabled) return;
  if (packet.origin == env_.id()) return;
  if (!seen_alerts_.insert(packet.flow_key()).second) return;
  relay_alert(packet);

  const NodeId guard = packet.accusing_guard;
  const NodeId accused = packet.accused;
  if (guard != packet.origin) return;           // malformed
  if (!table_.knows_neighbor(accused)) return;  // not my concern
  if (!table_.in_list_of(accused, guard)) return;

  auto entry = std::find_if(
      packet.alert_auth.begin(), packet.alert_auth.end(),
      [this](const pkt::AlertAuth& a) { return a.recipient == env_.id(); });
  if (entry == packet.alert_auth.end()) return;
  packet.auth_payload_into(auth_buf_);
  if (!env_.keys().verify(guard, env_.id(), auth_buf_, entry->tag)) {
    LW_WARN << "node " << env_.id() << ": unauthentic alert claiming guard "
            << guard;
    return;
  }

  auto& guards = alert_buffer_[accused];
  guards.insert(guard);
  if (isolated_.count(accused) != 0) return;
  if (static_cast<int>(guards.size()) >= params_.detection_confidence) {
    isolate(accused, static_cast<int>(guards.size()));
  }
  // No corroboration shortcut: this detector has no per-packet counter
  // whose bar a circulating accusation could lower.
}

void ZScoreDefense::isolate(NodeId suspect, int alerts) {
  isolated_.insert(suspect);
  table_.revoke(suspect);
  routing_.on_revoked(suspect);
  if (observer_) observer_->on_isolation(env_.id(), suspect, alerts);
  emit_mon(obs::EventKind::kMonIsolation, suspect,
           static_cast<double>(alerts));
  LW_INFO << "node " << env_.id() << " isolated " << suspect << " after "
          << alerts << " alerts at t=" << env_.now();
}

void ZScoreDefense::relay_alert(const pkt::Packet& packet) {
  if (packet.ttl == 0) return;
  pkt::Packet relay = env_.packet_factory().forward_copy(packet);
  relay.ttl = packet.ttl - 1;
  relay.announced_prev_hop = packet.claimed_tx;
  relay.claimed_tx = kInvalidNode;
  env_.send(std::move(relay), {.flood_jitter = true});
}

bool ZScoreDefense::admit(const pkt::Packet& packet) {
  if (!params_.enabled) return true;
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

int ZScoreDefense::alert_count(NodeId suspect) const {
  auto it = alert_buffer_.find(suspect);
  return it == alert_buffer_.end() ? 0 : static_cast<int>(it->second.size());
}

CostSnapshot ZScoreDefense::cost() const {
  std::size_t alert_entries = 0;
  for (const auto& [accused, guards] : alert_buffer_) {
    (void)accused;
    alert_entries += guards.size();
  }
  return {.frames_observed = frames_observed_,
          .admission_checks =
              admission_stats_.accepted + admission_stats_.total_rejected(),
          .admission_rejects = admission_stats_.total_rejected(),
          .control_messages = alerts_transmitted_,
          .control_bytes = alert_bytes_,
          // Watch buffer + 16 bytes per neighbor statistic + 4-byte alert
          // entries (the LITEWORP storage model extended with the stats).
          .storage_bytes = watch_.storage_bytes() + 16 * stats_.size() +
                           4 * alert_entries};
}

void ZScoreDefense::emit_mon(obs::EventKind kind, NodeId peer, double value,
                             std::uint8_t detail) {
  if (auto* r = env_.obs(); r && r->wants(obs::Layer::kMonitor)) {
    r->emit({.t = env_.now(),
             .kind = kind,
             .node = env_.id(),
             .peer = peer,
             .value = value,
             .detail = detail,
             .def = static_cast<std::uint8_t>(obs::DefenseTag::kZScore)});
  }
}

}  // namespace lw::defense

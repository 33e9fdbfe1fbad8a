#include "liteworp/alert_channel.h"

#include <algorithm>
#include <cstdio>

#include "obs/recorder.h"

namespace lw::lite {

AlertChannel::AlertChannel(node::NodeEnv& env, nbr::NeighborTable& table,
                           routing::OnDemandRouting& routing,
                           AlertParams params, std::uint8_t def)
    : env_(env),
      table_(table),
      routing_(routing),
      params_(params),
      def_(def) {}

void AlertChannel::convict(NodeId suspect, double evidence) {
  detected_.insert(suspect);
  isolated_.insert(suspect);
  table_.revoke(suspect);
  routing_.on_revoked(suspect);
  emit(obs::EventKind::kMonDetection, suspect, evidence);

  last_alert_[suspect] = env_.now();
  send(suspect);
  for (int repeat = 1; repeat < params_.alert_repeats; ++repeat) {
    env_.simulator().schedule(repeat * params_.alert_repeat_gap,
                              [this, suspect, epoch = epoch_] {
                                if (epoch == epoch_) send(suspect);
                              });
  }
}

bool AlertChannel::realert_if_convicted(NodeId sender) {
  if (!convicted(sender)) return false;
  // A node we convicted is still pushing control traffic: some of its
  // neighbors have evidently not isolated it yet (our alerts may have
  // died on the air). Re-send, rate-limited.
  Time& last = last_alert_[sender];
  if (env_.now() - last >= params_.realert_interval) {
    last = env_.now();
    send(sender);
  }
  return true;
}

void AlertChannel::send(NodeId suspect) {
  // Nothing here adds or expires a neighbor, so `recipients` stays valid.
  const std::vector<NodeId>* recipients = table_.list_of(suspect);
  pkt::Packet alert = env_.packet_factory().make(pkt::PacketType::kAlert);
  alert.origin = env_.id();
  // Each (re)transmission is a fresh flow so relays propagate it again;
  // receivers count distinct guards, so repeats never double-count.
  alert.seq = ++seq_;
  alert.accused = suspect;
  alert.accusing_guard = env_.id();
  alert.ttl = static_cast<std::uint8_t>(params_.alert_ttl);
  alert.auth_payload_into(auth_buf_);
  if (recipients != nullptr) {
    alert.alert_auth.reserve(recipients->size());
    for (NodeId recipient : *recipients) {
      if (recipient == env_.id() || recipient == suspect) continue;
      alert.alert_auth.push_back(
          {recipient, env_.keys().sign(env_.id(), recipient, auth_buf_)});
    }
  }
  seen_alerts_.insert(alert.flow_key());  // do not re-process our own
  ++transmitted_;
  bytes_ += alert.wire_size();
  emit(obs::EventKind::kMonAlert, suspect, 0.0);
  env_.send(std::move(alert), {.flood_jitter = true});
}

bool AlertChannel::receive(const pkt::Packet& packet) {
  if (packet.origin == env_.id()) return false;
  if (!seen_alerts_.insert(packet.flow_key()).second) return false;
  relay(packet);

  const NodeId guard = packet.accusing_guard;
  const NodeId accused = packet.accused;
  if (guard != packet.origin) return false;  // malformed
  if (!table_.knows_neighbor(accused)) return false;  // not my concern
  // The guard must itself be a neighbor of the accused; we hold R_accused
  // because the accused is our neighbor.
  if (!table_.in_list_of(accused, guard)) return false;

  auto entry = std::find_if(
      packet.alert_auth.begin(), packet.alert_auth.end(),
      [this](const pkt::AlertAuth& a) { return a.recipient == env_.id(); });
  if (entry == packet.alert_auth.end()) return false;
  packet.auth_payload_into(auth_buf_);
  if (!env_.keys().verify(guard, env_.id(), auth_buf_, entry->tag)) {
    std::fprintf(stderr,
                 "[WARN] node %u: unauthentic alert claiming guard %u\n",
                 env_.id(), guard);
    return false;
  }

  auto& guards = alert_buffer_[accused];
  guards.insert(guard);
  if (isolated_.count(accused) != 0) return false;
  if (static_cast<int>(guards.size()) >= params_.detection_confidence) {
    isolate(accused, static_cast<int>(guards.size()));
    return false;
  }
  return true;
}

void AlertChannel::isolate(NodeId suspect, int alerts) {
  isolated_.insert(suspect);
  table_.revoke(suspect);
  routing_.on_revoked(suspect);
  emit(obs::EventKind::kMonIsolation, suspect, static_cast<double>(alerts));
}

void AlertChannel::relay(const pkt::Packet& packet) {
  if (packet.ttl == 0) return;
  pkt::Packet relay = env_.packet_factory().forward_copy(packet);
  relay.ttl = packet.ttl - 1;
  relay.announced_prev_hop = packet.claimed_tx;
  relay.claimed_tx = kInvalidNode;
  env_.send(std::move(relay), {.flood_jitter = true});
}

void AlertChannel::emit(obs::EventKind kind, NodeId peer, double value,
                        std::uint8_t detail) const {
  if (auto* r = env_.obs(); r && r->wants(obs::Layer::kMonitor)) {
    r->emit({.t = env_.now(),
             .kind = kind,
             .node = env_.id(),
             .peer = peer,
             .value = value,
             .detail = detail,
             .def = def_});
  }
}

void AlertChannel::reset() {
  ++epoch_;
  detected_.clear();
  isolated_.clear();
  alert_buffer_.clear();
  seen_alerts_.clear();
  last_alert_.clear();
}

int AlertChannel::alert_count(NodeId suspect) const {
  auto it = alert_buffer_.find(suspect);
  return it == alert_buffer_.end() ? 0 : static_cast<int>(it->second.size());
}

std::size_t AlertChannel::storage_bytes() const {
  std::size_t entries = 0;
  for (const auto& [accused, guards] : alert_buffer_) {
    (void)accused;
    entries += guards.size();
  }
  return 4 * entries;
}

}  // namespace lw::lite

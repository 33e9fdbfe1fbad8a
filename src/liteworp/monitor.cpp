#include "liteworp/monitor.h"

#include <algorithm>

#include "obs/recorder.h"
#include "util/logging.h"

namespace lw::lite {

LocalMonitor::LocalMonitor(node::NodeEnv& env, nbr::NeighborTable& table,
                           routing::OnDemandRouting& routing,
                           LiteworpParams params, MonitorObserver* observer)
    : env_(env),
      table_(table),
      routing_(routing),
      params_(params),
      observer_(observer) {
  // The per-window dedupe set reaches thousands of (flow, forwarder)
  // entries on busy guards; growing it through a dozen rehashes per
  // monitor is pure waste. Bucket count does not affect semantics.
  if (params_.enabled) suspected_.reserve(4096);
}

void LocalMonitor::start() {}

void LocalMonitor::on_overhear(const pkt::Packet& packet) {
  if (!params_.enabled) return;
  if (pkt::is_watched_control(packet.type)) {
    observe_control(packet);
    return;
  }
  if (packet.type == pkt::PacketType::kRouteError &&
      packet.claimed_tx != env_.id()) {
    // The transmitter is audibly refusing a broken route; whatever
    // forwards we were timing from it are not silent drops. (An attacker
    // spamming RERRs to dodge drop watches tears down its own wormhole
    // routes — receivers evict them — and fabrication checks still catch
    // its control replays.)
    watch_.clear_drop_watches_to(packet.claimed_tx);
  }
}

void LocalMonitor::observe_control(const pkt::Packet& packet) {
  const NodeId sender = packet.claimed_tx;
  if (detected_.count(sender) != 0) {
    // A node we convicted is still pushing control traffic: some of its
    // neighbors have evidently not isolated it yet (our alerts may have
    // died on the air). Re-send, rate-limited.
    Time& last = last_alert_[sender];
    if (env_.now() - last >= params_.realert_interval) {
      last = env_.now();
      send_alert(sender);
    }
    return;
  }
  const bool sender_known =
      sender == env_.id() || table_.is_active_neighbor(sender);
  if (!sender_known) return;  // can only guard links of known neighbors

  // Judge the forward BEFORE recording it: the fabrication check must see
  // the watch buffer as it stood when this frame hit the air (recording
  // first would make every replay its own alibi for has_any_transmit).
  check_fabrication(packet);
  watch_.record_transmit(packet.flow_key(), sender, env_.now(),
                         params_.transmit_record_ttl);
  maybe_add_drop_watch(packet);
}

void LocalMonitor::check_fabrication(const pkt::Packet& packet) {
  const NodeId sender = packet.claimed_tx;
  const NodeId prev = packet.announced_prev_hop;
  if (prev == kInvalidNode) return;
  if (sender == env_.id()) return;  // we do not accuse ourselves
  // Guard predicate: we must be able to hear both ends of the claimed link.
  const bool prev_known = prev == env_.id() || table_.is_active_neighbor(prev);
  if (!prev_known || !table_.is_active_neighbor(sender)) return;

  // One packet incriminates (or exonerates) a forwarder once per guard,
  // however many link-layer retransmissions of the forward we overhear.
  if (suspected_.size() > 8192) suspected_.clear();  // bound stale flows
  if (!suspected_.insert(FlowNodeKey{packet.flow_key(), sender}).second) {
    return;
  }

  if (watch_.has_transmit(packet.flow_key(), prev, env_.now())) {
    // Legitimate forward; if we were timing this handoff, the obligation
    // is met.
    if (watch_.clear_drop_watch(packet.flow_key(), prev, sender)) {
      if (auto* r = env_.obs(); r && r->wants(obs::Layer::kMonitor)) {
        r->emit({.t = env_.now(),
                 .kind = obs::EventKind::kMonWatchClear,
                 .node = env_.id(),
                 .peer = sender,
                 .packet = &packet});
      }
    }
    observe(sender, /*suspicious=*/false, Suspicion::kFabrication);
    return;
  }
  if (!params_.strict_link_check &&
      watch_.has_any_transmit(packet.flow_key(), env_.now())) {
    // We heard this packet from someone, just not from the announced
    // previous hop — almost certainly our own collision, not a replay. A
    // wormhole only profits by injecting a packet into a region it has
    // NOT physically reached (a tunneled REQ must win the duplicate-
    // suppression race; a tunneled REP materializes on the far side of
    // the tunnel), and there the flow is genuinely unheard.
    observe(sender, /*suspicious=*/false, Suspicion::kFabrication);
    return;
  }
  LW_DEBUG << "guard " << env_.id() << ": " << to_string(packet.type)
           << " fabrication by " << sender << " (claimed prev " << prev
           << ")";
  observe(sender, /*suspicious=*/true, Suspicion::kFabrication);
}

void LocalMonitor::maybe_add_drop_watch(const pkt::Packet& packet) {
  if (packet.type != pkt::PacketType::kRouteReply) return;
  const NodeId from = packet.claimed_tx;
  const NodeId to = packet.link_dst;
  if (to == kInvalidNode || to == env_.id()) return;
  if (!table_.is_active_neighbor(to)) return;  // not a guard of this link
  if (!packet.route.empty() && to == packet.route.front()) {
    return;  // the REP's final recipient has nothing to forward
  }
  // The REP carries its route: if the hop AFTER `to` is someone we have
  // revoked, `to` is expected to refuse the forward ("never send to a
  // revoked node") — timing that handoff would convict it for complying.
  auto to_pos = std::find(packet.route.begin(), packet.route.end(), to);
  if (to_pos != packet.route.end() && to_pos != packet.route.begin()) {
    const NodeId onward = *(to_pos - 1);  // REPs travel toward route.front()
    if (table_.is_revoked(onward)) return;
  }

  const FlowKey flow = packet.flow_key();
  // If we already overheard the intended forwarder transmit this flow, the
  // obligation is met; a handoff we are seeing again (link-layer
  // retransmission after a lost ACK) must not re-arm the timer.
  if (watch_.has_transmit(flow, to, env_.now())) return;
  const Time deadline = env_.now() + params_.watch_timeout;
  sim::EventHandle expiry = env_.simulator().schedule_cancellable(
      params_.watch_timeout, [this, flow, from, to, lin = packet.lineage] {
        if (watch_.take_expired_drop_watch(flow, from, to)) {
          LW_DEBUG << "guard " << env_.id() << ": REP drop by " << to
                   << " (handed over by " << from << ")";
          if (auto* r = env_.obs(); r && r->wants(obs::Layer::kMonitor)) {
            r->emit({.t = env_.now(),
                     .kind = obs::EventKind::kMonWatchExpire,
                     .node = env_.id(),
                     .peer = to,
                     .lineage_hint = lin});
          }
          observe(to, /*suspicious=*/true, Suspicion::kDrop);
        }
      });
  if (watch_.add_drop_watch(flow, from, to, deadline, expiry)) {
    if (auto* r = env_.obs(); r && r->wants(obs::Layer::kMonitor)) {
      r->emit({.t = env_.now(),
               .kind = obs::EventKind::kMonWatchAdd,
               .node = env_.id(),
               .peer = to,
               .packet = &packet});
    }
  }
}

void LocalMonitor::observe(NodeId suspect, bool suspicious, Suspicion kind) {
  if (suspicious && observer_) {
    observer_->on_suspicion(env_.id(), suspect, kind);
  }
  if (suspicious) {
    if (auto* r = env_.obs(); r && r->wants(obs::Layer::kMonitor)) {
      r->emit({.t = env_.now(),
               .kind = obs::EventKind::kMonSuspicion,
               .node = env_.id(),
               .peer = suspect,
               .value = malc(suspect),
               .detail = kind == Suspicion::kDrop ? obs::kSuspicionDrop
                                                  : obs::kSuspicionFabrication});
    }
  }
  if (detected_.count(suspect) != 0) return;
  SuspectState& state = malc_[suspect];
  ++state.observed;
  if (suspicious) {
    state.malc += kind == Suspicion::kFabrication ? params_.malc_fabrication
                                                  : params_.malc_drop;
    if (state.malc >= local_threshold(suspect)) {
      detect_and_alert(suspect);
      return;
    }
  }
  if (params_.window_packets > 0 &&
      state.observed >= params_.window_packets) {
    // Block over without crossing C_t: clean slate (the analysis' window).
    state = SuspectState{};
  }
}

void LocalMonitor::detect_and_alert(NodeId suspect) {
  detected_.insert(suspect);
  isolated_.insert(suspect);
  table_.revoke(suspect);
  routing_.on_revoked(suspect);
  if (observer_) observer_->on_local_detection(env_.id(), suspect);
  if (auto* r = env_.obs(); r && r->wants(obs::Layer::kMonitor)) {
    r->emit({.t = env_.now(),
             .kind = obs::EventKind::kMonDetection,
             .node = env_.id(),
             .peer = suspect,
             .value = malc(suspect)});
  }
  LW_INFO << "guard " << env_.id() << " detected node " << suspect
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

void LocalMonitor::send_alert(NodeId suspect) {
  const std::vector<NodeId>* recipients = table_.list_of(suspect);
  pkt::Packet alert = env_.packet_factory().make(pkt::PacketType::kAlert);
  alert.origin = env_.id();
  // Each (re)transmission is a fresh flow so relays propagate it again;
  // receivers count distinct guards, so repeats never double-count.
  alert.seq = ++alert_seq_;
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
  if (auto* r = env_.obs(); r && r->wants(obs::Layer::kMonitor)) {
    r->emit({.t = env_.now(),
             .kind = obs::EventKind::kMonAlert,
             .node = env_.id(),
             .peer = suspect});
  }
  env_.send(std::move(alert), {.flood_jitter = true});
}

void LocalMonitor::emit_false_alert(NodeId victim) {
  if (!params_.enabled) return;
  // The framing guard behaves exactly like a detecting guard on the wire —
  // same recipients, same per-recipient tags, same flooding — just without
  // any evidence. It does NOT revoke the victim locally: a lone framer
  // keeps routing through its victim, hoping gamma-1 peers join in.
  send_alert(victim);
}

void LocalMonitor::reset() {
  ++epoch_;
  watch_.clear();
  malc_.clear();
  detected_.clear();
  isolated_.clear();
  alert_buffer_.clear();
  suspected_.clear();
  seen_alerts_.clear();
  last_alert_.clear();
}

void LocalMonitor::handle_alert(const pkt::Packet& packet) {
  if (!params_.enabled) return;
  if (packet.origin == env_.id()) return;
  if (!seen_alerts_.insert(packet.flow_key()).second) return;
  relay_alert(packet);

  const NodeId guard = packet.accusing_guard;
  const NodeId accused = packet.accused;
  if (guard != packet.origin) return;  // malformed
  if (!table_.knows_neighbor(accused)) return;  // not my concern
  // The guard must itself be a neighbor of the accused; we hold R_accused
  // because the accused is our neighbor.
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
    return;
  }
  // Corroboration: the circulating accusation lowers our own bar; our
  // partial evidence may now suffice for a detection of our own.
  auto state = malc_.find(accused);
  if (detected_.count(accused) == 0 && state != malc_.end() &&
      state->second.malc >= params_.corroborated_threshold) {
    detect_and_alert(accused);
  }
}

double LocalMonitor::local_threshold(NodeId suspect) const {
  const auto it = alert_buffer_.find(suspect);
  const bool corroborated = it != alert_buffer_.end() && !it->second.empty();
  return corroborated ? params_.corroborated_threshold
                      : params_.malc_threshold;
}

void LocalMonitor::isolate(NodeId suspect, int alerts) {
  isolated_.insert(suspect);
  table_.revoke(suspect);
  routing_.on_revoked(suspect);
  if (observer_) observer_->on_isolation(env_.id(), suspect, alerts);
  if (auto* r = env_.obs(); r && r->wants(obs::Layer::kMonitor)) {
    r->emit({.t = env_.now(),
             .kind = obs::EventKind::kMonIsolation,
             .node = env_.id(),
             .peer = suspect,
             .value = static_cast<double>(alerts)});
  }
  LW_INFO << "node " << env_.id() << " isolated " << suspect
          << " after " << alerts << " alerts at t=" << env_.now();
}

void LocalMonitor::relay_alert(const pkt::Packet& packet) {
  if (packet.ttl == 0) return;
  pkt::Packet relay = env_.packet_factory().forward_copy(packet);
  relay.ttl = packet.ttl - 1;
  relay.announced_prev_hop = packet.claimed_tx;
  relay.claimed_tx = kInvalidNode;
  env_.send(std::move(relay), {.flood_jitter = true});
}

double LocalMonitor::malc(NodeId suspect) const {
  auto it = malc_.find(suspect);
  return it == malc_.end() ? 0.0 : it->second.malc;
}

int LocalMonitor::alert_count(NodeId suspect) const {
  auto it = alert_buffer_.find(suspect);
  return it == alert_buffer_.end() ? 0 : static_cast<int>(it->second.size());
}

std::size_t LocalMonitor::storage_bytes() const {
  std::size_t alert_entries = 0;
  for (const auto& [accused, guards] : alert_buffer_) {
    (void)accused;
    alert_entries += guards.size();
  }
  return watch_.storage_bytes() + 4 * alert_entries;
}

}  // namespace lw::lite

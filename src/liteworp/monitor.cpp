#include "liteworp/monitor.h"

#include <algorithm>

#include "obs/profiler.h"
#include "obs/recorder.h"
#include "util/logging.h"

namespace lw::lite {

LocalMonitor::LocalMonitor(node::NodeEnv& env, nbr::NeighborTable& table,
                           routing::OnDemandRouting& routing,
                           LiteworpParams params)
    : env_(env),
      table_(table),
      params_(params),
      alerts_(env, table, routing, params,
              static_cast<std::uint8_t>(obs::DefenseTag::kLiteworp)) {}

void LocalMonitor::observe(const pkt::Packet& packet) {
  ++frames_observed_;
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
  if (alerts_.realert_if_convicted(sender)) return;
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
  if (!suspected_.first_verdict(FlowNodeKey{packet.flow_key(), sender})) {
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
    tally(sender, /*suspicious=*/false, obs::kSuspicionFabrication);
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
    tally(sender, /*suspicious=*/false, obs::kSuspicionFabrication);
    return;
  }
  LW_DEBUG << "guard " << env_.id() << ": " << to_string(packet.type)
           << " fabrication by " << sender << " (claimed prev " << prev
           << ")";
  tally(sender, /*suspicious=*/true, obs::kSuspicionFabrication);
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
          tally(to, /*suspicious=*/true, obs::kSuspicionDrop);
        }
      });
  if (watch_.add_drop_watch(flow, from, to, expiry)) {
    if (auto* r = env_.obs(); r && r->wants(obs::Layer::kMonitor)) {
      r->emit({.t = env_.now(),
               .kind = obs::EventKind::kMonWatchAdd,
               .node = env_.id(),
               .peer = to,
               .packet = &packet});
    }
  }
}

void LocalMonitor::tally(NodeId suspect, bool suspicious,
                         std::uint8_t kind) {
  if (suspicious) {
    alerts_.emit(obs::EventKind::kMonSuspicion, suspect, malc(suspect), kind);
  }
  if (alerts_.convicted(suspect)) return;
  // Nothing below inserts into malc_ before `state`'s last use; convict()
  // may reach back into this monitor (its ALERT goes through Node::send),
  // so `state` is not read after it.
  SuspectState& state = malc_[suspect];
  ++state.observed;
  if (suspicious) {
    state.malc += kind == obs::kSuspicionFabrication ? params_.malc_fabrication
                                                     : params_.malc_drop;
    if (state.malc >= local_threshold(suspect)) {
      alerts_.convict(suspect, state.malc);
      return;
    }
  }
  if (params_.window_packets > 0 &&
      state.observed >= params_.window_packets) {
    // Block over without crossing C_t: clean slate (the analysis' window).
    state = SuspectState{};
  }
}

bool LocalMonitor::admit(const pkt::Packet& packet) {
  obs::Recorder* recorder = env_.obs();
  obs::ScopedTimer timer(recorder ? recorder->profiler() : nullptr,
                         obs::Layer::kNeighbor);
  const nbr::Admission verdict = nbr::check_frame(table_, packet);
  admission_stats_.record(verdict);
  const bool accepted = verdict == nbr::Admission::kAccept;
  if (recorder && recorder->wants(obs::Layer::kNeighbor)) {
    recorder->emit({.t = env_.now(),
                    .kind = accepted ? obs::EventKind::kNbrAdmit
                                     : obs::EventKind::kNbrReject,
                    .node = env_.id(),
                    .peer = packet.claimed_tx,
                    .value = static_cast<double>(verdict),
                    .packet = &packet});
  }
  if (!accepted) {
    LW_DEBUG << "node " << env_.id() << ": rejected ("
             << nbr::to_string(verdict) << ") " << packet.describe();
  }
  return accepted;
}

void LocalMonitor::emit_false_alert(NodeId victim) {
  // The framing guard behaves exactly like a detecting guard on the wire —
  // same recipients, same per-recipient tags, same flooding — just without
  // any evidence. It does NOT revoke the victim locally: a lone framer
  // keeps routing through its victim, hoping gamma-1 peers join in.
  alerts_.send(victim);
}

void LocalMonitor::reset() {
  watch_.clear();
  malc_.clear();
  suspected_.clear();
  alerts_.reset();
}

void LocalMonitor::handle_alert(const pkt::Packet& packet) {
  if (!alerts_.receive(packet)) return;
  // Corroboration: the circulating accusation lowers our own bar; our
  // partial evidence may now suffice for a detection of our own.
  const NodeId accused = packet.accused;
  const SuspectState* state = malc_.find(accused);
  if (!alerts_.convicted(accused) && state != nullptr &&
      state->malc >= params_.corroborated_threshold) {
    alerts_.convict(accused, state->malc);
  }
}

double LocalMonitor::local_threshold(NodeId suspect) const {
  return alerts_.alert_count(suspect) > 0 ? params_.corroborated_threshold
                                          : params_.malc_threshold;
}

double LocalMonitor::malc(NodeId suspect) const {
  const SuspectState* state = malc_.find(suspect);
  return state == nullptr ? 0.0 : state->malc;
}

std::size_t LocalMonitor::storage_bytes() const {
  return watch_.storage_bytes() + alerts_.storage_bytes();
}

defense::CostSnapshot LocalMonitor::cost() const {
  return {.frames_observed = frames_observed_,
          .admission_checks =
              admission_stats_.accepted + admission_stats_.total_rejected(),
          .admission_rejects = admission_stats_.total_rejected(),
          .control_messages = alerts_.transmitted(),
          .control_bytes = alerts_.bytes(),
          .storage_bytes = storage_bytes(),
          .watch_entries = watch_.transmit_records() + watch_.drop_watches(),
          .peak_watch_entries = watch_.peak_entries()};
}

}  // namespace lw::lite

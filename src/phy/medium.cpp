#include "phy/medium.h"

#include <cassert>
#include <memory>
#include <stdexcept>

#include "obs/profiler.h"

namespace lw::phy {

Medium::Medium(sim::Simulator& simulator, const topo::DiscGraph& graph,
               PhyParams params, Rng loss_rng)
    : simulator_(simulator),
      graph_(graph),
      params_(params),
      loss_rng_(loss_rng) {
  radios_.resize(graph.size(), nullptr);
  rx_range_multiplier_.resize(graph.size(), 1.0);
}

void Medium::enable_faults(Rng fault_rng) {
  faults_enabled_ = true;
  fault_rng_ = fault_rng;
  node_down_.assign(graph_.size(), 0);
  corrupt_prob_.assign(graph_.size(), 0.0);
}

void Medium::set_node_down(NodeId node, bool down) {
  assert(faults_enabled_ && "enable_faults first");
  node_down_.at(node) = down ? 1 : 0;
}

void Medium::set_link_fault(NodeId a, NodeId b, double extra_loss) {
  assert(faults_enabled_ && "enable_faults first");
  link_fault_[link_key(a, b)] = extra_loss;
}

void Medium::clear_link_fault(NodeId a, NodeId b) {
  link_fault_.erase(link_key(a, b));
}

void Medium::set_corruption(NodeId node, double probability) {
  assert(faults_enabled_ && "enable_faults first");
  corrupt_prob_.at(node) = probability;
}

void Medium::clear_corruption(NodeId node) {
  corrupt_prob_.at(node) = 0.0;
}

double Medium::link_fault_loss(NodeId a, NodeId b) const {
  if (link_fault_.empty()) return 0.0;
  auto it = link_fault_.find(link_key(a, b));
  return it == link_fault_.end() ? 0.0 : it->second;
}

void Medium::set_rx_range_multiplier(NodeId node, double multiplier) {
  rx_range_multiplier_.at(node) = multiplier;
  max_rx_multiplier_ = 1.0;
  for (double m : rx_range_multiplier_) {
    max_rx_multiplier_ = std::max(max_rx_multiplier_, m);
  }
}

void Medium::attach(Radio* radio) {
  assert(radio != nullptr);
  if (radio->id() >= radios_.size()) {
    throw std::out_of_range("radio id beyond topology size");
  }
  radios_[radio->id()] = radio;
}

Duration Medium::transmit_duration(const pkt::Packet& packet) const {
  return static_cast<double>(packet.wire_size()) * 8.0 / params_.bandwidth_bps;
}

bool Medium::channel_busy(NodeId node) const {
  const Radio* radio = radios_.at(node);
  assert(radio != nullptr);
  return radio->channel_busy(simulator_.now(), simulator_.current_seq());
}

void Medium::transmit(NodeId sender, pkt::Packet packet,
                      double range_multiplier) {
  obs::ScopedTimer obs_timer(recorder_ ? recorder_->profiler() : nullptr,
                             obs::Layer::kPhy);
  // A crashed node is silent: the gate sits before any stats or trace
  // emission so "no tx from a crashed node" holds at the byte level.
  if (faults_enabled_ && node_down_[sender]) return;
  Radio* tx_radio = radios_.at(sender);
  assert(tx_radio != nullptr && "transmit from unattached radio");

  packet.tx_node = sender;
  // Leash stamps: only the genuine keyholder can sign a fresh timestamp
  // or location, so spoofed replays keep the original (stale/far) values.
  if (packet.claimed_tx == sender || packet.claimed_tx == kInvalidNode) {
    packet.leash_timestamp = simulator_.now();
    const topo::Position& at = graph_.position(sender);
    packet.leash_x = at.x;
    packet.leash_y = at.y;
    packet.leash_located = true;
  }
  auto shared = std::make_shared<const pkt::Packet>(std::move(packet));

  const Time now = simulator_.now();
  const Duration duration = transmit_duration(*shared);
  const bool collisions = collisions_active();

  tx_radio->begin_transmit(now, now + duration, collisions);
  simulator_.schedule(duration, [tx_radio] { tx_radio->finish_transmit(); });
  ++stats_.frames_transmitted;
  if (recorder_ && recorder_->wants(obs::Layer::kPhy)) {
    recorder_->emit({.t = now,
                     .kind = obs::EventKind::kPhyTx,
                     .node = sender,
                     .value = duration,
                     .packet = shared.get()});
  }
  const auto type_index = static_cast<std::size_t>(shared->type);
  if (type_index < stats_.tx_by_type.size()) {
    ++stats_.tx_by_type[type_index];
    stats_.airtime_by_type[type_index] += duration;
  }

  // The k delivery events of this broadcast become ONE fused fan-out
  // batch: each fanout_add reserves the same sequence number a plain
  // schedule_at would have, so reception registration, tie-breaking and
  // trace bytes are unchanged — only the k-fold heap churn goes away.
  // Receivers are visited in ascending NodeId order on both paths below,
  // preserving the schedule order (and hence RNG draw order and trace
  // bytes) of the old 0..N scan.
  simulator_.fanout_begin();
  auto deliver = [&](NodeId receiver, double dist) {
    // A frame is decodable when the transmitter shouts far enough or the
    // receiver listens hard enough, whichever is stronger.
    const double reach =
        graph_.range() *
        std::max(range_multiplier, rx_range_multiplier_[receiver]);
    if (dist > reach) return;
    Radio* rx_radio = radios_[receiver];
    if (rx_radio == nullptr) return;
    if (faults_enabled_) {
      if (node_down_[receiver]) return;  // dead radios hear nothing
      if (link_fault_loss(sender, receiver) >= 1.0) {
        ++stats_.frames_fault_lost;  // hard link outage
        return;
      }
    }

    const Duration propagation = dist / params_.propagation_speed;
    const Time rx_start = now + propagation;
    const Time rx_end = rx_start + duration;

    // Collision gate as the removed begin event would have evaluated it
    // at rx_start; the reception is registered with the radio right away
    // so only the delivery event needs scheduling.
    const bool rx_collisions = params_.collisions_enabled &&
                               rx_start >= params_.collision_free_until;
    // next_seq() is the slot the begin event would have occupied (it was
    // always pushed immediately before its end event).
    rx_radio->register_reception(shared, rx_start, rx_end, rx_collisions,
                                 simulator_.next_seq());

    // The secure-discovery grace window models the paper's assumption
    // that neighbor discovery completes reliably; injected random loss
    // honors it just like collisions do. The RNG draw stays inside the
    // delivery event to keep the global draw order unchanged.
    const bool maybe_loss = params_.extra_loss_prob > 0.0 &&
                            rx_end >= params_.collision_free_until;
    simulator_.fanout_add(rx_end, [this, rx_radio, shared, maybe_loss] {
      bool random_loss =
          maybe_loss && loss_rng_.chance(params_.extra_loss_prob);
      if (faults_enabled_) {
        const NodeId to = rx_radio->id();
        if (node_down_[to]) {
          // Receiver crashed while the frame was in flight: the pending
          // reception is drained quietly, no outcome is reported.
          rx_radio->drop_reception(shared->uid);
          return;
        }
        const double link_loss = link_fault_loss(shared->tx_node, to);
        if (link_loss > 0.0 && fault_rng_.chance(link_loss)) {
          ++stats_.frames_fault_lost;
          random_loss = true;  // surfaces as an ordinary phy.loss
        } else if (corrupt_prob_[to] > 0.0 &&
                   fault_rng_.chance(corrupt_prob_[to])) {
          // Flip the authentication-tag bytes: the frame still parses
          // (fixed-layout struct), but dies at HMAC verification in
          // whichever layer checks it.
          auto damaged = std::make_shared<pkt::Packet>(*shared);
          for (auto& byte : damaged->tag) byte ^= 0xFF;
          for (auto& auth : damaged->alert_auth) {
            for (auto& byte : auth.tag) byte ^= 0xFF;
          }
          if (rx_radio->replace_pending(shared->uid, std::move(damaged))) {
            ++stats_.frames_corrupted;
            if (recorder_ && recorder_->wants(obs::Layer::kFault)) {
              recorder_->emit({.t = simulator_.now(),
                               .kind = obs::EventKind::kFltCorrupt,
                               .node = shared->tx_node,
                               .peer = to,
                               .packet = shared.get()});
            }
          }
        }
      }
      obs::EventKind rx_kind = obs::EventKind::kPhyRx;
      switch (rx_radio->finish_receive(*shared, random_loss)) {
        case RxOutcome::kDelivered:
          ++stats_.frames_delivered;
          break;
        case RxOutcome::kCollision: {
          ++stats_.frames_collided;
          rx_kind = obs::EventKind::kPhyCollision;
          const auto idx = static_cast<std::size_t>(shared->type);
          if (idx < stats_.collisions_by_type.size()) {
            ++stats_.collisions_by_type[idx];
          }
          break;
        }
        case RxOutcome::kRandomLoss:
          ++stats_.frames_random_lost;
          rx_kind = obs::EventKind::kPhyLoss;
          break;
      }
      if (recorder_ && recorder_->wants(obs::Layer::kPhy)) {
        recorder_->emit({.t = simulator_.now(),
                         .kind = rx_kind,
                         .node = shared->tx_node,
                         .peer = rx_radio->id(),
                         .packet = shared.get()});
      }
    });
  };
  const double widest = std::max(range_multiplier, max_rx_multiplier_);
  if (widest <= 1.0) {
    // Every possible receiver is a disc neighbor: read the links and their
    // lengths, fixed since deployment.
    const auto receivers = graph_.neighbors(sender);
    const auto distances = graph_.link_distances(sender);
    for (std::size_t i = 0; i < receivers.size(); ++i) {
      deliver(receivers[i], distances[i]);
    }
  } else {
    // A wider disc (high-power attacker): candidates from the spatial
    // index, in ascending NodeId order.
    graph_.spatial_index().query(graph_.position(sender),
                                 graph_.range() * widest, rx_candidates_);
    for (NodeId receiver : rx_candidates_) {
      if (receiver != sender) {
        deliver(receiver, graph_.distance(sender, receiver));
      }
    }
  }
  simulator_.fanout_commit();
}

}  // namespace lw::phy

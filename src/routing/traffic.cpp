#include "routing/traffic.h"

namespace lw::routing {

TrafficGenerator::TrafficGenerator(node::NodeEnv& env,
                                   OnDemandRouting& routing,
                                   std::size_t node_count,
                                   TrafficParams params)
    : env_(env), routing_(routing), node_count_(node_count), params_(params) {}

void TrafficGenerator::start() { start_at(params_.start_time); }

void TrafficGenerator::start_at(Time begin) {
  if (node_count_ < 2) return;       // nobody to talk to
  if (params_.data_rate <= 0) return;  // traffic disabled (driven manually)
  destination_ = pick_destination();
  env_.simulator().schedule_at(
      begin + env_.rng().exponential(params_.data_rate),
      [this, epoch = epoch_] {
        if (epoch == epoch_) schedule_next_packet();
      });
  env_.simulator().schedule_at(
      begin + env_.rng().exponential(params_.destination_change_rate),
      [this, epoch = epoch_] {
        if (epoch == epoch_) schedule_next_destination_change();
      });
}

void TrafficGenerator::stop() { ++epoch_; }

NodeId TrafficGenerator::pick_destination() {
  // Uniform over the other eligible ids (0..node_count-1). Late joiners
  // (id >= node_count) address the initial deployment without the
  // self-exclusion shift.
  if (env_.id() >= node_count_) {
    return static_cast<NodeId>(env_.rng().uniform_int(0, node_count_ - 1));
  }
  NodeId candidate = static_cast<NodeId>(
      env_.rng().uniform_int(0, node_count_ - 2));
  if (candidate >= env_.id()) ++candidate;
  return candidate;
}

void TrafficGenerator::schedule_next_packet() {
  routing_.send_data(destination_, params_.payload_bytes);
  env_.simulator().schedule(env_.rng().exponential(params_.data_rate),
                            [this, epoch = epoch_] {
                              if (epoch == epoch_) schedule_next_packet();
                            });
}

void TrafficGenerator::schedule_next_destination_change() {
  destination_ = pick_destination();
  env_.simulator().schedule(
      env_.rng().exponential(params_.destination_change_rate),
      [this, epoch = epoch_] {
        if (epoch == epoch_) schedule_next_destination_change();
      });
}

}  // namespace lw::routing

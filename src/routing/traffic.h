// Application-layer traffic generator (Table 2 workload).
//
// Every node is a data source: packet interarrivals are exponential with
// rate lambda (1/10 s^-1), the destination is uniform over the other nodes
// and is re-drawn at exponential intervals with rate mu (1/200 s^-1).
#pragma once

#include <cstdint>

#include "node/node_env.h"
#include "routing/routing.h"

namespace lw::routing {

struct TrafficParams {
  /// Data generation rate lambda (packets/second).
  double data_rate = 1.0 / 10.0;
  /// Destination re-selection rate mu (changes/second).
  double destination_change_rate = 1.0 / 200.0;
  /// Traffic begins this long after simulation start (after T_ND).
  Time start_time = 10.0;
  /// Payload size of generated data packets.
  std::uint32_t payload_bytes = 32;
};

class TrafficGenerator {
 public:
  /// node_count is the network size (destinations are drawn from it).
  TrafficGenerator(node::NodeEnv& env, OnDemandRouting& routing,
                   std::size_t node_count, TrafficParams params);

  /// Schedules the first arrival and the first destination change.
  void start();

  /// Like start(), but beginning at an explicit time (late-deployed nodes
  /// start generating once their join settles).
  void start_at(Time begin);

  /// Halts generation (node crash): the self-rescheduling arrival and
  /// destination-change loops are disarmed via an epoch check. A later
  /// start_at() restarts them cleanly.
  void stop();

  std::uint64_t generated() const { return generated_; }

 private:
  void schedule_next_packet();
  void schedule_next_destination_change();
  NodeId pick_destination();

  node::NodeEnv& env_;
  OnDemandRouting& routing_;
  std::size_t node_count_;
  TrafficParams params_;
  NodeId destination_ = kInvalidNode;
  std::uint64_t generated_ = 0;
  /// Bumped by stop(); pending loop events from an earlier epoch no-op.
  int epoch_ = 0;
};

}  // namespace lw::routing

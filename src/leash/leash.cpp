#include "leash/leash.h"

#include "util/math_util.h"

namespace lw::leash {

double LeashChecker::implied_distance(const pkt::Packet& packet,
                                      Time now) const {
  if (packet.leash_timestamp < 0) return -1.0;
  const double serialization =
      static_cast<double>(packet.wire_size()) * 8.0 / params_.bandwidth_bps;
  const double flight = now - packet.leash_timestamp - serialization;
  return flight * params_.propagation_speed;
}

bool LeashChecker::check_temporal(const pkt::Packet& packet,
                                  Time now) const {
  const double distance = implied_distance(packet, now);
  const double budget =
      params_.range + params_.propagation_speed *
                          (params_.sync_error + params_.processing_slack);
  return distance >= 0 && distance <= budget;
}

bool LeashChecker::check_geographical(const pkt::Packet& packet) const {
  if (!packet.leash_located) return false;  // unstamped fails closed
  const double distance =
      dist2d(packet.leash_x, packet.leash_y, own_x_, own_y_);
  // Both ends contribute localization error.
  return distance <= params_.range + 2.0 * params_.location_error;
}

bool LeashChecker::check(const pkt::Packet& packet, Time now) {
  ++stats_.checked;
  const bool ok = params_.mode == LeashMode::kTemporal
                      ? check_temporal(packet, now)
                      : check_geographical(packet);
  if (!ok) ++stats_.rejected;
  return ok;
}

}  // namespace lw::leash

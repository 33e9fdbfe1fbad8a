// Temporal packet leashes (Hu, Perrig, Johnson — "Packet Leashes",
// INFOCOM 2003): the related-work comparator the LITEWORP paper positions
// itself against.
//
// Every transmission carries an authenticated timestamp; the receiver
// bounds the distance the packet can have traveled by the time of flight.
// A frame replayed by a wormhole carries the ORIGINAL sender's stamp (the
// replayer cannot forge a fresh one), so the detour shows up as impossible
// travel distance.
//
// What the comparison bench demonstrates (and the paper argues in prose):
//  * relay/replay wormholes: caught (stale stamp);
//  * high-power shortcuts: caught only with near-perfect clock sync (the
//    extra flight is sub-microsecond at sensor ranges);
//  * INSIDER tunnels (encapsulation, out-of-band): NOT caught — the
//    colluders forward under their own identities and stamp fresh,
//    truthful timestamps at each end ("packet leashes do not nullify the
//    capacity of the compromised nodes", Section 2);
//  * and leashes only ever drop packets: they never identify or isolate
//    the attacker.
#pragma once

#include <cstdint>

#include "packet/packet.h"
#include "util/sim_time.h"

namespace lw::leash {

enum class LeashMode {
  kTemporal,      // authenticated timestamps, tight clock sync
  kGeographical,  // authenticated locations, loose sync + localization
};

struct LeashParams {
  LeashMode mode = LeashMode::kTemporal;
  /// Localization error of the geographical leash (meters).
  double location_error = 5.0;
  /// Nominal radio range: the maximum legitimate travel distance (m).
  double range = 30.0;
  /// Channel bit rate, needed to subtract the serialization time the
  /// receiver unavoidably observes.
  double bandwidth_bps = 40000.0;
  /// Clock synchronization error between any two nodes (seconds). TIK-era
  /// hardware: ~1 us. Perfect clocks (0) catch even high-power shortcuts.
  double sync_error = 1e-6;
  /// Allowance for transmit-side processing between stamping and the
  /// first bit hitting the air (seconds).
  double processing_slack = 1e-6;
  /// Signal propagation speed (m/s).
  double propagation_speed = 3.0e8;
};

struct LeashStats {
  std::uint64_t checked = 0;
  std::uint64_t rejected = 0;
};

class LeashChecker {
 public:
  explicit LeashChecker(LeashParams params) : params_(params) {}

  /// The geographical mode needs the checker's own location.
  void set_own_position(double x, double y) {
    own_x_ = x;
    own_y_ = y;
  }

  /// True if the frame passes the temporal leash at reception time `now`
  /// (which is the end of the frame: propagation + serialization behind
  /// the stamp). Frames without a stamp fail closed when the leash is on.
  bool check(const pkt::Packet& packet, Time now);

  /// The travel distance the timestamps imply, in meters (negative if the
  /// packet carries no stamp).
  double implied_distance(const pkt::Packet& packet, Time now) const;

  const LeashStats& stats() const { return stats_; }

 private:
  bool check_temporal(const pkt::Packet& packet, Time now) const;
  bool check_geographical(const pkt::Packet& packet) const;

  LeashParams params_;
  LeashStats stats_;
  double own_x_ = 0.0;
  double own_y_ = 0.0;
};

}  // namespace lw::leash

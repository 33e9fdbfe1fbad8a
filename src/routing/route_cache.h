// Source-route cache with timeout eviction (the paper's TOut_Route).
//
// TOut is an *idle* timeout, refreshed on use (AODV active-route
// semantics): this is the reading of "evicted from the cache after a
// timeout period expires" that is consistent with the paper's own cost
// model (f ~= 0.25 route establishments/s at N = 100 — an absolute
// 50 s lifetime for 100 always-on sources would force f = 2/s and
// saturate the 40 kbps channel with floods). Routes through revoked nodes
// are torn down explicitly instead (revocation eviction + RERR).
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "packet/packet.h"
#include "util/ids.h"
#include "util/sim_time.h"

namespace lw::routing {

struct Route {
  /// Full node sequence, source first, destination last.
  pkt::NodeList path;
  Time established = kTimeZero;
  Time expires = kTimeZero;

  std::size_t hop_count() const { return path.empty() ? 0 : path.size() - 1; }
};

class RouteCache {
 public:
  explicit RouteCache(Duration route_timeout)
      : route_timeout_(route_timeout) {}

  /// Caches a route to path.back(). An existing live entry is replaced
  /// only by a strictly shorter path (the source keeps the best route);
  /// an expired entry is always replaced.
  /// Returns true if the cache changed.
  bool insert(pkt::NodeList path, Time now);

  /// Live route to `dst`, or nullptr. Expired entries are erased lazily;
  /// a successful lookup refreshes the idle timeout.
  const Route* lookup(NodeId dst, Time now);

  /// Lookup without refreshing the idle timeout.
  const Route* peek(NodeId dst, Time now);

  /// Removes every route that includes `node` (revocation response).
  /// Returns the number of routes evicted.
  std::size_t evict_containing(NodeId node);

  /// Drops the route to `dst` if present.
  void evict_destination(NodeId dst) { routes_.erase(dst); }

  /// Drops every route (owner crashed).
  void clear() { routes_.clear(); }

  std::size_t size() const { return routes_.size(); }
  Duration route_timeout() const { return route_timeout_; }

 private:
  Duration route_timeout_;
  std::unordered_map<NodeId, Route> routes_;
};

}  // namespace lw::routing

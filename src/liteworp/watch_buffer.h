// The guard's watch buffer (Section 4.2.1, "Local Monitoring").
//
// Two kinds of state, matching how LITEWORP uses overheard control traffic:
//
//  * Transmit records — "I heard node X transmit control packet F". Matched
//    NON-destructively: several neighbors may legitimately forward the same
//    flooded REQ announcing X as previous hop, and each must find the
//    record. Records expire silently after a TTL.
//
//  * Drop watches — "X handed REP F to A; A must forward it within delta".
//    Created only for unicast REPs (a flooded REQ has no single obligated
//    forwarder thanks to duplicate suppression, so accusing someone of
//    dropping one would be noise). Cleared when the forward is overheard;
//    expiry is a drop accusation against A.
//
// The fabrication check is the inverse lookup: overhearing A forward F with
// announced previous hop X, while holding no transmit record (F, X), means
// A fabricated the claim — the signature of a wormhole replay.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/simulator.h"
#include "util/flat_map.h"
#include "util/ids.h"
#include "util/sim_time.h"

namespace lw::lite {

/// (packet flow, node) composite key.
struct FlowNodeKey {
  FlowKey flow;
  NodeId node = kInvalidNode;
  friend bool operator==(const FlowNodeKey&, const FlowNodeKey&) = default;
};

struct FlowNodeKeyHash {
  std::size_t operator()(const FlowNodeKey& k) const noexcept {
    return std::hash<FlowKey>()(k.flow) * 0x9E3779B97F4A7C15ull + k.node;
  }
};

/// The (flow, forwarder) pairs a guard has judged, so one packet yields one
/// verdict however many link-layer retransmissions of its forward the guard
/// overhears. Bounded: past 8192 pairs it forgets them all (stale flows).
/// Each pair is one 24-byte slot of a flat table (at most 16384 slots).
class JudgedForwards {
 public:
  /// True the first time `key` is offered since the last forgetting.
  bool first_verdict(const FlowNodeKey& key);
  void clear() { keys_.clear(); }

 private:
  util::FlatSet<FlowNodeKey, FlowNodeKeyHash> keys_;
};

/// (packet flow, from, to) composite key for drop watches.
struct LinkWatchKey {
  FlowKey flow;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  friend bool operator==(const LinkWatchKey&, const LinkWatchKey&) = default;
};

struct LinkWatchKeyHash {
  std::size_t operator()(const LinkWatchKey& k) const noexcept {
    std::size_t h = std::hash<FlowKey>()(k.flow);
    h = h * 0x9E3779B97F4A7C15ull + k.from;
    h = h * 0x9E3779B97F4A7C15ull + k.to;
    return h;
  }
};

class WatchBuffer {
 public:
  /// One transmitter of a flow, with its record's expiry.
  struct TransmitRecord {
    NodeId node = kInvalidNode;
    Time expiry = 0.0;
  };
  /// Remembers that `node` transmitted `flow`; lives until now + ttl.
  void record_transmit(const FlowKey& flow, NodeId node, Time now,
                       Duration ttl);

  /// True if a live transmit record (flow, node) exists.
  bool has_transmit(const FlowKey& flow, NodeId node, Time now);

  /// True if ANY live transmit record exists for `flow` — i.e. this guard
  /// has heard the flooded packet from someone. A forward of a flow the
  /// guard never heard at all is the wormhole-replay signature.
  bool has_any_transmit(const FlowKey& flow, Time now);

  /// Adds a drop watch; the caller schedules the expiry callback and owns
  /// the accusation logic. Returns false if an identical watch exists.
  bool add_drop_watch(const FlowKey& flow, NodeId from, NodeId to,
                      sim::EventHandle expiry);

  /// Clears the watch (the expected forward was overheard). Cancels the
  /// expiry event. Returns true if a watch existed.
  bool clear_drop_watch(const FlowKey& flow, NodeId from, NodeId to);

  /// Removes the watch when its expiry fires; returns true if it was still
  /// armed (i.e. the forward was never overheard).
  bool take_expired_drop_watch(const FlowKey& flow, NodeId from, NodeId to);

  /// Clears every watch whose obligated forwarder is `to` (the node just
  /// audibly refused a route — e.g. broadcast a RERR — so it is not a
  /// silent dropper). Returns the number cleared.
  std::size_t clear_drop_watches_to(NodeId to);

  std::size_t transmit_records() const { return transmit_pairs_; }
  std::size_t drop_watches() const { return watches_.size(); }
  std::size_t peak_entries() const { return peak_entries_; }

  /// Paper cost model: 20 bytes per watch-buffer entry.
  std::size_t storage_bytes() const {
    return 20 * (transmit_pairs_ + watches_.size());
  }

  /// Drops every record and cancels every armed drop-watch expiry (the
  /// guard crashed; a post-reboot accusation from pre-crash state would be
  /// a false positive). peak_entries is preserved for the cost report.
  void clear();

 private:
  /// All transmit records of one flow, grouped so that record/lookup cost
  /// one hash probe instead of one per (flow, node) composite. The node
  /// list is tiny (the handful of neighbors that forwarded this flood), so
  /// a linear scan beats a second hash table.
  ///
  /// Sizing: a flow is one 48-byte slot of transmits_ (key, flow_expiry,
  /// vector header) plus 16 bytes per record on the heap. A flooded REQ
  /// usually leaves 3 to 8 records at a guard, so a slot per record
  /// ((flow, node) key and expiry: 32 bytes, plus a per-flow expiry table)
  /// would hold more memory, and inline storage would have to reserve 8
  /// records in every slot.
  struct FlowRecord {
    /// max over all recorded expiries — backs has_any_transmit.
    Time flow_expiry = 0.0;
    std::vector<TransmitRecord> nodes;
  };

  void purge_transmits(Time now);
  void note_size();

  util::FlatMap<FlowKey, FlowRecord> transmits_;
  /// Each armed drop watch with its expiry event.
  std::unordered_map<LinkWatchKey, sim::EventHandle, LinkWatchKeyHash>
      watches_;
  /// Live (flow, node) pair count — the paper's per-entry storage unit.
  std::size_t transmit_pairs_ = 0;
  std::size_t peak_entries_ = 0;
  std::size_t purge_tick_ = 0;
};

}  // namespace lw::lite

#include "liteworp/watch_buffer.h"

#include <algorithm>

namespace lw::lite {

bool JudgedForwards::first_verdict(const FlowNodeKey& key) {
  if (keys_.size() > 8192) keys_.clear();
  return keys_.try_emplace(key).second;
}

void WatchBuffer::record_transmit(const FlowKey& flow, NodeId node, Time now,
                                  Duration ttl) {
  purge_transmits(now);
  // No insert or erase on transmits_ below, so `rec` stays put.
  FlowRecord& rec = transmits_[flow];
  const Time expiry = now + ttl;
  bool found = false;
  for (TransmitRecord& entry : rec.nodes) {
    if (entry.node == node) {
      entry.expiry = std::max(entry.expiry, expiry);
      found = true;
      break;
    }
  }
  if (!found) {
    rec.nodes.push_back({node, expiry});
    ++transmit_pairs_;
  }
  rec.flow_expiry = std::max(rec.flow_expiry, expiry);
  note_size();
}

bool WatchBuffer::has_any_transmit(const FlowKey& flow, Time now) {
  const FlowRecord* rec = transmits_.find(flow);
  return rec != nullptr && rec->flow_expiry > now;
}

bool WatchBuffer::has_transmit(const FlowKey& flow, NodeId node, Time now) {
  FlowRecord* rec = transmits_.find(flow);
  if (rec == nullptr) return false;
  auto& nodes = rec->nodes;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].node != node) continue;
    if (nodes[i].expiry <= now) {
      nodes[i] = nodes.back();
      nodes.pop_back();
      --transmit_pairs_;
      return false;
    }
    return true;
  }
  return false;
}

bool WatchBuffer::add_drop_watch(const FlowKey& flow, NodeId from, NodeId to,
                                 Time deadline, sim::EventHandle expiry) {
  auto [it, inserted] = watches_.try_emplace(LinkWatchKey{flow, from, to},
                                             DropWatch{deadline, expiry});
  if (!inserted) {
    expiry.cancel();  // duplicate watch; keep the original timer
    return false;
  }
  note_size();
  return true;
}

bool WatchBuffer::clear_drop_watch(const FlowKey& flow, NodeId from,
                                   NodeId to) {
  auto it = watches_.find(LinkWatchKey{flow, from, to});
  if (it == watches_.end()) return false;
  it->second.expiry.cancel();
  watches_.erase(it);
  return true;
}

bool WatchBuffer::take_expired_drop_watch(const FlowKey& flow, NodeId from,
                                          NodeId to) {
  return watches_.erase(LinkWatchKey{flow, from, to}) > 0;
}

std::size_t WatchBuffer::clear_drop_watches_to(NodeId to) {
  std::size_t cleared = 0;
  for (auto it = watches_.begin(); it != watches_.end();) {
    if (it->first.to == to) {
      it->second.expiry.cancel();
      it = watches_.erase(it);
      ++cleared;
    } else {
      ++it;
    }
  }
  return cleared;
}

void WatchBuffer::clear() {
  for (auto& [key, watch] : watches_) {
    (void)key;
    watch.expiry.cancel();
  }
  watches_.clear();
  transmits_.clear();
  transmit_pairs_ = 0;
  purge_tick_ = 0;
}

void WatchBuffer::purge_transmits(Time now) {
  // Amortized: full sweep every 256 insertions once the table is non-tiny.
  // The cadence only bounds stale-entry memory (records are expiry-checked
  // on every lookup), so it trades a few seconds of garbage for sweep cost.
  if (++purge_tick_ % 256 != 0 || transmit_pairs_ < 128) return;
  transmits_.erase_if([&](const FlowKey&, FlowRecord& rec) {
    auto& nodes = rec.nodes;
    for (std::size_t i = 0; i < nodes.size();) {
      if (nodes[i].expiry <= now) {
        nodes[i] = nodes.back();
        nodes.pop_back();
        --transmit_pairs_;
      } else {
        ++i;
      }
    }
    // flow_expiry is the max per-node expiry, so an expired flow has no
    // surviving nodes; dropping the record then matches the old per-map
    // erase exactly.
    return rec.flow_expiry <= now && nodes.empty();
  });
}

void WatchBuffer::note_size() {
  peak_entries_ = std::max(peak_entries_, transmit_pairs_ + watches_.size());
}

}  // namespace lw::lite

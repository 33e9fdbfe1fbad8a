// Strongly-typed identifiers used across the library.
//
// A NodeId is a small integer handle assigned densely at network-build time;
// kInvalidNode marks "no node" (e.g. an empty previous-hop announcement).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

namespace lw {

/// Dense handle for a node in the simulated network.
using NodeId = std::uint32_t;

/// Sentinel meaning "no node".
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Monotonic per-origin packet sequence number.
using SeqNo = std::uint64_t;

/// Globally unique packet instance id (assigned by the packet factory).
using PacketUid = std::uint64_t;

/// Causal lineage id: assigned when a packet is first created and inherited
/// by every forwarded/tunneled/replayed copy, so a packet's full hop-by-hop
/// journey is reconstructible from the event trace alone. Distinct from
/// PacketUid, which is fresh per physical frame.
using LineageId = std::uint64_t;

/// Key that identifies one end-to-end control packet for watch-buffer
/// matching: (origin, sequence number, packet type tag). The tag sits in
/// the padding after origin, so the key is 16 bytes; build it with
/// designated initializers, since a positional {origin, seq, tag} would
/// put the sequence number into the tag.
struct FlowKey {
  NodeId origin = kInvalidNode;
  std::uint8_t type_tag = 0;
  SeqNo seq = 0;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
};
static_assert(sizeof(FlowKey) == 16);

}  // namespace lw

template <>
struct std::hash<lw::FlowKey> {
  std::size_t operator()(const lw::FlowKey& k) const noexcept {
    std::uint64_t h = k.origin;
    h = h * 0x9E3779B97F4A7C15ull + k.seq;
    h = h * 0x9E3779B97F4A7C15ull + k.type_tag;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
  }
};

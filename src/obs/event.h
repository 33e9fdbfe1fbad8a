// Typed protocol events: the vocabulary of the observability layer.
//
// Every layer of the stack (PHY, MAC, neighbor discovery, routing, the
// LITEWORP monitor, and the attack agents) emits Events into a Recorder.
// An Event is a flat, cheap-to-construct record; the optional packet
// pointer is valid ONLY for the duration of the synchronous sink dispatch
// (sinks must copy what they need, never retain the pointer).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/ids.h"
#include "util/sim_time.h"

namespace lw::pkt {
struct Packet;
}

namespace lw::obs {

/// The stack layer an event originates from. Doubles as the unit of
/// trace filtering and per-layer profiling.
enum class Layer : std::uint8_t {
  kPhy = 0,
  kMac = 1,
  kNeighbor = 2,
  kRouting = 3,
  kMonitor = 4,
  kAttack = 5,
  kFault = 6,
};
inline constexpr std::size_t kLayerCount = 7;

constexpr std::uint32_t layer_bit(Layer layer) {
  return 1u << static_cast<std::uint32_t>(layer);
}
inline constexpr std::uint32_t kAllLayers = (1u << kLayerCount) - 1;

/// Short stable layer name used in trace filters and metric names
/// ("phy", "mac", "nbr", "route", "mon", "atk", "flt").
const char* to_string(Layer layer);

/// Parses a comma-separated layer list ("phy,mac,mon") into a mask.
/// "all" (or an empty string) selects every layer. Throws
/// std::invalid_argument on an unknown layer name.
std::uint32_t parse_layer_mask(const std::string& spec);

/// The defense backend an event originates from. kLiteworp is 0 so that
/// default-constructed events (and every trace written before backends
/// existed) read as the default LITEWORP monitor; the trace writer omits
/// the "def" key for it, keeping clean-run traces byte-identical.
enum class DefenseTag : std::uint8_t {
  kLiteworp = 0,
  kLeash = 1,
  kZScore = 2,
  kNone = 3,
};

/// Short stable backend name used in traces and incident reports
/// ("liteworp", "leash", "zscore", "none").
const char* to_string(DefenseTag tag);

/// Reverse lookup for trace readers. Returns false on unknown names.
bool parse_defense_tag(const std::string& name, DefenseTag* out);

enum class EventKind : std::uint8_t {
  // ---- PHY (medium) ----
  kPhyTx = 0,        // frame put on the air        peer: -      value: airtime
  kPhyRx,            // frame decoded by a receiver peer: receiver
  kPhyCollision,     // reception lost to overlap   peer: receiver
  kPhyLoss,          // reception lost to channel   peer: receiver

  // ---- MAC ----
  kMacBackoff,       // carrier busy, backoff armed value: delay [s]
  kMacBusyDrop,      // frame dropped, retries out
  kMacOverhear,      // decoded frame not addressed to us  peer: claimed tx

  // ---- Neighbor discovery / admission ----
  kNbrHello,         // HELLO broadcast
  kNbrReply,         // authenticated HELLO reply   peer: announcer
  kNbrList,          // R_A list broadcast          value: list size
  kNbrAdmit,         // frame passed admission      peer: claimed tx
  kNbrReject,        // frame failed admission      peer: claimed tx
  kNbrJoinStart,     // dynamic-join handshake started (joiner side)
  kNbrJoinComplete,  // first neighbor authenticated  peer: challenger

  // ---- Routing ----
  kRouteDiscovery,   // REQ flood started           peer: destination
  kRouteEstablished, // usable route cached         peer: destination value: hops
  kRouteForward,     // DATA handed toward next hop peer: next hop
                     //   (emitted at the origin AND at every forwarder)
  kRouteDeliver,     // DATA reached destination    value: e2e latency [s]
  kRouteDrop,        // DATA dropped (no route)
  kRouteError,       // RERR originated             peer: broken node

  // ---- LITEWORP monitor ----
  kMonWatchAdd,      // drop watch armed            peer: obligated forwarder
  kMonWatchClear,    // watched forward overheard   peer: obligated forwarder
  kMonWatchExpire,   // watch expired -> drop       peer: obligated forwarder
  kMonSuspicion,     // MalC incremented            peer: suspect  value: MalC
  kMonDetection,     // MalC crossed C_t            peer: suspect
  kMonAlert,         // alert transmitted           peer: accused
  kMonIsolation,     // gamma alerts -> isolated    peer: accused  value: alerts

  // ---- Attack (ground truth) ----
  kAtkTunnel,        // frame entered the tunnel    peer: colluder
  kAtkReplay,        // attack frame replayed: tunneled (peer: colluder),
                     //   high-power or relay
  kAtkDrop,          // data swallowed
  kAtkSpawn,         // node IS malicious (emitted once at t=0; the
                     // ground-truth anchor offline incident labeling
                     // cross-checks isolations against)

  // ---- Fault injection (ground truth; absent unless a FaultPlan runs) ----
  kFltCrash,         // node crashed               value: recovery time (<0: none)
  kFltRecover,       // node rebooted, rejoining
  kFltLinkDown,      // link outage window opened   peer: other endpoint
                     //   value: extra loss prob (1 = hard outage)
  kFltLinkUp,        // link outage window closed   peer: other endpoint
  kFltFrame,         // compromised guard sent a false alert   peer: victim
  kFltCorrupt,       // frame bytes flipped in flight          peer: receiver
};
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kFltCorrupt) + 1;

/// Short stable event name ("tx", "watch_add", ...); combined with the
/// layer it forms the metrics-registry counter name "<layer>.<event>".
const char* to_string(EventKind kind);

/// The layer an event kind belongs to.
Layer layer_of(EventKind kind);

/// Reverse lookup for trace readers: resolves ("mon", "suspicion") back to
/// EventKind::kMonSuspicion. The layer disambiguates duplicated short
/// names ("route"/"atk" both have a "drop"). Returns false on unknown
/// names.
bool parse_event_kind(std::string_view layer, std::string_view event,
                      EventKind* out);

struct Event {
  Time t = 0.0;
  EventKind kind = EventKind::kPhyTx;
  /// The acting node (transmitter, guard, forwarder, ...).
  NodeId node = kInvalidNode;
  /// The counterpart, when one exists (receiver, suspect, destination).
  NodeId peer = kInvalidNode;
  /// Kind-specific scalar (latency, backoff delay, MalC, hop count).
  double value = 0.0;
  /// Kind-specific discriminator. kMonSuspicion: 0 = fabrication, 1 = drop
  /// (the two suspicion kinds of Section 4.2), 2 = statistical anomaly
  /// (Z-score backend); 0 for every other kind.
  std::uint8_t detail = 0;
  /// The defense backend that emitted the event (DefenseTag); meaningful
  /// for mon.* events only. 0 (= kLiteworp) everywhere else.
  std::uint8_t def = 0;
  /// The packet involved, when one exists. Valid only during dispatch.
  const pkt::Packet* packet = nullptr;
  /// Causal lineage for packet-less events (route.discovery carries the
  /// REQ's lineage, mon.watch_expire the arming REP's). Never serialized
  /// by the TraceWriter — the span builder uses it to stitch parent/child
  /// causality without changing a single trace byte. 0 = no hint.
  LineageId lineage_hint = 0;
};

/// Event::detail values for kMonSuspicion.
inline constexpr std::uint8_t kSuspicionFabrication = 0;
inline constexpr std::uint8_t kSuspicionDrop = 1;
inline constexpr std::uint8_t kSuspicionAnomaly = 2;

}  // namespace lw::obs

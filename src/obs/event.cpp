#include "obs/event.h"

#include <sstream>
#include <stdexcept>

namespace lw::obs {

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::kPhy:
      return "phy";
    case Layer::kMac:
      return "mac";
    case Layer::kNeighbor:
      return "nbr";
    case Layer::kRouting:
      return "route";
    case Layer::kMonitor:
      return "mon";
    case Layer::kAttack:
      return "atk";
    case Layer::kFault:
      return "flt";
  }
  return "?";
}

std::uint32_t parse_layer_mask(const std::string& spec) {
  if (spec.empty() || spec == "all") return kAllLayers;
  std::uint32_t mask = 0;
  std::istringstream in(spec);
  std::string name;
  while (std::getline(in, name, ',')) {
    if (name.empty()) continue;
    bool found = false;
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      const Layer layer = static_cast<Layer>(i);
      if (name == to_string(layer)) {
        mask |= layer_bit(layer);
        found = true;
        break;
      }
    }
    if (!found) {
      throw std::invalid_argument(
          "unknown trace layer '" + name +
          "' (expected phy, mac, nbr, route, mon, atk, flt, or all)");
    }
  }
  return mask;
}

const char* to_string(DefenseTag tag) {
  switch (tag) {
    case DefenseTag::kLiteworp:
      return "liteworp";
    case DefenseTag::kLeash:
      return "leash";
    case DefenseTag::kZScore:
      return "zscore";
    case DefenseTag::kNone:
      return "none";
  }
  return "?";
}

bool parse_defense_tag(const std::string& name, DefenseTag* out) {
  constexpr DefenseTag kTags[] = {DefenseTag::kLiteworp, DefenseTag::kLeash,
                                  DefenseTag::kZScore, DefenseTag::kNone};
  for (DefenseTag tag : kTags) {
    if (name == to_string(tag)) {
      if (out != nullptr) *out = tag;
      return true;
    }
  }
  return false;
}

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kPhyTx:
      return "tx";
    case EventKind::kPhyRx:
      return "rx";
    case EventKind::kPhyCollision:
      return "collision";
    case EventKind::kPhyLoss:
      return "loss";
    case EventKind::kMacBackoff:
      return "backoff";
    case EventKind::kMacBusyDrop:
      return "busy_drop";
    case EventKind::kMacOverhear:
      return "overhear";
    case EventKind::kNbrHello:
      return "hello";
    case EventKind::kNbrReply:
      return "reply";
    case EventKind::kNbrList:
      return "list";
    case EventKind::kNbrAdmit:
      return "admit";
    case EventKind::kNbrReject:
      return "reject";
    case EventKind::kNbrJoinStart:
      return "join_start";
    case EventKind::kNbrJoinComplete:
      return "join_complete";
    case EventKind::kRouteDiscovery:
      return "discovery";
    case EventKind::kRouteEstablished:
      return "established";
    case EventKind::kRouteForward:
      return "forward";
    case EventKind::kRouteDeliver:
      return "deliver";
    case EventKind::kRouteDrop:
      return "drop";
    case EventKind::kRouteError:
      return "error";
    case EventKind::kMonWatchAdd:
      return "watch_add";
    case EventKind::kMonWatchClear:
      return "watch_clear";
    case EventKind::kMonWatchExpire:
      return "watch_expire";
    case EventKind::kMonSuspicion:
      return "suspicion";
    case EventKind::kMonDetection:
      return "detection";
    case EventKind::kMonAlert:
      return "alert";
    case EventKind::kMonIsolation:
      return "isolation";
    case EventKind::kAtkTunnel:
      return "tunnel";
    case EventKind::kAtkReplay:
      return "replay";
    case EventKind::kAtkDrop:
      return "drop";
    case EventKind::kAtkSpawn:
      return "spawn";
    case EventKind::kFltCrash:
      return "crash";
    case EventKind::kFltRecover:
      return "recover";
    case EventKind::kFltLinkDown:
      return "link_down";
    case EventKind::kFltLinkUp:
      return "link_up";
    case EventKind::kFltFrame:
      return "frame";
    case EventKind::kFltCorrupt:
      return "corrupt";
  }
  return "?";
}

Layer layer_of(EventKind kind) {
  switch (kind) {
    case EventKind::kPhyTx:
    case EventKind::kPhyRx:
    case EventKind::kPhyCollision:
    case EventKind::kPhyLoss:
      return Layer::kPhy;
    case EventKind::kMacBackoff:
    case EventKind::kMacBusyDrop:
    case EventKind::kMacOverhear:
      return Layer::kMac;
    case EventKind::kNbrHello:
    case EventKind::kNbrReply:
    case EventKind::kNbrList:
    case EventKind::kNbrAdmit:
    case EventKind::kNbrReject:
    case EventKind::kNbrJoinStart:
    case EventKind::kNbrJoinComplete:
      return Layer::kNeighbor;
    case EventKind::kRouteDiscovery:
    case EventKind::kRouteEstablished:
    case EventKind::kRouteForward:
    case EventKind::kRouteDeliver:
    case EventKind::kRouteDrop:
    case EventKind::kRouteError:
      return Layer::kRouting;
    case EventKind::kMonWatchAdd:
    case EventKind::kMonWatchClear:
    case EventKind::kMonWatchExpire:
    case EventKind::kMonSuspicion:
    case EventKind::kMonDetection:
    case EventKind::kMonAlert:
    case EventKind::kMonIsolation:
      return Layer::kMonitor;
    case EventKind::kAtkTunnel:
    case EventKind::kAtkReplay:
    case EventKind::kAtkDrop:
    case EventKind::kAtkSpawn:
      return Layer::kAttack;
    case EventKind::kFltCrash:
    case EventKind::kFltRecover:
    case EventKind::kFltLinkDown:
    case EventKind::kFltLinkUp:
    case EventKind::kFltFrame:
    case EventKind::kFltCorrupt:
      return Layer::kFault;
  }
  return Layer::kPhy;
}

bool parse_event_kind(std::string_view layer, std::string_view event,
                      EventKind* out) {
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    const EventKind kind = static_cast<EventKind>(i);
    if (event == to_string(kind) && layer == to_string(layer_of(kind))) {
      if (out != nullptr) *out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace lw::obs

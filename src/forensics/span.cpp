#include "forensics/span.h"

#include "obs/metrics_registry.h"
#include "packet/packet.h"

namespace lw::forensics {

using obs::Event;
using obs::EventKind;
using obs::HistogramSummary;

namespace {

void write_summary(util::JsonWriter& json, const HistogramSummary& s) {
  json.open('{');
  json.key("count").value(s.count);
  json.key("min").value(s.min);
  json.key("max").value(s.max);
  json.key("mean").value(s.mean);
  json.key("p50").value(s.p50);
  json.key("p95").value(s.p95);
  json.close('}');
}

}  // namespace

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRouteSession:
      return "route_session";
    case SpanKind::kAlertRound:
      return "alert_round";
    case SpanKind::kAlibiWindow:
      return "alibi_window";
    case SpanKind::kTunnelSession:
      return "tunnel_session";
    case SpanKind::kJoinHandshake:
      return "join_handshake";
  }
  return "?";
}

bool parse_span_kind(const std::string& name, SpanKind* out) {
  for (std::size_t i = 0; i < kSpanKindCount; ++i) {
    const SpanKind kind = static_cast<SpanKind>(i);
    if (name == to_string(kind)) {
      if (out != nullptr) *out = kind;
      return true;
    }
  }
  return false;
}

SpanBuilder::SpanBuilder(const IncidentBuilder& incidents,
                         std::ostream* trace_out)
    : incidents_(incidents), trace_out_(trace_out) {
  report_.enabled = true;
}

std::uint32_t SpanBuilder::open_span(SpanKind kind, const Event& event,
                                     NodeId node, NodeId peer,
                                     std::uint64_t lineage,
                                     std::uint32_t parent) {
  OpenSpan span;
  span.kind = kind;
  span.sid = next_sid_++;
  span.begin = event.t;
  span.node = node;
  span.peer = peer;
  span.lineage = lineage;
  span.parent = parent;
  if (parent != 0) {
    auto it = open_.find(parent);
    if (it != open_.end()) {
      ++it->second.open_children;
    } else {
      span.parent = 0;  // parent already gone; orphaned child is a root
    }
  }
  ++report_.kinds[static_cast<std::size_t>(kind)].opened;
  emit_begin(span);
  const std::uint32_t sid = span.sid;
  open_.emplace(sid, span);
  return sid;
}

void SpanBuilder::request_close(std::uint32_t sid, Time t,
                                const char* outcome) {
  auto it = open_.find(sid);
  if (it == open_.end()) return;
  if (it->second.open_children > 0) {
    // Enclosure guarantee: the parent interval must cover every child, so
    // the span.end waits for the last open child.
    it->second.end_pending = true;
    it->second.pending_outcome = outcome;
    return;
  }
  finish(sid, t, outcome, /*terminal=*/true);
}

void SpanBuilder::finish(std::uint32_t sid, Time t, const char* outcome,
                         bool terminal) {
  auto it = open_.find(sid);
  if (it == open_.end()) return;
  const OpenSpan span = it->second;
  open_.erase(it);
  const double dur = t - span.begin;
  emit_end(span, t, dur, outcome);
  SpanKindStats& stats = report_.kinds[static_cast<std::size_t>(span.kind)];
  if (terminal) {
    ++stats.closed;
    stats.duration_sum += dur;
    stats.durations.push_back(dur);
  }
  if (span.parent != 0) {
    auto parent = open_.find(span.parent);
    if (parent != open_.end() && parent->second.open_children > 0) {
      --parent->second.open_children;
      if (parent->second.open_children == 0 && parent->second.end_pending) {
        finish(span.parent, t, parent->second.pending_outcome,
               /*terminal=*/true);
      }
    }
  }
}

void SpanBuilder::emit_begin(const OpenSpan& span) {
  if (trace_out_ == nullptr) return;
  line_.clear();
  line_.raw("{\"t\":")
      .fixed<9>(span.begin)
      .raw(",\"layer\":\"span\",\"event\":\"begin\",\"span\":\"")
      .raw(to_string(span.kind))
      .raw("\",\"sid\":")
      .u64(span.sid)
      .raw(",\"node\":")
      .u64(span.node);
  if (span.peer != kInvalidNode) line_.raw(",\"peer\":").u64(span.peer);
  if (span.parent != 0) line_.raw(",\"parent\":").u64(span.parent);
  if (span.lineage != 0) line_.raw(",\"lin\":").u64(span.lineage);
  line_.raw("}\n");
  trace_out_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

void SpanBuilder::emit_end(const OpenSpan& span, Time t, double dur,
                           const char* outcome) {
  if (trace_out_ == nullptr) return;
  line_.clear();
  line_.raw("{\"t\":")
      .fixed<9>(t)
      .raw(",\"layer\":\"span\",\"event\":\"end\",\"span\":\"")
      .raw(to_string(span.kind))
      .raw("\",\"sid\":")
      .u64(span.sid)
      .raw(",\"node\":")
      .u64(span.node);
  if (span.peer != kInvalidNode) line_.raw(",\"peer\":").u64(span.peer);
  line_.raw(",\"dur\":")
      .fixed<9>(dur)
      .raw(",\"outcome\":\"")
      .raw(outcome)
      .raw("\"");
  if (span.retries > 0) line_.raw(",\"retries\":").u64(span.retries);
  if (span.ph_observe >= 0.0 && span.ph_corroborate >= 0.0 &&
      span.ph_isolate >= 0.0) {
    line_.raw(",\"observe\":")
        .fixed<9>(span.ph_observe)
        .raw(",\"corroborate\":")
        .fixed<9>(span.ph_corroborate)
        .raw(",\"isolate\":")
        .fixed<9>(span.ph_isolate);
  }
  line_.raw("}\n");
  trace_out_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

void SpanBuilder::open_alert_round(const Event& event) {
  const NodeId accused = event.peer;
  if (alert_open_.count(accused) != 0 || alert_closed_.count(accused) != 0) {
    return;
  }
  // Parent: the accused's wormhole operating window, when one is open
  // (it begins at the first tunneled frame, which precedes any evidence
  // a guard could gather about it).
  std::uint32_t parent = 0;
  auto tunnel = tunnel_open_.find(accused);
  if (tunnel != tunnel_open_.end()) parent = tunnel->second;
  const std::uint32_t sid = open_span(SpanKind::kAlertRound, event,
                                      /*node=*/accused, /*peer=*/event.node,
                                      /*lineage=*/0, parent);
  alert_open_.emplace(accused, sid);
}

void SpanBuilder::on_event(const Event& event) {
  if (flushed_) return;
  switch (event.kind) {
    case EventKind::kRouteDiscovery: {
      const auto key = std::make_pair(event.node, event.peer);
      auto it = route_open_.find(key);
      if (it != route_open_.end()) {
        // Retry flood for an already-open discovery session.
        auto span = open_.find(it->second);
        if (span != open_.end()) ++span->second.retries;
        break;
      }
      const std::uint32_t sid =
          open_span(SpanKind::kRouteSession, event, event.node, event.peer,
                    event.lineage_hint, /*parent=*/0);
      route_open_.emplace(key, sid);
      break;
    }
    case EventKind::kRouteEstablished: {
      auto it = route_open_.find(std::make_pair(event.node, event.peer));
      if (it == route_open_.end()) break;
      const std::uint32_t sid = it->second;
      route_open_.erase(it);
      request_close(sid, event.t, "established");
      break;
    }
    case EventKind::kMonWatchAdd: {
      if (event.packet == nullptr) break;
      const auto key = std::make_tuple(event.node, event.peer,
                                       static_cast<std::uint64_t>(
                                           event.packet->lineage));
      if (alibi_open_.count(key) != 0) break;
      // Parent: the discovery session this REP answers. The REP carries
      // the full source route origin..destination.
      std::uint32_t parent = 0;
      if (!event.packet->route.empty()) {
        auto session = route_open_.find(std::make_pair(
            event.packet->route.front(), event.packet->route.back()));
        if (session != route_open_.end()) parent = session->second;
      }
      const std::uint32_t sid =
          open_span(SpanKind::kAlibiWindow, event, event.node, event.peer,
                    event.packet->lineage, parent);
      alibi_open_.emplace(key, sid);
      break;
    }
    case EventKind::kMonWatchClear:
    case EventKind::kMonWatchExpire: {
      // A cleared watch carries the overheard forward (which inherits the
      // arming REP's lineage verbatim); an expired watch has no packet, so
      // the emit site captures the lineage into the hint field.
      const std::uint64_t lineage =
          event.packet != nullptr
              ? static_cast<std::uint64_t>(event.packet->lineage)
              : static_cast<std::uint64_t>(event.lineage_hint);
      auto it = alibi_open_.find(std::make_tuple(event.node, event.peer,
                                                 lineage));
      if (it == alibi_open_.end()) break;
      const std::uint32_t sid = it->second;
      alibi_open_.erase(it);
      request_close(sid, event.t,
                    event.kind == EventKind::kMonWatchClear ? "cleared"
                                                            : "dropped");
      break;
    }
    case EventKind::kMonSuspicion:
    case EventKind::kMonDetection:
    case EventKind::kMonAlert:
      open_alert_round(event);
      break;
    case EventKind::kMonIsolation: {
      const NodeId accused = event.peer;
      auto round = alert_open_.find(accused);
      if (round != alert_open_.end()) {
        const std::uint32_t sid = round->second;
        alert_open_.erase(round);
        alert_closed_.insert(accused);
        OpenSpan& span = open_.at(sid);
        // The round opened on the accused's first suspicion, detection or
        // alert, so the incident's first suspicion and first detection are
        // the round's own.
        const Incident& incident = incidents_.accused().at(accused);
        const Time act = incidents_.first_malicious_act(accused);
        if (act >= 0.0) {
          report_.detection_latencies.push_back(event.t - act);
          if (incident.first_suspicion >= 0.0 &&
              incident.first_detection >= 0.0) {
            span.ph_observe = incident.first_suspicion - act;
            span.ph_corroborate =
                incident.first_detection - incident.first_suspicion;
            span.ph_isolate = event.t - incident.first_detection;
            report_.observe.samples.push_back(span.ph_observe);
            report_.observe.sum += span.ph_observe;
            ++report_.observe.count;
            report_.corroborate.samples.push_back(span.ph_corroborate);
            report_.corroborate.sum += span.ph_corroborate;
            ++report_.corroborate.count;
            report_.isolate.samples.push_back(span.ph_isolate);
            report_.isolate.sum += span.ph_isolate;
            ++report_.isolate.count;
          }
        }
        request_close(sid, event.t, "isolated");
      }
      auto tunnel = tunnel_open_.find(accused);
      if (tunnel != tunnel_open_.end()) {
        const std::uint32_t sid = tunnel->second;
        tunnel_open_.erase(tunnel);
        request_close(sid, event.t, "isolated");
      }
      break;
    }
    case EventKind::kAtkTunnel: {
      if (tunnel_open_.count(event.node) == 0) {
        const std::uint32_t sid =
            open_span(SpanKind::kTunnelSession, event, event.node, event.peer,
                      /*lineage=*/0, /*parent=*/0);
        tunnel_open_.emplace(event.node, sid);
      }
      break;
    }
    case EventKind::kNbrJoinStart: {
      auto it = join_open_.find(event.node);
      if (it != join_open_.end()) {
        auto span = open_.find(it->second);
        if (span != open_.end()) ++span->second.retries;
        break;
      }
      const std::uint32_t sid =
          open_span(SpanKind::kJoinHandshake, event, event.node,
                    kInvalidNode, /*lineage=*/0, /*parent=*/0);
      join_open_.emplace(event.node, sid);
      break;
    }
    case EventKind::kNbrJoinComplete: {
      auto it = join_open_.find(event.node);
      if (it == join_open_.end()) break;
      const std::uint32_t sid = it->second;
      join_open_.erase(it);
      open_.at(sid).peer = event.peer;  // the authenticating neighbor
      request_close(sid, event.t, "joined");
      break;
    }
    default:
      break;
  }
}

void SpanBuilder::flush(Time now) {
  if (flushed_) return;
  flushed_ = true;
  // Children always carry a larger sid than their parent (the parent must
  // be open when the child opens), so descending order closes leaves
  // first; an end-pending parent then finishes through the normal cascade
  // with its real outcome.
  std::vector<std::uint32_t> sids;
  sids.reserve(open_.size());
  for (const auto& [sid, span] : open_) sids.push_back(sid);
  for (auto it = sids.rbegin(); it != sids.rend(); ++it) {
    auto span = open_.find(*it);
    if (span == open_.end()) continue;  // closed by a child's cascade
    if (span->second.end_pending) continue;
    finish(*it, now, "open", /*terminal=*/false);
  }
  // Any survivors were end-pending parents whose children were also
  // end-pending (cannot happen today, but stay safe): force-close them.
  while (!open_.empty()) {
    const std::uint32_t sid = open_.rbegin()->first;
    finish(sid, now, open_.rbegin()->second.pending_outcome, true);
  }
  route_open_.clear();
  alibi_open_.clear();
  alert_open_.clear();
  tunnel_open_.clear();
  join_open_.clear();
}

std::string spans_to_json(const SpanReport& report) {
  util::JsonWriter json;
  json.open('{');
  json.key("kinds").open('{');
  for (std::size_t i = 0; i < kSpanKindCount; ++i) {
    const SpanKindStats& stats = report.kinds[i];
    if (stats.opened == 0) continue;
    json.key(to_string(static_cast<SpanKind>(i))).open('{');
    json.key("opened").value(stats.opened);
    json.key("closed").value(stats.closed);
    json.key("duration");
    write_summary(json, obs::summarize_samples(stats.durations));
    json.close('}');
  }
  json.close('}');
  if (report.observe.count > 0) {
    const auto phase = [&json](const char* name, const PhaseStats& stats) {
      json.key(name).open('{');
      json.key("sum").value(stats.sum);
      json.key("summary");
      write_summary(json, obs::summarize_samples(stats.samples));
      json.close('}');
    };
    json.key("phases").open('{');
    phase("observe", report.observe);
    phase("corroborate", report.corroborate);
    phase("isolate", report.isolate);
    json.close('}');
  }
  if (!report.detection_latencies.empty()) {
    json.key("detection_latency");
    write_summary(json, obs::summarize_samples(report.detection_latencies));
  }
  json.close('}');
  return json.str();
}

}  // namespace lw::forensics

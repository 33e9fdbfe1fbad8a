// Protocol-transaction spans: folding the event bus into typed intervals.
//
// LITEWORP's headline guarantees are latencies — how fast a guard's
// watch-buffer alibi test turns a malicious relay into gamma corroborated
// alerts and then isolation — but the trace records point events only. A
// SpanBuilder is an EventSink that stitches those points into five kinds
// of multi-event transactions:
//
//   route_session   REQ flood started -> usable route cached, one per
//                   (origin, destination) pair; re-floods while the
//                   session is open count as retries.
//   alibi_window    drop watch armed -> cleared (forward overheard) or
//                   dropped (watch expired), one per
//                   (guard, forwarder, REP lineage). Child of the
//                   route_session whose REP armed it.
//   alert_round     first suspicion/detection/alert naming an accused ->
//                   its first isolation; one per accused per run. Child of
//                   the accused's open tunnel_session, if any. Carries the
//                   observe/corroborate/isolate phase decomposition of the
//                   paper's detection latency, read from the accused's
//                   incident (IncidentBuilder) when the round closes.
//   tunnel_session  attacker's first tunneled frame -> its first
//                   isolation (the wormhole's operating window).
//   join_handshake  dynamic-join start -> first authenticated neighbor.
//
// Determinism contract: spans are derived purely from the (deterministic)
// event stream on the single thread driving the run, and span ids are a
// monotone counter in open order — so span trace lines, like every other
// trace byte, are identical per seed at any sweep --threads value.
//
// Causality: a child span records its parent's sid at open time (the
// parent must already be open). A parent whose logical end arrives while
// children are still open defers its span.end until the last child closes,
// so declared parent intervals always enclose their children — the
// invariant lw-trace check #8 verifies offline.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "forensics/incident.h"
#include "obs/recorder.h"
#include "util/json.h"

namespace lw::forensics {

enum class SpanKind : std::uint8_t {
  kRouteSession = 0,
  kAlertRound = 1,
  kAlibiWindow = 2,
  kTunnelSession = 3,
  kJoinHandshake = 4,
};
inline constexpr std::size_t kSpanKindCount = 5;

/// Short stable span-kind name used in span trace lines and sweep JSON
/// ("route_session", "alert_round", "alibi_window", "tunnel_session",
/// "join_handshake").
const char* to_string(SpanKind kind);

/// Reverse lookup for trace readers. Returns false on unknown names.
bool parse_span_kind(const std::string& name, SpanKind* out);

/// Per-kind open/close tally plus the raw closed-span durations.
struct SpanKindStats {
  std::uint64_t opened = 0;
  /// Spans closed with a terminal outcome; spans still open at run end are
  /// flushed with outcome "open" and excluded from the duration samples.
  std::uint64_t closed = 0;
  double duration_sum = 0.0;
  /// Raw durations of terminally-closed spans, in close order (sim s).
  std::vector<double> durations;
};

/// One phase of the alert-round detection-latency decomposition.
struct PhaseStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  /// Raw per-round samples, in close order (sim s).
  std::vector<double> samples;
};

/// A finished run's span statistics; lands in RunResult and (rendered by
/// spans_to_json) under each replica's "spans" key in the sweep JSON.
struct SpanReport {
  bool enabled = false;
  std::array<SpanKindStats, kSpanKindCount> kinds;
  /// Detection-latency phases over alert rounds that reached isolation
  /// with a complete timeline (first act, suspicion, and detection all
  /// observed): observe = first suspicion - first malicious act,
  /// corroborate = first local detection - first suspicion, isolate =
  /// first isolation - first detection. The three always telescope:
  /// observe + corroborate + isolate = first isolation - first act.
  PhaseStats observe;
  PhaseStats corroborate;
  PhaseStats isolate;
  /// First-act -> first-isolation latency for every alert round whose
  /// accused acted and was isolated (the forensics latency population,
  /// phase-complete or not), in close order.
  std::vector<double> detection_latencies;
};

/// EventSink folding nbr/route/mon/atk events into spans. Register it
/// AFTER `incidents` (an alert round's phases are read from the accused's
/// incident, which must already hold the closing isolation) and AFTER the
/// TraceWriter, so span.begin/span.end lines land immediately after the
/// event that opened/closed them; pass the same trace stream to emit span
/// lines, or null to collect statistics only.
class SpanBuilder final : public obs::EventSink {
 public:
  SpanBuilder(const IncidentBuilder& incidents, std::ostream* trace_out);

  void on_event(const obs::Event& event) override;

  /// Closes every span still open (children before parents) at time `now`
  /// with outcome "open". Idempotent; events after the first flush are
  /// ignored. Call before reading report() or the trace buffer.
  void flush(Time now);

  const SpanReport& report() const { return report_; }

 private:
  struct OpenSpan {
    SpanKind kind = SpanKind::kRouteSession;
    std::uint32_t sid = 0;
    Time begin = 0.0;
    NodeId node = kInvalidNode;
    NodeId peer = kInvalidNode;
    std::uint64_t lineage = 0;
    /// Parent sid; 0 = root.
    std::uint32_t parent = 0;
    std::uint32_t retries = 0;
    std::uint32_t open_children = 0;
    /// Logical end arrived while children were open; span.end is deferred
    /// until the last child closes.
    bool end_pending = false;
    const char* pending_outcome = nullptr;
    // Alert-round phase values, set just before close (negative = absent).
    double ph_observe = -1.0;
    double ph_corroborate = -1.0;
    double ph_isolate = -1.0;
  };

  std::uint32_t open_span(SpanKind kind, const obs::Event& event, NodeId node,
                          NodeId peer, std::uint64_t lineage,
                          std::uint32_t parent);
  /// Ends `sid` now, or marks it end-pending while children remain open.
  void request_close(std::uint32_t sid, Time t, const char* outcome);
  /// Emits span.end, updates stats (terminal outcomes only), and closes a
  /// pending parent when this was its last open child.
  void finish(std::uint32_t sid, Time t, const char* outcome, bool terminal);
  void emit_begin(const OpenSpan& span);
  void emit_end(const OpenSpan& span, Time t, double dur, const char* outcome);

  /// Opens the alert round of the event's accused on first contact (one
  /// round per accused per run).
  void open_alert_round(const obs::Event& event);

  const IncidentBuilder& incidents_;
  std::ostream* trace_out_;
  util::JsonWriter line_;  // reused for every span line
  bool flushed_ = false;
  std::uint32_t next_sid_ = 1;
  /// Open spans by sid; std::map keeps flush order deterministic.
  std::map<std::uint32_t, OpenSpan> open_;

  // Key -> open sid indexes, one per span kind.
  std::map<std::pair<NodeId, NodeId>, std::uint32_t> route_open_;
  std::map<std::tuple<NodeId, NodeId, std::uint64_t>, std::uint32_t>
      alibi_open_;
  std::map<NodeId, std::uint32_t> alert_open_;
  std::map<NodeId, std::uint32_t> tunnel_open_;
  std::map<NodeId, std::uint32_t> join_open_;
  /// Accused whose alert round already closed (one round per run).
  std::set<NodeId> alert_closed_;

  SpanReport report_;
};

/// Renders a SpanReport as a compact JSON object (deterministic field
/// order, round-trippable doubles): per-kind open/close tallies and
/// duration summaries, phase summaries, and the pooled detection-latency
/// summary. The sweep JSON embeds this verbatim under each replica's
/// "spans" key. Raw sample vectors are summarized, not dumped.
std::string spans_to_json(const SpanReport& report);

}  // namespace lw::forensics

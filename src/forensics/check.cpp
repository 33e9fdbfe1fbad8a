#include "forensics/check.h"

#include <cmath>
#include <map>
#include <set>
#include <string_view>
#include <utility>

namespace lw::forensics {
namespace {

/// One open span (invariant 8 bookkeeping).
struct OpenSpanState {
  /// Valid while the checked records are.
  std::string_view kind;
  Time begin = 0.0;
  std::uint64_t parent = 0;
  std::size_t open_children = 0;
  std::size_t begin_line = 0;
};

/// Per-run-segment linter state; reset at every run header.
struct SegmentState {
  Time last_t = 0.0;
  bool any_event = false;
  /// sid -> open span (invariant 8).
  std::map<std::uint64_t, OpenSpanState> open_spans;
  /// Every sid seen in a span.begin this segment (uniqueness).
  std::set<std::uint64_t> span_sids;
  /// Lineages that appeared in a route.forward.
  std::set<LineageId> forwarded;
  /// accused -> distinct guards that alerted about it.
  std::map<NodeId, std::set<NodeId>> alert_guards;
  /// (isolating node, accused) pairs already isolated.
  std::set<std::pair<NodeId, NodeId>> isolated;
  /// Nodes currently inside a crash window (flt.crash .. flt.recover).
  std::set<NodeId> crashed;
  /// Ground-truth malicious nodes (atk.spawn actors).
  std::set<NodeId> spawned;
  /// victim -> compromised guards that framed it (flt.frame).
  std::map<NodeId, std::set<NodeId>> framers;
};

/// Invariant 8: span begin/end balance, sid uniqueness, and enclosure.
void check_span(const TraceRecord& record, SegmentState& state,
                std::vector<CheckIssue>& issues) {
  if (!record.span_kind_known) {
    issues.push_back({record.line, "unknown span kind '" +
                                       std::string(record.span_kind()) + "'"});
  }
  if (record.name() == "begin") {
    if (!state.span_sids.insert(record.sid).second) {
      issues.push_back(
          {record.line, "duplicate span sid " + std::to_string(record.sid)});
      return;
    }
    OpenSpanState open;
    open.kind = record.span_kind();
    open.begin = record.t;
    open.parent = record.parent;
    open.begin_line = record.line;
    if (record.parent != 0) {
      auto parent = state.open_spans.find(record.parent);
      if (parent == state.open_spans.end()) {
        issues.push_back({record.line,
                          "span sid " + std::to_string(record.sid) +
                              " declares parent " +
                              std::to_string(record.parent) +
                              " that is not open"});
        open.parent = 0;
      } else {
        ++parent->second.open_children;
      }
    }
    state.open_spans.emplace(record.sid, std::move(open));
    return;
  }
  auto it = state.open_spans.find(record.sid);
  if (it == state.open_spans.end()) {
    issues.push_back({record.line, "span.end for sid " +
                                       std::to_string(record.sid) +
                                       " without an open span.begin"});
    return;
  }
  const OpenSpanState open = it->second;
  if (record.t < open.begin) {
    issues.push_back({record.line, "span sid " + std::to_string(record.sid) +
                                       " ends before it begins"});
  }
  if (record.has_dur &&
      std::abs(record.dur - (record.t - open.begin)) > 1e-6) {
    issues.push_back({record.line,
                      "span sid " + std::to_string(record.sid) + " dur " +
                          std::to_string(record.dur) +
                          " does not match its begin/end interval"});
  }
  if (open.open_children > 0) {
    issues.push_back({record.line,
                      "span sid " + std::to_string(record.sid) + " ends with " +
                          std::to_string(open.open_children) +
                          " child span(s) still open (not enclosed)"});
  }
  if (open.parent != 0) {
    auto parent = state.open_spans.find(open.parent);
    if (parent != state.open_spans.end() &&
        parent->second.open_children > 0) {
      --parent->second.open_children;
    }
  }
  state.open_spans.erase(record.sid);
}

/// Segment ended: every span still open lacks its span.end.
void report_open_spans(const SegmentState& state,
                       std::vector<CheckIssue>& issues) {
  for (const auto& [sid, open] : state.open_spans) {
    issues.push_back({open.begin_line, "span sid " + std::to_string(sid) +
                                           " (" + std::string(open.kind) +
                                           ") has no matching span.end"});
  }
}

}  // namespace

std::vector<CheckIssue> check_trace(const std::vector<TraceRecord>& records,
                                    const CheckOptions& options) {
  std::vector<CheckIssue> issues;
  SegmentState state;

  for (const TraceRecord& record : records) {
    if (record.is_run_header) {
      report_open_spans(state, issues);
      state = SegmentState{};
      continue;
    }
    if (record.is_span) {
      // Invariant 1 applies to span lines too; the SpanBuilder emits them
      // inline with the events that open/close them.
      if (state.any_event && record.t < state.last_t) {
        issues.push_back(
            {record.line, "timestamp goes backwards (t=" +
                              std::to_string(record.t) + " after t=" +
                              std::to_string(state.last_t) + ")"});
      }
      state.last_t = record.t;
      state.any_event = true;
      check_span(record, state, issues);
      continue;
    }
    if (!record.kind_known) {
      issues.push_back({record.line, "unknown event '" +
                                         std::string(record.layer()) + "." +
                                         std::string(record.name()) + "'"});
      continue;
    }

    if (state.any_event && record.t < state.last_t) {
      issues.push_back(
          {record.line, "timestamp goes backwards (t=" +
                            std::to_string(record.t) + " after t=" +
                            std::to_string(state.last_t) + ")"});
    }
    state.last_t = record.t;
    state.any_event = true;

    switch (record.kind) {
      case obs::EventKind::kPhyTx:
        // Invariant 6: a crashed node's radio is silent — any transmission
        // between its flt.crash and flt.recover was produced by a stale
        // timer the crash failed to disarm.
        if (state.crashed.count(record.node) != 0) {
          issues.push_back(
              {record.line, "node " + std::to_string(record.node) +
                                " transmits while crashed"});
        }
        break;

      case obs::EventKind::kFltCrash:
        state.crashed.insert(record.node);
        break;

      case obs::EventKind::kFltRecover:
        state.crashed.erase(record.node);
        break;

      case obs::EventKind::kAtkSpawn:
        state.spawned.insert(record.node);
        break;

      case obs::EventKind::kFltFrame:
        if (record.peer != kInvalidNode) {
          state.framers[record.peer].insert(record.node);
        }
        break;

      case obs::EventKind::kRouteForward:
        if (record.has_packet) state.forwarded.insert(record.lineage);
        if (record.peer != kInvalidNode &&
            state.isolated.count({record.node, record.peer}) != 0) {
          issues.push_back(
              {record.line, "node " + std::to_string(record.node) +
                                " forwards to " + std::to_string(record.peer) +
                                " after isolating it"});
        }
        break;

      case obs::EventKind::kRouteDeliver:
        if (record.has_packet &&
            state.forwarded.count(record.lineage) == 0) {
          issues.push_back(
              {record.line, "delivery of lineage " +
                                std::to_string(record.lineage) +
                                " without a matching route.forward"});
        }
        break;

      case obs::EventKind::kMonAlert:
        if (record.peer != kInvalidNode) {
          state.alert_guards[record.peer].insert(record.node);
        }
        break;

      case obs::EventKind::kMonIsolation: {
        const NodeId accused = record.peer;
        const auto it = state.alert_guards.find(accused);
        const std::size_t distinct =
            it == state.alert_guards.end() ? 0 : it->second.size();
        const auto claimed = static_cast<std::size_t>(record.value);
        if (distinct < claimed) {
          issues.push_back(
              {record.line,
               "isolation of " + std::to_string(accused) + " claims " +
                   std::to_string(claimed) + " alerts but only " +
                   std::to_string(distinct) + " distinct guards alerted"});
        }
        if (options.gamma > 0 &&
            distinct < static_cast<std::size_t>(options.gamma)) {
          issues.push_back(
              {record.line,
               "isolation of " + std::to_string(accused) + " with only " +
                   std::to_string(distinct) + " distinct accusing guards (gamma=" +
                   std::to_string(options.gamma) + ")"});
        }
        // Invariant 7 (the gamma defense): an honest node that compromised
        // guards tried to frame may only end up isolated when at least
        // gamma guards were compromised — fewer than gamma framers must
        // never convict, no matter how noisy the channel.
        const auto framed = state.framers.find(accused);
        if (options.gamma > 0 && state.spawned.count(accused) == 0 &&
            framed != state.framers.end() &&
            framed->second.size() < static_cast<std::size_t>(options.gamma)) {
          issues.push_back(
              {record.line,
               "isolation of honest node " + std::to_string(accused) +
                   " framed by only " + std::to_string(framed->second.size()) +
                   " compromised guard(s) (gamma=" +
                   std::to_string(options.gamma) +
                   "): the gamma defense failed"});
        }
        state.isolated.insert({record.node, accused});
        break;
      }

      default:
        break;
    }
  }
  report_open_spans(state, issues);
  return issues;
}

}  // namespace lw::forensics

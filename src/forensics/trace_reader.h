// Reads lw JSONL traces back into typed records.
//
// The inverse of obs::TraceWriter (plus the per-run meta lines the bench
// CLI writes between runs): a tiny special-purpose parser for the flat
// one-object-per-line schema documented in docs/TRACE_FORMAT.md. It is NOT
// a general JSON parser — exactly the value shapes the writer produces
// (numbers, strings, and the one-level "run" header object) are accepted,
// and anything else throws TraceFormatError with the offending line
// number, which is what a forensic tool should do with a tampered trace.
#pragma once

#include <cstdint>
#include <istream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.h"

namespace lw::forensics {

class TraceFormatError : public std::runtime_error {
 public:
  TraceFormatError(std::size_t line, const std::string& message)
      : std::runtime_error("trace line " + std::to_string(line) + ": " +
                           message),
        line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// One parsed trace line: either a run header (bench meta line) or an
/// event. Unknown layer/event names parse successfully with
/// `kind_known = false` so the `check` linter can report them with a line
/// number instead of aborting at the first one.
struct TraceRecord {
  bool is_run_header = false;
  std::size_t line = 0;

  // ---- Run header fields ----
  std::string point;
  std::uint64_t run_seed = 0;

  // ---- Event fields ----
  std::string layer;
  std::string name;
  bool kind_known = false;
  obs::EventKind kind = obs::EventKind::kPhyTx;
  Time t = 0.0;
  NodeId node = kInvalidNode;
  NodeId peer = kInvalidNode;
  double value = 0.0;
  bool has_value = false;

  // ---- Packet fields (present when the event carried a packet) ----
  bool has_packet = false;
  std::string pkt_type;
  NodeId origin = kInvalidNode;
  SeqNo seq = 0;
  LineageId lineage = 0;

  /// Suspicion kind ("fab"/"drop"/"anom") on mon.suspicion lines; empty
  /// otherwise.
  std::string suspicion;

  /// Defense backend attribution ("leash"/"zscore"/...) on mon.* lines
  /// from non-default backends; empty means LITEWORP (the writer omits
  /// the key for the default so legacy traces parse unchanged).
  std::string defense;

  // ---- Span fields (layer == "span": SpanBuilder begin/end lines) ----
  /// True for span.begin / span.end lines; `name` is "begin" or "end",
  /// `kind_known` stays false (spans are not point events).
  bool is_span = false;
  /// Span kind name ("route_session", ...); span_kind_known is false when
  /// the name is not in the SpanKind vocabulary (check reports it).
  std::string span_kind;
  bool span_kind_known = false;
  std::uint64_t sid = 0;
  /// Parent sid; 0 = root span.
  std::uint64_t parent = 0;
  /// span.end only: duration and outcome.
  double dur = 0.0;
  bool has_dur = false;
  std::string outcome;
  std::uint64_t retries = 0;
  /// Alert-round latency decomposition (span.end, complete rounds only).
  bool has_phases = false;
  double observe = 0.0;
  double corroborate = 0.0;
  double isolate = 0.0;

  /// The event as the in-process sinks would have seen it (packet pointer
  /// is null — offline consumers use the flattened fields above).
  obs::Event to_event() const;
};

/// Parses one JSONL line (without trailing newline). Blank lines return
/// false. Throws TraceFormatError on malformed input.
bool parse_trace_line(std::string_view line, std::size_t line_no,
                      TraceRecord* out);

/// Reads a whole trace stream. Throws TraceFormatError on the first
/// malformed line.
std::vector<TraceRecord> read_trace(std::istream& in);

/// All records belonging to one packet lineage, in trace order: the
/// packet's causal chain (origin transmit, forwards, guard overhears,
/// wormhole tunnel/replay hops, delivery).
std::vector<TraceRecord> lineage_chain(const std::vector<TraceRecord>& records,
                                       LineageId lineage);

/// Human-readable one-liner for a record (`lw-trace follow` output).
std::string describe(const TraceRecord& record);

}  // namespace lw::forensics

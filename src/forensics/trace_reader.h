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
#include <memory>
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
///
/// The record is compact: a long trace holds hundreds of thousands of
/// them. Every name the writers emit (layer and event, packet type,
/// suspicion kind, defense tag, span kind, span outcome) is stored as a
/// one-byte code into a fixed vocabulary. Any other text, the run header's
/// point and any out-of-vocabulary name a hand-made or corrupt trace
/// carries, lives in one side allocation shared by copies of the record;
/// it is null on lines that name nothing outside the vocabulary. Names are
/// read through the string_view accessors, which return the exact decoded
/// text of the line ("" for an absent key).
struct TraceRecord {
  // Members are grouped by size so the record packs without padding.
  std::size_t line = 0;

  // ---- Run header fields ----
  std::uint64_t run_seed = 0;

  // ---- Event fields ----
  Time t = 0.0;
  double value = 0.0;

  // ---- Packet fields (present when the event carried a packet) ----
  SeqNo seq = 0;
  LineageId lineage = 0;

  // ---- Span fields (layer "span": SpanBuilder begin/end lines) ----
  std::uint64_t sid = 0;
  /// Parent sid; 0 = root span.
  std::uint64_t parent = 0;
  std::uint64_t retries = 0;
  /// span.end only: duration.
  double dur = 0.0;
  /// Alert-round latency decomposition (span.end, complete rounds only).
  double observe = 0.0;
  double corroborate = 0.0;
  double isolate = 0.0;

  NodeId node = kInvalidNode;
  NodeId peer = kInvalidNode;
  /// Packet origin.
  NodeId origin = kInvalidNode;

  obs::EventKind kind = obs::EventKind::kPhyTx;
  bool is_run_header : 1 = false;
  /// True when (layer, event) names an obs::EventKind; then `kind` is it.
  bool kind_known : 1 = false;
  bool has_value : 1 = false;
  bool has_packet : 1 = false;
  /// True for span.begin / span.end lines; `name()` is "begin" or "end",
  /// `kind_known` stays false (spans are not point events).
  bool is_span : 1 = false;
  /// False when the span kind is not in the SpanKind vocabulary (check
  /// reports it).
  bool span_kind_known : 1 = false;
  bool has_dur : 1 = false;
  bool has_phases : 1 = false;

  /// The named fields, each coded against its own vocabulary.
  enum Field : std::uint8_t {
    kPoint,
    kLayer,
    kEvent,
    kPacket,
    kSuspicion,
    kDefense,
    kSpanKind,
    kOutcome,
    kFieldCount,
  };

  /// Run header: the sweep-point label.
  std::string_view point() const { return text(kPoint); }
  std::string_view layer() const { return text(kLayer); }
  /// The event name ("tx", "suspicion", ...; "begin"/"end" on span lines).
  std::string_view name() const { return text(kEvent); }
  std::string_view pkt_type() const { return text(kPacket); }
  /// Suspicion kind ("fab"/"drop"/"anom") on mon.suspicion lines.
  std::string_view suspicion() const { return text(kSuspicion); }
  /// Defense backend attribution ("leash"/"zscore"/...) on mon.* lines
  /// from non-default backends; empty means LITEWORP (the writer omits
  /// the key for the default so legacy traces parse unchanged).
  std::string_view defense() const { return text(kDefense); }
  /// Span kind name ("route_session", ...).
  std::string_view span_kind() const { return text(kSpanKind); }
  /// span.end only: how the span closed ("established", "open", ...).
  std::string_view outcome() const { return text(kOutcome); }

  /// The event as the in-process sinks would have seen it (packet pointer
  /// is null — offline consumers use the flattened fields above).
  obs::Event to_event() const;

 private:
  friend bool parse_trace_line(std::string_view, std::size_t, TraceRecord*);

  /// The decoded text of every out-of-vocabulary field, indexed by Field.
  struct Text {
    std::string names[kFieldCount];
  };

  std::string_view text(Field field) const;

  /// Per field: 0 = absent or empty, 0xFF = the text is in text_,
  /// otherwise 1 + the name's index in the field's vocabulary.
  std::uint8_t codes_[kFieldCount] = {};
  std::shared_ptr<const Text> text_;
};

static_assert(sizeof(TraceRecord) <= 144,
              "TraceRecord is held once per trace line; keep it compact");

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

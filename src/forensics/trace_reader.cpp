#include "forensics/trace_reader.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "obs/span.h"
#include "util/json.h"

namespace lw::forensics {
namespace {

/// Cursor over one line; fails with TraceFormatError carrying the line no.
class Scanner {
 public:
  Scanner(std::string_view text, std::size_t line_no)
      : text_(text), line_(line_no) {}

  [[noreturn]] void fail(const std::string& message) const {
    throw TraceFormatError(line_, message);
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return at_end() ? '\0' : text_[pos_]; }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    }
    ++pos_;
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  /// The next string value with its JSON escapes decoded. A view into the
  /// line when the string has no escapes, otherwise into a buffer the next
  /// call overwrites.
  std::string_view string_value() {
    expect('"');
    const std::size_t start = pos_;
    while (!at_end() && text_[pos_] != '"' && text_[pos_] != '\\') ++pos_;
    if (peek() != '\\') {  // the closing quote, or the end of the line
      expect('"');
      return text_.substr(start, pos_ - 1 - start);
    }
    unescaped_.clear();
    try {
      pos_ = util::unescape_json_string(text_, start, &unescaped_);
    } catch (const util::JsonParseError& e) {
      fail(e.what());
    }
    return unescaped_;
  }

  double number_value() {
    const std::size_t start = pos_;
    while (!at_end()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a number");
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double value = 0.0;
    const auto [end, error] = std::from_chars(first, last, value);
    if (error == std::errc() && end == last) return value;
    // from_chars takes a subset of what strtod takes (no leading '+', no
    // out-of-range magnitudes); strtod decides every other token, so the
    // accepted set, each value and each error stay strtod's.
    const std::string token(first, last);
    char* token_end = nullptr;
    value = std::strtod(token.c_str(), &token_end);
    if (token_end == nullptr || *token_end != '\0') {
      fail("bad number '" + token + "'");
    }
    return value;
  }

 private:
  std::string_view text_;
  std::size_t line_;
  std::size_t pos_ = 0;
  std::string unescaped_;
};

void parse_run_header(Scanner& scanner, TraceRecord* out) {
  out->is_run_header = true;
  scanner.expect('{');
  bool first = true;
  while (!scanner.consume('}')) {
    if (!first) scanner.expect(',');
    first = false;
    const std::string_view key = scanner.string_value();
    scanner.expect(':');
    if (key == "point") {
      out->point = scanner.string_value();
    } else if (key == "seed") {
      out->run_seed = static_cast<std::uint64_t>(scanner.number_value());
    } else {
      scanner.fail("unknown run-header key '" + std::string(key) + "'");
    }
  }
  scanner.expect('}');
  if (!scanner.at_end()) scanner.fail("trailing characters");
}

}  // namespace

obs::Event TraceRecord::to_event() const {
  obs::Event event;
  event.t = t;
  event.kind = kind;
  event.node = node;
  event.peer = peer;
  event.value = value;
  event.detail = suspicion == "drop"   ? obs::kSuspicionDrop
                 : suspicion == "anom" ? obs::kSuspicionAnomaly
                                       : obs::kSuspicionFabrication;
  if (!defense.empty()) {
    obs::DefenseTag tag = obs::DefenseTag::kLiteworp;
    if (obs::parse_defense_tag(defense, &tag)) {
      event.def = static_cast<std::uint8_t>(tag);
    }
  }
  return event;
}

bool parse_trace_line(std::string_view line, std::size_t line_no,
                      TraceRecord* out) {
  if (line.empty()) return false;
  *out = TraceRecord{};
  out->line = line_no;

  Scanner scanner(line, line_no);
  scanner.expect('{');
  bool first = true;
  bool saw_t = false;
  while (!scanner.consume('}')) {
    if (!first) scanner.expect(',');
    first = false;
    const std::string_view key = scanner.string_value();
    scanner.expect(':');
    if (key == "run") {
      if (saw_t || !out->layer.empty() || !out->name.empty()) {
        scanner.fail("run header mixed with event fields");
      }
      parse_run_header(scanner, out);
      return true;
    }
    if (key == "t") {
      out->t = scanner.number_value();
      saw_t = true;
    } else if (key == "layer") {
      out->layer = scanner.string_value();
    } else if (key == "event") {
      out->name = scanner.string_value();
    } else if (key == "node") {
      out->node = static_cast<NodeId>(scanner.number_value());
    } else if (key == "peer") {
      out->peer = static_cast<NodeId>(scanner.number_value());
    } else if (key == "pkt") {
      out->pkt_type = scanner.string_value();
      out->has_packet = true;
    } else if (key == "origin") {
      out->origin = static_cast<NodeId>(scanner.number_value());
    } else if (key == "seq") {
      out->seq = static_cast<SeqNo>(scanner.number_value());
    } else if (key == "lin") {
      out->lineage = static_cast<LineageId>(scanner.number_value());
    } else if (key == "sus") {
      out->suspicion = scanner.string_value();
    } else if (key == "def") {
      out->defense = scanner.string_value();
      obs::DefenseTag tag = obs::DefenseTag::kLiteworp;
      if (!obs::parse_defense_tag(out->defense, &tag)) {
        scanner.fail("unknown defense tag '" + out->defense + "'");
      }
    } else if (key == "value") {
      out->value = scanner.number_value();
      out->has_value = true;
    } else if (key == "span") {
      out->span_kind = scanner.string_value();
    } else if (key == "sid") {
      out->sid = static_cast<std::uint64_t>(scanner.number_value());
    } else if (key == "parent") {
      out->parent = static_cast<std::uint64_t>(scanner.number_value());
    } else if (key == "dur") {
      out->dur = scanner.number_value();
      out->has_dur = true;
    } else if (key == "outcome") {
      out->outcome = scanner.string_value();
    } else if (key == "retries") {
      out->retries = static_cast<std::uint64_t>(scanner.number_value());
    } else if (key == "observe") {
      out->observe = scanner.number_value();
      out->has_phases = true;
    } else if (key == "corroborate") {
      out->corroborate = scanner.number_value();
    } else if (key == "isolate") {
      out->isolate = scanner.number_value();
    } else {
      scanner.fail("unknown key '" + std::string(key) + "'");
    }
  }
  if (!scanner.at_end()) scanner.fail("trailing characters");
  if (!saw_t || out->layer.empty() || out->name.empty()) {
    throw TraceFormatError(line_no, "event line missing t/layer/event");
  }
  if (out->layer == "span") {
    out->is_span = true;
    if (out->name != "begin" && out->name != "end") {
      throw TraceFormatError(line_no,
                             "span line with event '" + out->name +
                                 "' (expected begin or end)");
    }
    if (out->span_kind.empty() || out->sid == 0) {
      throw TraceFormatError(line_no, "span line missing span/sid");
    }
    out->span_kind_known = obs::parse_span_kind(out->span_kind, nullptr);
    return true;
  }
  if (!out->span_kind.empty()) {
    throw TraceFormatError(line_no, "span key on a non-span line");
  }
  out->kind_known = obs::parse_event_kind(out->layer, out->name, &out->kind);
  return true;
}

std::vector<TraceRecord> read_trace(std::istream& in) {
  std::vector<TraceRecord> records;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    TraceRecord record;
    if (parse_trace_line(line, line_no, &record)) {
      records.push_back(std::move(record));
    }
  }
  return records;
}

std::vector<TraceRecord> lineage_chain(const std::vector<TraceRecord>& records,
                                       LineageId lineage) {
  std::vector<TraceRecord> chain;
  for (const TraceRecord& record : records) {
    if (!record.is_run_header && record.has_packet &&
        record.lineage == lineage) {
      chain.push_back(record);
    }
  }
  return chain;
}

std::string describe(const TraceRecord& record) {
  char buffer[256];
  if (record.is_run_header) {
    std::snprintf(buffer, sizeof(buffer), "== run point=%s seed=%llu ==",
                  record.point.c_str(),
                  static_cast<unsigned long long>(record.run_seed));
    return buffer;
  }
  int n = std::snprintf(buffer, sizeof(buffer), "%12.6f  %-5s %-12s node %u",
                        record.t, record.layer.c_str(), record.name.c_str(),
                        record.node);
  std::string out(buffer, static_cast<std::size_t>(n));
  if (record.is_span) {
    n = std::snprintf(buffer, sizeof(buffer), "  %s sid=%llu",
                      record.span_kind.c_str(),
                      static_cast<unsigned long long>(record.sid));
    out.append(buffer, static_cast<std::size_t>(n));
    if (record.parent != 0) {
      n = std::snprintf(buffer, sizeof(buffer), " parent=%llu",
                        static_cast<unsigned long long>(record.parent));
      out.append(buffer, static_cast<std::size_t>(n));
    }
    if (record.has_dur) {
      n = std::snprintf(buffer, sizeof(buffer), " dur=%.6f outcome=%s",
                        record.dur, record.outcome.c_str());
      out.append(buffer, static_cast<std::size_t>(n));
    }
  }
  if (record.peer != kInvalidNode) {
    n = std::snprintf(buffer, sizeof(buffer), " -> %u", record.peer);
    out.append(buffer, static_cast<std::size_t>(n));
  }
  if (record.has_packet) {
    n = std::snprintf(buffer, sizeof(buffer), "  %s(origin=%u seq=%llu lin=%llu)",
                      record.pkt_type.c_str(), record.origin,
                      static_cast<unsigned long long>(record.seq),
                      static_cast<unsigned long long>(record.lineage));
    out.append(buffer, static_cast<std::size_t>(n));
  }
  if (!record.suspicion.empty()) {
    out += "  sus=" + record.suspicion;
  }
  if (!record.defense.empty()) {
    out += "  def=" + record.defense;
  }
  if (record.has_value) {
    n = std::snprintf(buffer, sizeof(buffer), "  value=%.9g", record.value);
    out.append(buffer, static_cast<std::size_t>(n));
  }
  return out;
}

}  // namespace lw::forensics

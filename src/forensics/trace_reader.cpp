#include "forensics/trace_reader.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "forensics/span.h"
#include "packet/packet.h"
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

/// TraceRecord::codes_ value of a field whose text is kept verbatim.
constexpr std::uint8_t kOutOfVocabulary = 0xFF;

/// The names one field takes in traces the writers produce; code i + 1
/// stands for names[i].
class Vocabulary {
 public:
  Vocabulary() = default;
  explicit Vocabulary(std::vector<std::string_view> names)
      : names_(std::move(names)) {}

  /// 0 for the empty name, kOutOfVocabulary when `name` is not listed.
  std::uint8_t code(std::string_view name) const {
    if (name.empty()) return 0;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint8_t>(i + 1);
    }
    return kOutOfVocabulary;
  }

  std::string_view name(std::uint8_t code) const { return names_[code - 1]; }

 private:
  std::vector<std::string_view> names_;
};

/// The to_string names of the enum values [first, end), in enum order.
template <typename Enum>
std::vector<std::string_view> enum_names(std::size_t first, std::size_t end) {
  std::vector<std::string_view> names;
  for (std::size_t i = first; i < end; ++i) {
    names.emplace_back(to_string(static_cast<Enum>(i)));
  }
  return names;
}

/// One vocabulary per TraceRecord field, built from the tables the writers
/// format names with. The point has none: it is always kept verbatim.
std::vector<Vocabulary> make_vocabularies() {
  // Code - 1 is the obs::Layer.
  std::vector<std::string_view> layers =
      enum_names<obs::Layer>(0, obs::kLayerCount);
  layers.emplace_back("span");
  std::vector<std::string_view> events =
      enum_names<obs::EventKind>(0, obs::kEventKindCount);
  events.insert(events.end(), {"begin", "end"});

  std::vector<Vocabulary> vocabularies(TraceRecord::kFieldCount);
  vocabularies[TraceRecord::kLayer] = Vocabulary(std::move(layers));
  vocabularies[TraceRecord::kEvent] = Vocabulary(std::move(events));
  vocabularies[TraceRecord::kPacket] = Vocabulary(enum_names<pkt::PacketType>(
      static_cast<std::size_t>(pkt::PacketType::kHello),
      static_cast<std::size_t>(pkt::PacketType::kJoinResponse) + 1));
  // Code - 1 is the obs::Event::detail value (kSuspicion*).
  vocabularies[TraceRecord::kSuspicion] = Vocabulary({"fab", "drop", "anom"});
  // Code - 1 is the obs::DefenseTag.
  vocabularies[TraceRecord::kDefense] = Vocabulary(enum_names<obs::DefenseTag>(
      0, static_cast<std::size_t>(obs::DefenseTag::kNone) + 1));
  vocabularies[TraceRecord::kSpanKind] =
      Vocabulary(enum_names<SpanKind>(0, kSpanKindCount));
  // The outcomes SpanBuilder closes spans with.
  vocabularies[TraceRecord::kOutcome] = Vocabulary(
      {"established", "cleared", "dropped", "isolated", "joined", "open"});
  return vocabularies;
}

const Vocabulary& vocabulary(TraceRecord::Field field) {
  static const std::vector<Vocabulary> vocabularies = make_vocabularies();
  return vocabularies[field];
}

/// Parses the body of a run header; the point is copied out because the
/// scanner reuses its buffer for the next escaped string.
void parse_run_header(Scanner& scanner, std::string* point,
                      std::uint64_t* seed) {
  scanner.expect('{');
  bool first = true;
  while (!scanner.consume('}')) {
    if (!first) scanner.expect(',');
    first = false;
    const std::string_view key = scanner.string_value();
    scanner.expect(':');
    if (key == "point") {
      *point = scanner.string_value();
    } else if (key == "seed") {
      *seed = static_cast<std::uint64_t>(scanner.number_value());
    } else {
      scanner.fail("unknown run-header key '" + std::string(key) + "'");
    }
  }
  scanner.expect('}');
  if (!scanner.at_end()) scanner.fail("trailing characters");
}

/// Appends printf-formatted numbers to `out`, however long they print.
template <typename... Args>
void append_format(std::string& out, const char* format, Args... args) {
  const int n = std::snprintf(nullptr, 0, format, args...);
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(n) + 1);
  std::snprintf(out.data() + at, static_cast<std::size_t>(n) + 1, format,
                args...);
  out.resize(at + static_cast<std::size_t>(n));
}

/// Appends `text` left-aligned in a field of `width` (printf's "%-*s").
void append_padded(std::string& out, std::string_view text,
                   std::size_t width) {
  out += text;
  if (text.size() < width) out.append(width - text.size(), ' ');
}

}  // namespace

std::string_view TraceRecord::text(Field field) const {
  const std::uint8_t code = codes_[field];
  if (code == 0) return {};
  if (code == kOutOfVocabulary) return text_->names[field];
  return vocabulary(field).name(code);
}

obs::Event TraceRecord::to_event() const {
  obs::Event event;
  event.t = t;
  event.kind = kind;
  event.node = node;
  event.peer = peer;
  event.value = value;
  const std::uint8_t sus = codes_[kSuspicion];
  event.detail = sus != 0 && sus != kOutOfVocabulary
                     ? static_cast<std::uint8_t>(sus - 1)
                     : obs::kSuspicionFabrication;
  // The reader rejects unknown tags, so the code is 0 (no key) or a tag.
  if (codes_[kDefense] != 0) {
    event.def = static_cast<std::uint8_t>(codes_[kDefense] - 1);
  }
  return event;
}

bool parse_trace_line(std::string_view line, std::size_t line_no,
                      TraceRecord* out) {
  if (line.empty()) return false;
  *out = TraceRecord{};
  out->line = line_no;

  // The record's side text, allocated at the first out-of-vocabulary name.
  std::shared_ptr<TraceRecord::Text> text;
  auto set_name = [&](TraceRecord::Field field, std::string_view name) {
    const std::uint8_t code = vocabulary(field).code(name);
    out->codes_[field] = code;
    if (code != kOutOfVocabulary) return;
    if (!text) {
      text = std::make_shared<TraceRecord::Text>();
      out->text_ = text;
    }
    text->names[field] = name;
  };

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
      if (saw_t || !out->layer().empty() || !out->name().empty()) {
        scanner.fail("run header mixed with event fields");
      }
      out->is_run_header = true;
      std::string point;
      parse_run_header(scanner, &point, &out->run_seed);
      set_name(TraceRecord::kPoint, point);
      return true;
    }
    if (key == "t") {
      out->t = scanner.number_value();
      saw_t = true;
    } else if (key == "layer") {
      set_name(TraceRecord::kLayer, scanner.string_value());
    } else if (key == "event") {
      set_name(TraceRecord::kEvent, scanner.string_value());
    } else if (key == "node") {
      out->node = static_cast<NodeId>(scanner.number_value());
    } else if (key == "peer") {
      out->peer = static_cast<NodeId>(scanner.number_value());
    } else if (key == "pkt") {
      set_name(TraceRecord::kPacket, scanner.string_value());
      out->has_packet = true;
    } else if (key == "origin") {
      out->origin = static_cast<NodeId>(scanner.number_value());
    } else if (key == "seq") {
      out->seq = static_cast<SeqNo>(scanner.number_value());
    } else if (key == "lin") {
      out->lineage = static_cast<LineageId>(scanner.number_value());
    } else if (key == "sus") {
      set_name(TraceRecord::kSuspicion, scanner.string_value());
    } else if (key == "def") {
      const std::string_view tag = scanner.string_value();
      const std::uint8_t code = vocabulary(TraceRecord::kDefense).code(tag);
      if (code == 0 || code == kOutOfVocabulary) {
        scanner.fail("unknown defense tag '" + std::string(tag) + "'");
      }
      out->codes_[TraceRecord::kDefense] = code;
    } else if (key == "value") {
      out->value = scanner.number_value();
      out->has_value = true;
    } else if (key == "span") {
      set_name(TraceRecord::kSpanKind, scanner.string_value());
    } else if (key == "sid") {
      out->sid = static_cast<std::uint64_t>(scanner.number_value());
    } else if (key == "parent") {
      out->parent = static_cast<std::uint64_t>(scanner.number_value());
    } else if (key == "dur") {
      out->dur = scanner.number_value();
      out->has_dur = true;
    } else if (key == "outcome") {
      set_name(TraceRecord::kOutcome, scanner.string_value());
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
  if (!saw_t || out->layer().empty() || out->name().empty()) {
    throw TraceFormatError(line_no, "event line missing t/layer/event");
  }
  if (out->layer() == "span") {
    out->is_span = true;
    if (out->name() != "begin" && out->name() != "end") {
      throw TraceFormatError(line_no, "span line with event '" +
                                          std::string(out->name()) +
                                          "' (expected begin or end)");
    }
    if (out->span_kind().empty() || out->sid == 0) {
      throw TraceFormatError(line_no, "span line missing span/sid");
    }
    out->span_kind_known =
        out->codes_[TraceRecord::kSpanKind] != kOutOfVocabulary;
    return true;
  }
  if (!out->span_kind().empty()) {
    throw TraceFormatError(line_no, "span key on a non-span line");
  }
  out->kind_known = obs::parse_event_kind(out->layer(), out->name(), &out->kind);
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
  std::string out;
  if (record.is_run_header) {
    out += "== run point=";
    out += record.point();
    append_format(out, " seed=%llu ==",
                  static_cast<unsigned long long>(record.run_seed));
    return out;
  }
  append_format(out, "%12.6f  ", record.t);
  append_padded(out, record.layer(), 5);
  out += ' ';
  append_padded(out, record.name(), 12);
  append_format(out, " node %u", record.node);
  if (record.is_span) {
    out += "  ";
    out += record.span_kind();
    append_format(out, " sid=%llu",
                  static_cast<unsigned long long>(record.sid));
    if (record.parent != 0) {
      append_format(out, " parent=%llu",
                    static_cast<unsigned long long>(record.parent));
    }
    if (record.has_dur) {
      append_format(out, " dur=%.6f outcome=", record.dur);
      out += record.outcome();
    }
  }
  if (record.peer != kInvalidNode) append_format(out, " -> %u", record.peer);
  if (record.has_packet) {
    out += "  ";
    out += record.pkt_type();
    append_format(out, "(origin=%u seq=%llu lin=%llu)", record.origin,
                  static_cast<unsigned long long>(record.seq),
                  static_cast<unsigned long long>(record.lineage));
  }
  if (!record.suspicion().empty()) {
    out += "  sus=";
    out += record.suspicion();
  }
  if (!record.defense().empty()) {
    out += "  def=";
    out += record.defense();
  }
  if (record.has_value) append_format(out, "  value=%.9g", record.value);
  return out;
}

}  // namespace lw::forensics

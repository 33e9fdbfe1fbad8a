// The repo's one JSON module: the writer every JSON document of the
// libraries, benches and tools goes through (traces, spans, sweep JSON,
// bench rows, BENCH_history.json, incident and Perfetto exports; the
// standalone lwbench driver keeps its own) and the reader for the report
// tooling's own machine output.
//
// The escaping rule, for every string and key written: '"' and '\' get a
// backslash, bytes below 0x20 become \u00XX (lowercase hex), and every
// other byte, UTF-8 included, is copied verbatim. The reader decodes every
// JSON escape (unescape_json_string), so anything written reads back
// unchanged.
//
// The reader covers the dialect the writer produces: objects, arrays,
// strings, finite numbers, booleans, null (no comments, no NaN/Inf
// literals, UTF-8 passed through verbatim). Objects preserve insertion
// order so rendered reports list fields the way the producer wrote them.
// Parse errors throw JsonParseError with a byte offset, which the CLI
// tools translate into "file:offset: message" diagnostics.
#pragma once

#include <cfloat>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lw::util {

class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& message, std::size_t offset)
      : std::runtime_error(message), offset_(offset) {}
  /// Byte offset into the parsed text where the error was detected.
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// One parsed JSON value; a tagged tree. Cheap enough for the report
/// tooling's file-sized inputs (this is not a streaming parser).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses exactly one JSON document (trailing whitespace allowed,
  /// trailing garbage rejected). Throws JsonParseError.
  static JsonValue parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  /// Numbers are doubles: exact for every counter below 2^53, which covers
  /// all emitted values by a wide margin.
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  /// Object members in document order.
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Member lookup; null when absent or when this is not an object.
  const JsonValue* find(const std::string& key) const;
  /// find() that also requires the member to be a number; `fallback` when
  /// absent. The report tooling's main accessor.
  double number_or(const std::string& key, double fallback) const;
  /// find() for strings; `fallback` when absent.
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  friend class JsonParser;
};

/// Append-only JSON writer.
///
/// Tokens (raw, u64, fixed, general, escaped, string, value, null) append
/// bytes and nothing else, so a caller that spells its own punctuation with
/// raw() — a trace line, a Perfetto event — pays for no bookkeeping.
/// Structure (open, close, key, item) places the commas: key() and item()
/// write one unless they start the first member or element of the
/// innermost open() container; nothing else writes a comma.
///
/// Numbers go through std::to_chars, which the standard defines to produce
/// exactly what printf does in the "C" locale for the same conversion and
/// precision: fixed<9>(v) is "%.9f", general<10>(v) is "%.10g", u64(v) is
/// "%llu", and value(double) is general<17>, the round-trip spelling
/// ostream gives at precision 17. Output is locale-independent.
///
/// clear() keeps the buffer's capacity, so a reused writer stops allocating
/// once it has seen its longest document.
class JsonWriter {
 public:
  void clear() {
    buf_.clear();
    fresh_ = true;
  }
  const char* data() const { return buf_.data(); }
  std::size_t size() const { return buf_.size(); }
  const std::string& str() const { return buf_; }

  /// Bytes copied verbatim: punctuation, keys and names known to need no
  /// escaping, pre-rendered JSON.
  JsonWriter& raw(std::string_view text) {
    buf_.append(text);
    return *this;
  }

  /// Unsigned decimal.
  JsonWriter& u64(std::uint64_t value) {
    char digits[20];
    const auto result = std::to_chars(digits, digits + sizeof digits, value);
    buf_.append(digits, result.ptr);
    return *this;
  }

  /// printf("%.<Precision>f", value).
  template <int Precision>
  JsonWriter& fixed(double value) {
    static_assert(Precision >= 0 && Precision <= kMaxPrecision);
    return number(value, std::chars_format::fixed, Precision);
  }

  /// printf("%.<Precision>g", value).
  template <int Precision>
  JsonWriter& general(double value) {
    static_assert(Precision >= 0 && Precision <= kMaxPrecision);
    return number(value, std::chars_format::general, Precision);
  }

  /// The inside of a JSON string (no quotes added), escaped by the rule in
  /// the file comment. No length limit.
  JsonWriter& escaped(std::string_view text) {
    static constexpr char kHex[] = "0123456789abcdef";
    std::size_t run = 0;  // start of the pending verbatim run
    for (std::size_t i = 0; i < text.size(); ++i) {
      const auto c = static_cast<unsigned char>(text[i]);
      if (c >= 0x20 && c != '"' && c != '\\') continue;
      buf_.append(text.data() + run, i - run);
      run = i + 1;
      if (c < 0x20) {
        const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        buf_.append(code, sizeof code);
      } else {
        const char pair[] = {'\\', static_cast<char>(c)};
        buf_.append(pair, sizeof pair);
      }
    }
    buf_.append(text.data() + run, text.size() - run);
    return *this;
  }

  /// A quoted, escaped JSON string.
  JsonWriter& string(std::string_view text) {
    buf_ += '"';
    escaped(text);
    buf_ += '"';
    return *this;
  }

  /// Round-trip double (general<17>).
  JsonWriter& value(double v) { return general<17>(v); }
  JsonWriter& value(std::uint64_t v) { return u64(v); }
  JsonWriter& value(bool v) { return raw(v ? "true" : "false"); }
  /// Strings go through string(); this keeps a pointer from silently
  /// becoming a bool.
  JsonWriter& value(const char*) = delete;
  JsonWriter& null() { return raw("null"); }

  /// Opens an object or array ('{' or '['); its first key() or item()
  /// writes no comma.
  JsonWriter& open(char bracket) {
    buf_ += bracket;
    fresh_ = true;
    return *this;
  }
  JsonWriter& close(char bracket) {
    buf_ += bracket;
    fresh_ = false;
    return *this;
  }
  /// Starts an object member: comma if needed, then "name":.
  JsonWriter& key(std::string_view name) {
    item();
    string(name);
    buf_ += ':';
    return *this;
  }
  /// Starts an array element: comma if needed, then `indent` (whitespace
  /// for documents laid out one element per line).
  JsonWriter& item(std::string_view indent = {}) {
    if (!fresh_) buf_ += ',';
    fresh_ = false;
    buf_.append(indent);
    return *this;
  }

 private:
  /// Longest precision the writer is used with; sizes the scratch buffer.
  static constexpr int kMaxPrecision = 17;

  JsonWriter& number(double value, std::chars_format format, int precision) {
    // Longest fixed rendering: sign, DBL_MAX's integer digits, point,
    // fraction. General and the "inf"/"nan" spellings are shorter.
    char text[1 + DBL_MAX_10_EXP + 1 + 1 + kMaxPrecision];
    const auto result = std::to_chars(text, text + sizeof text, value, format,
                                      precision);
    buf_.append(text, result.ptr);
    return *this;
  }

  std::string buf_;
  bool fresh_ = true;  // no member/element yet in the innermost container
};

/// Decodes the body of a JSON string that starts at text[pos], just past
/// its opening quote, and appends the decoded bytes to *out: the
/// two-character escapes and \uXXXX (a surrogate pair as one code point)
/// become their bytes in UTF-8, everything else is copied. Returns the
/// offset just past the closing quote. Throws JsonParseError, at the
/// offending offset, on an unterminated string or a malformed escape.
std::size_t unescape_json_string(std::string_view text, std::size_t pos,
                                 std::string* out);

}  // namespace lw::util

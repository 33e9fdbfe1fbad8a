// Append-only formatter for the trace path's JSON lines.
//
// Numbers go through std::to_chars, which the standard defines to produce
// exactly what printf does in the "C" locale for the same conversion and
// precision: fixed<9>(v) is "%.9f", general<9>(v) is "%.9g", u64(v) is
// "%llu". Output is therefore locale-independent and byte-identical to the
// printf formats the trace schema was first written with
// (docs/TRACE_FORMAT.md).
//
// One buffer serves a whole line (TraceWriter, SpanBuilder) or a whole
// export chunk (forensics::export_perfetto); clear() keeps its capacity, so
// a reused JsonLine stops allocating once it has seen its longest line.
#pragma once

#include <cfloat>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace lw::obs {

class JsonLine {
 public:
  void clear() { buf_.clear(); }
  const char* data() const { return buf_.data(); }
  std::size_t size() const { return buf_.size(); }

  /// Bytes copied verbatim: keys, punctuation, names known to need no
  /// escaping.
  JsonLine& raw(std::string_view text) {
    buf_.append(text);
    return *this;
  }

  /// Unsigned decimal.
  JsonLine& u64(std::uint64_t value) {
    char digits[20];
    const auto result = std::to_chars(digits, digits + sizeof digits, value);
    buf_.append(digits, result.ptr);
    return *this;
  }

  /// printf("%.<Precision>f", value).
  template <int Precision>
  JsonLine& fixed(double value) {
    static_assert(Precision >= 0 && Precision <= kMaxPrecision);
    return number(value, std::chars_format::fixed, Precision);
  }

  /// printf("%.<Precision>g", value).
  template <int Precision>
  JsonLine& general(double value) {
    static_assert(Precision >= 0 && Precision <= kMaxPrecision);
    return number(value, std::chars_format::general, Precision);
  }

  /// The inside of a JSON string (no quotes added): '"' and '\' are
  /// backslash-escaped, bytes below 0x20 become \u00XX, everything else
  /// (UTF-8 included) is copied verbatim. No length limit.
  JsonLine& escaped(std::string_view text) {
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

 private:
  /// Longest precision the formatter is used with; sizes the scratch
  /// buffer.
  static constexpr int kMaxPrecision = 17;

  JsonLine& number(double value, std::chars_format format, int precision) {
    // Longest fixed rendering: sign, DBL_MAX's integer digits, point,
    // fraction. General and the "inf"/"nan" spellings are shorter.
    char text[1 + DBL_MAX_10_EXP + 1 + 1 + kMaxPrecision];
    const auto result = std::to_chars(text, text + sizeof text, value, format,
                                      precision);
    buf_.append(text, result.ptr);
    return *this;
  }

  std::string buf_;
};

}  // namespace lw::obs

#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>

namespace lw::util {
namespace {

void append_utf8(std::uint32_t code, std::string* out) {
  if (code < 0x80) {
    *out += static_cast<char>(code);
  } else if (code < 0x800) {
    *out += static_cast<char>(0xC0 | (code >> 6));
    *out += static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    *out += static_cast<char>(0xE0 | (code >> 12));
    *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    *out += static_cast<char>(0xF0 | (code >> 18));
    *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

/// The four hex digits of a \u escape at text[at].
std::uint32_t hex4(std::string_view text, std::size_t at) {
  if (at + 4 > text.size()) throw JsonParseError("truncated \\u escape", at);
  const char* last = text.data() + at + 4;
  std::uint32_t code = 0;
  const auto [end, error] = std::from_chars(text.data() + at, last, code, 16);
  if (error != std::errc() || end != last) {
    throw JsonParseError("bad \\u escape", at);
  }
  return code;
}

}  // namespace

std::size_t unescape_json_string(std::string_view text, std::size_t pos,
                                 std::string* out) {
  while (true) {
    const std::size_t run = pos;
    while (pos < text.size() && text[pos] != '"' && text[pos] != '\\') ++pos;
    out->append(text.substr(run, pos - run));
    if (pos >= text.size()) throw JsonParseError("unterminated string", pos);
    if (text[pos++] == '"') return pos;
    if (pos >= text.size()) throw JsonParseError("unterminated escape", pos);
    const char esc = text[pos++];
    switch (esc) {
      case '"':
      case '\\':
      case '/':
        *out += esc;
        break;
      case 'b':
        *out += '\b';
        break;
      case 'f':
        *out += '\f';
        break;
      case 'n':
        *out += '\n';
        break;
      case 'r':
        *out += '\r';
        break;
      case 't':
        *out += '\t';
        break;
      case 'u': {
        std::uint32_t code = hex4(text, pos);
        pos += 4;
        // A high surrogate followed by a low one is one code point; a
        // lone surrogate is kept as its three-byte form.
        if (code >= 0xD800 && code < 0xDC00 &&
            text.substr(pos, 2) == "\\u") {
          const std::uint32_t low = hex4(text, pos + 2);
          if (low >= 0xDC00 && low < 0xE000) {
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            pos += 6;
          }
        }
        append_utf8(code, out);
        break;
      }
      default:
        throw JsonParseError("unknown escape", pos - 1);
    }
  }
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonParseError(message, pos_);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return parse_string_value();
      case 't':
      case 'f':
        return parse_bool();
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue value;
    value.kind_ = JsonValue::Kind::kObject;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string_text();
      skip_whitespace();
      expect(':');
      value.members_.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == '}') {
        ++pos_;
        return value;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue value;
    value.kind_ = JsonValue::Kind::kArray;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.items_.push_back(parse_value());
      skip_whitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == ']') {
        ++pos_;
        return value;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string_text() {
    expect('"');
    std::string out;
    pos_ = unescape_json_string(text_, pos_, &out);
    return out;
  }

  JsonValue parse_string_value() {
    JsonValue value;
    value.kind_ = JsonValue::Kind::kString;
    value.string_ = parse_string_text();
    return value;
  }

  JsonValue parse_bool() {
    JsonValue value;
    value.kind_ = JsonValue::Kind::kBool;
    if (consume_literal("true")) {
      value.bool_ = true;
    } else if (consume_literal("false")) {
      value.bool_ = false;
    } else {
      fail("bad literal");
    }
    return value;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        digits = true;
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        ++pos_;
      } else {
        break;
      }
    }
    if (!digits) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("bad number");
    }
    JsonValue value;
    value.kind_ = JsonValue::Kind::kNumber;
    value.number_ = parsed;
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* value = find(key);
  return value != nullptr && value->is_number() ? value->as_number()
                                                : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* value = find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : fallback;
}

}  // namespace lw::util

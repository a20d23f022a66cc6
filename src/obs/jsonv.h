// Minimal recursive-descent JSON reader shared by the offline analyzers
// (profile.cpp's analyze_trace and spiketrace.cpp's analyze_spike_trace)
// and the tests that check the writers emit valid JSON. Integers that fit
// uint64 keep their exact value; everything numeric also carries the strtod
// double, which round-trips the writers' shortest-roundtrip output
// bit-for-bit. Strings may not hold raw control characters, and numbers
// follow JSON's grammar (no '+' sign, no bare '.' or trailing '.').
//
// Header-only on purpose: the reader predates this header as a private
// detail of profile.cpp and stays an implementation tool, not a public
// interchange API — include it from .cpp files only.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace compass::obs::jsonv {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::uint64_t integer = 0;
  bool is_integer = false;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
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

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        if (consume_literal("true")) {
          v.boolean = true;
        } else if (consume_literal("false")) {
          v.boolean = false;
        } else {
          fail("invalid literal");
        }
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // The writers only escape control characters; decode those and
          // pass anything else through as '?' (never produced by our side).
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  bool is_digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  // One or more digits; fails with `what` when there are none.
  void digits(const char* what) {
    if (!is_digit()) fail(what);
    while (is_digit()) ++pos_;
  }

  // -?digits(.digits)?([eE][+-]?digits)?
  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    digits(pos_ == start ? "invalid value" : "malformed number");
    bool fractional = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      fractional = true;
      ++pos_;
      digits("malformed number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      fractional = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      digits("malformed number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(token.c_str(), nullptr);
    if (!fractional && token[0] != '-') {
      errno = 0;
      char* end = nullptr;
      const std::uint64_t u = std::strtoull(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        v.integer = u;
        v.is_integer = true;
      }
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] inline void line_fail(std::uint64_t lineno,
                                   const std::string& what) {
  throw std::runtime_error("trace line " + std::to_string(lineno) + ": " +
                           what);
}

inline double get_num(const JsonValue& obj, std::string_view key,
                      std::uint64_t lineno) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
    line_fail(lineno, "missing numeric field \"" + std::string(key) + "\"");
  }
  return v->number;
}

inline std::uint64_t get_u64(const JsonValue& obj, std::string_view key,
                             std::uint64_t lineno) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_integer) {
    line_fail(lineno, "missing integer field \"" + std::string(key) + "\"");
  }
  return v->integer;
}

// Tolerant accessors: an absent field counts as zero (older or trimmed
// traces), but a present field of the wrong kind is still a structural
// error.
inline double get_num_or0(const JsonValue& obj, std::string_view key,
                          std::uint64_t lineno) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return 0.0;
  if (v->kind != JsonValue::Kind::kNumber) {
    line_fail(lineno, "non-numeric field \"" + std::string(key) + "\"");
  }
  return v->number;
}

inline std::uint64_t get_u64_or0(const JsonValue& obj, std::string_view key,
                                 std::uint64_t lineno) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return 0;
  if (!v->is_integer) {
    line_fail(lineno, "non-integer field \"" + std::string(key) + "\"");
  }
  return v->integer;
}

}  // namespace compass::obs::jsonv

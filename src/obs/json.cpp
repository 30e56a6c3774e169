#include "gansec/obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "gansec/error.hpp"

namespace gansec::obs {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) return "null";
  std::string out(buf, ptr);
  // to_chars shortest form may be a bare integer ("3") or exponent form
  // ("1e+300") — both are valid JSON numbers already.
  return out;
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) {
    throw InvalidArgumentError("JsonValue: not a bool");
  }
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) {
    throw InvalidArgumentError("JsonValue: not a number");
  }
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) {
    throw InvalidArgumentError("JsonValue: not a string");
  }
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) {
    throw InvalidArgumentError("JsonValue: not an array");
  }
  return array_;
}

const std::vector<JsonValue::Member>& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) {
    throw InvalidArgumentError("JsonValue: not an object");
  }
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const Member& m : object_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

const JsonValue* JsonValue::find_path(
    std::initializer_list<std::string_view> keys) const {
  const JsonValue* v = this;
  for (const std::string_view key : keys) {
    v = v->find(key);
    if (v == nullptr) return nullptr;
  }
  return v;
}

JsonValue JsonValue::make_null() { return JsonValue{}; }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(std::vector<Member> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

// Recursive-descent RFC 8259 DOM parser; errors throw ParseError with the
// byte offset. json_valid() is this parser with the error caught.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    skip_ws();
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& reason) const {
    throw ParseError("parse_json: " + reason + " at byte " +
                     std::to_string(pos_));
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }

  void literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("bad literal");
    pos_ += word.size();
  }

  JsonValue value() {
    if (++depth_ > 512) fail("nesting too deep");
    if (eof()) fail("unexpected end of input");
    JsonValue v;
    switch (peek()) {
      case '{': v = object(); break;
      case '[': v = array(); break;
      case '"': v = JsonValue::make_string(string()); break;
      case 't': literal("true"); v = JsonValue::make_bool(true); break;
      case 'f': literal("false"); v = JsonValue::make_bool(false); break;
      case 'n': literal("null"); v = JsonValue::make_null(); break;
      default: v = JsonValue::make_number(number()); break;
    }
    --depth_;
    return v;
  }

  JsonValue object() {
    ++pos_;  // '{'
    std::vector<JsonValue::Member> members;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key");
      std::string key = string();
      skip_ws();
      if (eof() || peek() != ':') fail("expected ':'");
      ++pos_;
      skip_ws();
      members.emplace_back(std::move(key), value());
      skip_ws();
      if (!eof() && peek() == ',') { ++pos_; continue; }
      if (!eof() && peek() == '}') {
        ++pos_;
        return JsonValue::make_object(std::move(members));
      }
      fail("expected ',' or '}'");
    }
  }

  JsonValue array() {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      skip_ws();
      items.push_back(value());
      skip_ws();
      if (!eof() && peek() == ',') { ++pos_; continue; }
      if (!eof() && peek() == ']') {
        ++pos_;
        return JsonValue::make_array(std::move(items));
      }
      fail("expected ',' or ']'");
    }
  }

  unsigned hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i, ++pos_) {
      if (eof() || !std::isxdigit(static_cast<unsigned char>(peek()))) {
        fail("bad \\u escape");
      }
      const char c = peek();
      const unsigned digit =
          c <= '9' ? static_cast<unsigned>(c - '0')
                   : static_cast<unsigned>((c | 0x20) - 'a') + 10U;
      code = code * 16 + digit;
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string string() {
    ++pos_;  // '"'
    std::string out;
    while (!eof()) {
      const unsigned char c = static_cast<unsigned char>(peek());
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) fail("raw control character in string");
      if (c == '\\') {
        ++pos_;
        if (eof()) break;
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned code = hex4();
            if (code >= 0xD800 && code <= 0xDBFF && pos_ + 1 < text_.size() &&
                text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
              pos_ += 2;
              const unsigned low = hex4();
              if (low < 0xDC00 || low > 0xDFFF) fail("bad surrogate pair");
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
            append_utf8(out, code);
            break;
          }
          default: fail("bad escape");
        }
        continue;
      }
      out += static_cast<char>(c);
      ++pos_;
    }
    fail("unterminated string");
  }

  double number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      pos_ = start;
      fail("expected value");
    }
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit required after '.'");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit required in exponent");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    double out = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    if (ec == std::errc::result_out_of_range) {
      // RFC 8259 allows magnitudes beyond double range; saturate like
      // strtod would.
      out = text_[start] == '-' ? -HUGE_VAL : HUGE_VAL;
    } else if (ec != std::errc{} || ptr != text_.data() + pos_) {
      fail("malformed number");
    }
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).run(); }

bool json_valid(std::string_view text, std::string* error) {
  try {
    parse_json(text);
  } catch (const ParseError& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  return true;
}

JsonValue parse_json_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw IoError("parse_json_file: cannot open " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return parse_json(buffer.str());
}

}  // namespace gansec::obs

#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/assert.hpp"

namespace bacp::obs {

Json Json::object() {
  Json j;
  j.kind_ = Kind::Object;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::Array;
  return j;
}

Json& Json::set(std::string_view key, Json value) {
  BACP_ASSERT(kind_ == Kind::Object, "Json::set on a non-object");
  for (auto& [name, member] : object_) {
    if (name == key) {
      member = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::string(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [name, member] : object_) {
    if (name == key) return &member;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* member = find(key);
  BACP_ASSERT(member != nullptr, "Json object member missing");
  return *member;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  BACP_ASSERT(kind_ == Kind::Object, "Json::members on a non-object");
  return object_;
}

Json& Json::push_back(Json value) {
  BACP_ASSERT(kind_ == Kind::Array, "Json::push_back on a non-array");
  array_.push_back(std::move(value));
  return *this;
}

const Json& Json::at(std::size_t index) const {
  BACP_ASSERT(kind_ == Kind::Array, "Json::at(index) on a non-array");
  return array_.at(index);
}

std::size_t Json::size() const {
  if (kind_ == Kind::Array) return array_.size();
  if (kind_ == Kind::Object) return object_.size();
  return 0;
}

bool Json::as_bool() const {
  BACP_ASSERT(kind_ == Kind::Bool, "Json value is not a bool");
  return bool_;
}

std::uint64_t Json::as_uint() const {
  if (kind_ == Kind::Int) {
    BACP_ASSERT(int_ >= 0, "Json integer is negative");
    return static_cast<std::uint64_t>(int_);
  }
  BACP_ASSERT(kind_ == Kind::Uint, "Json value is not an unsigned integer");
  return uint_;
}

double Json::as_double() const {
  switch (kind_) {
    case Kind::Int:
      return static_cast<double>(int_);
    case Kind::Uint:
      return static_cast<double>(uint_);
    case Kind::Double:
      return double_;
    default:
      BACP_ASSERT(false, "Json value is not numeric");
      return 0.0;
  }
}

const std::string& Json::as_string() const {
  BACP_ASSERT(kind_ == Kind::String, "Json value is not a string");
  return string_;
}

bool Json::operator==(const Json& other) const {
  if (is_number() && other.is_number()) {
    // Cross-kind numeric equality so parse(dump(x)) == x even when an
    // integral double re-parses as an integer.
    return as_double() == other.as_double();
  }
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::Null:
      return true;
    case Kind::Bool:
      return bool_ == other.bool_;
    case Kind::String:
      return string_ == other.string_;
    case Kind::Array:
      return array_ == other.array_;
    case Kind::Object:
      return object_ == other.object_;
    default:
      return false;  // numeric kinds handled above
  }
}

namespace {

void write_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void write_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";  // JSON has no Inf/NaN; sinks must stay parseable
    return;
  }
  char buf[32];
  // Shortest round-trip representation: deterministic and bit-exact on
  // re-parse, which the byte-identical-output guarantee depends on.
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Json::write(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::Null:
      out += "null";
      break;
    case Kind::Bool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::Int:
      out += std::to_string(int_);
      break;
    case Kind::Uint:
      out += std::to_string(uint_);
      break;
    case Kind::Double:
      write_double(out, double_);
      break;
    case Kind::String:
      write_escaped(out, string_);
      break;
    case Kind::Array: {
      out += '[';
      bool first = true;
      for (const auto& element : array_) {
        if (!first) out += ',';
        first = false;
        newline_indent(out, indent, depth + 1);
        element.write(out, indent, depth + 1);
      }
      if (!array_.empty()) newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Kind::Object: {
      out += '{';
      bool first = true;
      for (const auto& [name, member] : object_) {
        if (!first) out += ',';
        first = false;
        newline_indent(out, indent, depth + 1);
        write_escaped(out, name);
        out += ':';
        if (indent > 0) out += ' ';
        member.write(out, indent, depth + 1);
      }
      if (!object_.empty()) newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error, const JsonLimits& limits)
      : text_(text), error_(error), limits_(limits) {}

  Json run() {
    if (text_.size() > limits_.max_input_bytes) {
      fail("input of " + std::to_string(text_.size()) +
           " bytes exceeds the size limit of " +
           std::to_string(limits_.max_input_bytes));
      return Json();
    }
    Json value = parse_value();
    skip_ws();
    if (!failed_ && pos_ != text_.size()) fail("trailing characters");
    return failed_ ? Json() : value;
  }

  bool failed() const { return failed_; }

 private:
  void fail(const std::string& message) {
    if (!failed_ && error_) {
      *error_ = message + " at offset " + std::to_string(pos_);
    }
    failed_ = true;
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool expect(char c) {
    if (!consume(c)) {
      fail(std::string("expected '") + c + "'");
      return false;
    }
    return true;
  }

  Json parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return Json();
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json(parse_string());
      case 't':
        return parse_literal("true", Json(true));
      case 'f':
        return parse_literal("false", Json(false));
      case 'n':
        return parse_literal("null", Json());
      default:
        return parse_number();
    }
  }

  Json parse_literal(std::string_view literal, Json value) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("invalid literal");
      return Json();
    }
    pos_ += literal.size();
    return value;
  }

  /// Containers recurse through parse_value; the depth limit bounds that
  /// recursion so `[[[[...` fails with a positioned error instead of
  /// overflowing the stack.
  bool enter_container() {
    if (depth_ >= limits_.max_depth) {
      fail("nesting depth exceeds the limit of " + std::to_string(limits_.max_depth));
      return false;
    }
    ++depth_;
    return true;
  }

  Json parse_object() {
    expect('{');
    if (!enter_container()) return Json();
    Json object = Json::object();
    skip_ws();
    if (consume('}')) {
      --depth_;
      return object;
    }
    while (!failed_) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key");
        break;
      }
      std::string key = parse_string();
      skip_ws();
      if (!expect(':')) break;
      object.set(key, parse_value());
      skip_ws();
      if (consume('}')) break;
      if (!expect(',')) break;
    }
    --depth_;
    return object;
  }

  Json parse_array() {
    expect('[');
    if (!enter_container()) return Json();
    Json array = Json::array();
    skip_ws();
    if (consume(']')) {
      --depth_;
      return array;
    }
    while (!failed_) {
      array.push_back(parse_value());
      skip_ws();
      if (consume(']')) break;
      if (!expect(',')) break;
    }
    --depth_;
    return array;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          out += escape;
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return out;
          }
          unsigned code = 0;
          const auto result =
              std::from_chars(text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
          if (result.ec != std::errc() || result.ptr != text_.data() + pos_ + 4) {
            fail("invalid \\u escape");
            return out;
          }
          pos_ += 4;
          // The sinks only emit \u for control characters; decode the
          // basic-multilingual-plane code point as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape");
          return out;
      }
    }
    fail("unterminated string");
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
      ++pos_;
    }
    bool integral = true;
    if (consume('.')) {
      integral = false;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") {
      fail("invalid number");
      return Json();
    }
    if (integral) {
      if (token[0] != '-') {
        std::uint64_t value = 0;
        const auto result =
            std::from_chars(token.data(), token.data() + token.size(), value);
        if (result.ec == std::errc() && result.ptr == token.data() + token.size()) {
          return Json(value);
        }
      } else {
        std::int64_t value = 0;
        const auto result =
            std::from_chars(token.data(), token.data() + token.size(), value);
        if (result.ec == std::errc() && result.ptr == token.data() + token.size()) {
          return Json(value);
        }
      }
      // Out-of-range integer literal: fall through to double.
    }
    double value = 0.0;
    const auto result = std::from_chars(token.data(), token.data() + token.size(), value);
    if (result.ec != std::errc() || result.ptr != token.data() + token.size()) {
      fail("invalid number");
      return Json();
    }
    return Json(value);
  }

  std::string_view text_;
  std::string* error_;
  JsonLimits limits_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  bool failed_ = false;
};

}  // namespace

Json Json::parse(std::string_view text, std::string* error, const JsonLimits& limits) {
  Parser parser(text, error, limits);
  Json value = parser.run();
  return parser.failed() ? Json() : value;
}

}  // namespace bacp::obs

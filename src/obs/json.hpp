#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bacp::obs {

/// Resource limits applied while parsing untrusted JSON text. The defaults
/// are far beyond anything the sinks emit but small enough that a corrupt
/// or adversarial document fails fast with a positioned error instead of
/// exhausting the parser's recursion stack or memory.
struct JsonLimits {
  std::size_t max_depth = 64;                    ///< nesting of arrays/objects
  std::size_t max_input_bytes = 1ull << 30;      ///< 1 GiB of text
};

/// Minimal JSON value model for the observability sinks. Two properties the
/// standard alternatives do not give us for free:
///   - deterministic serialization: object members keep insertion order and
///     doubles are printed with std::to_chars (shortest round-trip form), so
///     identical results serialize to byte-identical text regardless of how
///     many threads produced them;
///   - integer fidelity: 64-bit counters are kept as integers, not doubles.
/// The parser exists so tests (and downstream tooling) can round-trip sink
/// output without external dependencies.
class Json {
 public:
  enum class Kind { Null, Bool, Int, Uint, Double, String, Array, Object };

  Json() = default;  // null
  Json(bool value) : kind_(Kind::Bool), bool_(value) {}
  Json(std::int64_t value) : kind_(Kind::Int), int_(value) {}
  Json(std::uint64_t value) : kind_(Kind::Uint), uint_(value) {}
  Json(int value) : kind_(Kind::Int), int_(value) {}
  Json(double value) : kind_(Kind::Double), double_(value) {}
  Json(std::string value) : kind_(Kind::String), string_(std::move(value)) {}
  Json(const char* value) : kind_(Kind::String), string_(value) {}

  static Json object();
  static Json array();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_number() const {
    return kind_ == Kind::Int || kind_ == Kind::Uint || kind_ == Kind::Double;
  }

  /// Object: sets `key` to `value`, replacing an existing member in place
  /// (insertion order is preserved). Returns *this for chaining.
  Json& set(std::string_view key, Json value);
  /// Object: member lookup; nullptr when absent (or not an object).
  const Json* find(std::string_view key) const;
  /// Object: member access; asserts presence.
  const Json& at(std::string_view key) const;
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Array: appends an element.
  Json& push_back(Json value);
  const Json& at(std::size_t index) const;
  std::size_t size() const;

  bool as_bool() const;
  std::uint64_t as_uint() const;
  double as_double() const;  ///< any numeric kind
  const std::string& as_string() const;

  /// Compact deterministic serialization (no whitespace). `indent` > 0
  /// pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

  /// Strict-ish recursive-descent parser. On failure returns a null value
  /// and, when `error` is non-null, stores a description with the byte
  /// offset of the problem. Inputs exceeding `limits` (nesting depth,
  /// total size) are rejected the same way — never a crash or an
  /// unbounded allocation.
  static Json parse(std::string_view text, std::string* error = nullptr,
                    const JsonLimits& limits = {});

  bool operator==(const Json& other) const;

 private:
  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace bacp::obs

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace bacp::common {

/// Minimal command-line flag parser for the example drivers and tools.
/// Accepts `--key=value`, `--key value` and boolean `--flag` forms;
/// anything not starting with `--` is a positional argument. Unknown flags
/// are an error (collected, reported by error()).
///
/// Typed access is strict: a flag that is present but malformed
/// (`--trials=10k`, `--threads=-1`, an out-of-range literal) is a fatal
/// usage error — the accessor prints the offending flag, its raw value and
/// the usage text to stderr and exits with status 2. It never falls back to
/// a default, because a silently "repaired" knob mislabels every artifact
/// the run produces. Only an *absent* flag yields the fallback.
class ArgParser {
 public:
  /// `spec` declares the accepted flags: name -> help text. A trailing '='
  /// in the name marks a value flag ("trials=" takes a value, "verbose"
  /// does not).
  ArgParser(std::vector<std::pair<std::string, std::string>> spec);

  /// Parses argv. Returns false if unknown flags or malformed input were
  /// seen (error() explains). Remembers argv[0] for usage messages.
  bool parse(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Strict typed accessors: absent flag -> fallback; present-but-malformed
  /// flag -> message naming the flag + usage text on stderr, exit(2).
  std::uint64_t get_u64_or_fail(const std::string& name, std::uint64_t fallback) const;
  double get_double_or_fail(const std::string& name, double fallback) const;
  bool get_bool_or_fail(const std::string& name, bool fallback) const;

  /// Required flag: absent is a fatal usage error.
  std::string require_string(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& error() const { return error_; }

  /// Usage text built from the spec.
  std::string help(const std::string& program) const;

  /// Prints "error: <message>" plus the usage text and exits with status 2.
  /// Public so composed knob readers (harness::read_toggle) report malformed
  /// values through the same fatal-usage path as the typed accessors.
  [[noreturn]] void fatal_usage(const std::string& message) const;

 private:
  struct Flag {
    std::string help_text;
    bool takes_value = false;
  };

  std::map<std::string, Flag> spec_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::string error_;
  std::string program_ = "program";
};

}  // namespace bacp::common

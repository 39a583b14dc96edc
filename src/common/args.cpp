#include "common/args.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/parse.hpp"

namespace bacp::common {

ArgParser::ArgParser(std::vector<std::pair<std::string, std::string>> spec) {
  for (auto& [name, help_text] : spec) {
    Flag flag;
    flag.help_text = std::move(help_text);
    std::string key = name;
    if (!key.empty() && key.back() == '=') {
      key.pop_back();
      flag.takes_value = true;
    }
    spec_.emplace(std::move(key), std::move(flag));
  }
}

bool ArgParser::parse(int argc, const char* const* argv) {
  if (argc > 0 && argv[0] != nullptr && *argv[0] != '\0') program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string key = arg.substr(2);
    std::optional<std::string> inline_value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      inline_value = key.substr(eq + 1);
      key = key.substr(0, eq);
    }
    const auto it = spec_.find(key);
    if (it == spec_.end()) {
      error_ = "unknown flag --" + key;
      return false;
    }
    if (!it->second.takes_value) {
      if (inline_value) {
        error_ = "flag --" + key + " does not take a value";
        return false;
      }
      values_[key] = "1";
      continue;
    }
    if (inline_value) {
      values_[key] = *inline_value;
    } else if (i + 1 < argc) {
      values_[key] = argv[++i];
    } else {
      error_ = "flag --" + key + " needs a value";
      return false;
    }
  }
  return true;
}

bool ArgParser::has(const std::string& name) const { return values_.count(name) != 0; }

std::string ArgParser::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

void ArgParser::fatal_usage(const std::string& message) const {
  std::fprintf(stderr, "error: %s\n\n%s", message.c_str(), help(program_).c_str());
  std::exit(2);
}

namespace {

/// Composes the fatal-usage message for a malformed flag value.
std::string flag_error(const std::string& name, const std::string& raw,
                       const std::string& reason) {
  return "invalid value '" + raw + "' for --" + name + ": " + reason;
}

}  // namespace

std::uint64_t ArgParser::get_u64_or_fail(const std::string& name,
                                         std::uint64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto result = parse_u64(it->second);
  if (!result) fatal_usage(flag_error(name, it->second, result.error));
  return *result;
}

double ArgParser::get_double_or_fail(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto result = parse_double(it->second);
  if (!result) fatal_usage(flag_error(name, it->second, result.error));
  return *result;
}

bool ArgParser::get_bool_or_fail(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto result = parse_bool(it->second);
  if (!result) fatal_usage(flag_error(name, it->second, result.error));
  return *result;
}

std::string ArgParser::require_string(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) fatal_usage("missing required flag --" + name);
  return it->second;
}

std::string ArgParser::help(const std::string& program) const {
  std::ostringstream oss;
  oss << "usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : spec_) {
    oss << "  --" << name << (flag.takes_value ? "=<value>" : "") << "\n      "
        << flag.help_text << '\n';
  }
  return oss.str();
}

}  // namespace bacp::common

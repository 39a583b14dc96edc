#include "harness/config_cli.hpp"

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace bacp::harness {

std::pair<std::string, std::string> value_flag(const Knob& knob) {
  return {std::string(knob.flag) + "=", knob.help};
}

std::uint64_t read_u64(const common::ArgParser& parser, const Knob& knob,
                       std::uint64_t fallback, std::uint64_t max) {
  const std::uint64_t value = parser.get_u64_or_fail(knob.flag, fallback);
  if (value > max) {
    parser.fatal_usage("--" + std::string(knob.flag) + "=" + std::to_string(value) +
                       ": must be at most " + std::to_string(max));
  }
  return value;
}

std::uint64_t read_positive_u64(const common::ArgParser& parser, const Knob& knob,
                                std::uint64_t fallback, std::uint64_t max) {
  const std::uint64_t value = read_u64(parser, knob, fallback, max);
  if (value == 0) {
    parser.fatal_usage("--" + std::string(knob.flag) + "=0: must be at least 1");
  }
  return value;
}

std::string read_snapshot_bank(const common::ArgParser& parser) {
  std::string bank = parser.get(kSnapshotBankKnob.flag, "");
  std::error_code error;
  if (!bank.empty() && !(std::filesystem::is_directory(bank, error) &&
                         ::access(bank.c_str(), W_OK | X_OK) == 0)) {
    parser.fatal_usage("--" + std::string(kSnapshotBankKnob.flag) + "=" + bank +
                       ": not a writable directory");
  }
  return bank;
}

std::size_t read_threads(const common::ArgParser& parser, std::size_t fallback) {
  return static_cast<std::size_t>(read_u64(parser, kThreadsKnob, fallback));
}

bool read_toggle(const common::ArgParser& parser, const Knob& knob, bool fallback) {
  const std::string text = parser.get(knob.flag, fallback ? "auto" : "off");
  if (text == "auto" || text == "on") return true;
  if (text == "off") return false;
  parser.fatal_usage("--" + std::string(knob.flag) + "=" + text +
                     ": expected auto, on, or off");
}

}  // namespace bacp::harness

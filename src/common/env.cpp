#include "common/env.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/parse.hpp"

namespace bacp::common {

namespace {

void warn_malformed(const char* name, const char* raw, const std::string& reason) {
  std::fprintf(stderr, "warning: ignoring malformed environment variable %s='%s': %s\n",
               name, raw, reason.c_str());
}

}  // namespace

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const auto result = parse_u64(raw);
  if (!result) {
    warn_malformed(name, raw, result.error);
    return fallback;
  }
  return *result;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  return (raw == nullptr || *raw == '\0') ? fallback : std::string(raw);
}

}  // namespace bacp::common

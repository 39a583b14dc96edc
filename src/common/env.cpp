#include "common/env.hpp"

#include <cstdlib>

namespace bacp::common {

std::string env_string(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  return (raw == nullptr || *raw == '\0') ? fallback : std::string(raw);
}

}  // namespace bacp::common

#pragma once

#include <cstdint>
#include <string>

namespace bacp::common {

/// Environment-variable overrides for benchmark scale knobs
/// (e.g. BACP_MC_TRIALS, BACP_SIM_ACCESSES). A missing or empty variable
/// falls back to the supplied default, so `for b in build/bench/*; do $b; done`
/// always runs with sane laptop-scale settings. A variable that is *set but
/// malformed* (typo, trailing garbage, negative for an unsigned knob,
/// out-of-range) is never silently repaired: a warning naming the variable,
/// the rejected value and the reason is printed to stderr before the default
/// is used, so a mis-set knob can't invisibly change what an experiment ran.
std::uint64_t env_u64(const char* name, std::uint64_t fallback);
std::string env_string(const char* name, const std::string& fallback);

}  // namespace bacp::common

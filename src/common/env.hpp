#pragma once

#include <string>

namespace bacp::common {

/// The one sanctioned environment read (the bacp-det-wallclock check bans
/// getenv elsewhere in simulation code). A missing or empty variable yields
/// `fallback`. Only variables that are not flag twins go through here:
/// BACP_BENCH_META, the run provenance scripts/run_benches.sh adds to JSON
/// artifacts, and TMPDIR. Every scale knob is a flag.
std::string env_string(const char* name, const std::string& fallback);

}  // namespace bacp::common

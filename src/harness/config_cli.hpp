#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/args.hpp"

namespace bacp::harness {

/// One scale knob: a `--flag=value` backed by an environment variable, read
/// with the standard precedence explicit flag > environment > built-in
/// default. Every config struct's cli_flags()/from_args() pair is assembled
/// from these, so a new binary cannot invent a fourth precedence order or
/// mistype an env name for a knob the rest of the repo already has.
struct EnvFlag {
  const char* flag;  ///< flag name, without "--" or the trailing '='
  const char* env;   ///< backing environment variable; "" = flag-only
  const char* help;  ///< help text; the "(env NAME)" suffix is appended
};

using FlagSpec = std::vector<std::pair<std::string, std::string>>;

/// ArgParser spec row for a value knob: "name=" plus help text with the
/// "(env NAME)" suffix when the knob is environment-backed.
std::pair<std::string, std::string> value_flag(const EnvFlag& knob);

/// Reads a knob with the standard precedence. Malformed input (flag or env)
/// is fatal, exactly as the underlying strict accessors define it, and so is
/// a value above `max` (a usage error, exit 2).
std::uint64_t read_u64(const common::ArgParser& parser, const EnvFlag& knob,
                       std::uint64_t fallback,
                       std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
/// read_u64 for a count that must be at least one: zero, from the flag or
/// the environment, is a fatal usage error (exit 2).
std::uint64_t read_positive_u64(const common::ArgParser& parser, const EnvFlag& knob,
                                std::uint64_t fallback,
                                std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
std::string read_string(const common::ArgParser& parser, const EnvFlag& knob,
                        const std::string& fallback);

/// The repo-wide scale knobs. Binaries that take one of these MUST take it
/// through the shared definition; the names and env vars are part of the
/// artifact-reproduction contract (they are echoed into report meta).
inline constexpr EnvFlag kWarmupKnob{"warmup", "BACP_SIM_WARMUP",
                                     "warm-up instructions per core"};
inline constexpr EnvFlag kInstrKnob{"instr", "BACP_SIM_INSTR",
                                    "measured instructions per core"};
inline constexpr EnvFlag kEpochKnob{"epoch", "BACP_SIM_EPOCH", "epoch length in cycles"};
inline constexpr EnvFlag kSimSeedKnob{"seed", "BACP_SIM_SEED", "simulation seed"};
inline constexpr EnvFlag kTrialsKnob{"trials", "BACP_MC_TRIALS", "Monte-Carlo trial count"};
inline constexpr EnvFlag kMcSeedKnob{"seed", "BACP_MC_SEED", "Monte-Carlo seed"};
inline constexpr EnvFlag kThreadsKnob{"threads", "BACP_THREADS",
                                      "worker threads, 0 = hardware"};
inline constexpr EnvFlag kSnapshotBankKnob{
    "snapshot-bank", "BACP_SNAPSHOT_BANK",
    "existing writable directory for file-backed warm-state snapshots, "
    "empty = no file bank"};
inline constexpr EnvFlag kSampledKnob{
    "sampled", "BACP_MC_SAMPLED",
    "detailed intervals simulated per sampled Monte-Carlo trial, 0 = analytic only"};
inline constexpr EnvFlag kSampledIntervalsKnob{
    "sampled-intervals", "BACP_MC_SAMPLED_INTERVALS",
    "intervals a sampled trial's run is cut into"};
inline constexpr EnvFlag kSampledIntervalInstrKnob{
    "sampled-interval-instr", "BACP_MC_SAMPLED_INTERVAL_INSTR",
    "instructions per core per sampled interval"};
inline constexpr EnvFlag kSampledWarmupKnob{
    "sampled-warmup", "BACP_MC_SAMPLED_WARMUP",
    "detailed warm-up instructions before a sampled trial's first interval"};
inline constexpr EnvFlag kPoolKnob{
    "pool", "BACP_POOL",
    "System pooling for sampled trials: auto|off (speed dial; "
    "results are byte-identical either way)"};
inline constexpr EnvFlag kMmapKnob{
    "mmap", "BACP_MMAP",
    "snapshot-bank read path: auto = mmap zero-copy, off = buffered "
    "(speed dial; results are byte-identical either way)"};

/// The shared `--snapshot-bank` / BACP_SNAPSHOT_BANK knob. Empty disables
/// the file bank; any other value must name an existing directory this
/// process can write, or the read is a fatal usage error (exit 2). A bank
/// that fails later, e.g. on a full disk, still degrades to in-memory
/// reuse inside SnapshotCache.
std::string read_snapshot_bank(const common::ArgParser& parser);

/// The shared `--threads` / BACP_THREADS knob. Every sweep in the repo is
/// deterministic for any worker count, so this is purely a speed dial.
std::size_t read_threads(const common::ArgParser& parser, std::size_t fallback = 0);

/// Reads an auto/off speed-dial knob (kPoolKnob, kMmapKnob): "auto" or "on"
/// enables, "off" disables, anything else is a fatal usage error. These
/// knobs never change results — the artifact matrix in CI proves it — so
/// their values are not echoed into report meta.
bool read_toggle(const common::ArgParser& parser, const EnvFlag& knob, bool fallback);

}  // namespace bacp::harness

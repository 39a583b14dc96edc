#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/args.hpp"

namespace bacp::harness {

/// One scale knob: a `--flag=value` and its help text. Every config
/// struct's cli_flags()/from_args() pair is assembled from these, so a new
/// binary cannot spell a knob the rest of the repo already has another way.
/// The flag, or its built-in default when absent, is the only source of a
/// knob's value.
struct Knob {
  const char* flag;  ///< flag name, without "--" or the trailing '='
  const char* help;
};

using FlagSpec = std::vector<std::pair<std::string, std::string>>;

/// ArgParser spec row for a value knob: "name=" plus its help text.
std::pair<std::string, std::string> value_flag(const Knob& knob);

/// Reads a knob's flag, or `fallback` when the flag is absent. A malformed
/// value is fatal, exactly as the underlying strict accessors define it,
/// and so is a value above `max` (a usage error, exit 2).
std::uint64_t read_u64(const common::ArgParser& parser, const Knob& knob,
                       std::uint64_t fallback,
                       std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
/// read_u64 for a count that must be at least one: zero is a fatal usage
/// error (exit 2).
std::uint64_t read_positive_u64(const common::ArgParser& parser, const Knob& knob,
                                std::uint64_t fallback,
                                std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// The repo-wide scale knobs. Binaries that take one of these MUST take it
/// through the shared definition; the flag names are part of the
/// artifact-reproduction contract.
inline constexpr Knob kWarmupKnob{"warmup", "warm-up instructions per core"};
inline constexpr Knob kInstrKnob{"instr", "measured instructions per core"};
inline constexpr Knob kEpochKnob{"epoch", "epoch length in cycles"};
inline constexpr Knob kSimSeedKnob{"seed", "simulation seed"};
inline constexpr Knob kTrialsKnob{"trials", "Monte-Carlo trial count"};
inline constexpr Knob kMcSeedKnob{"seed", "Monte-Carlo seed"};
inline constexpr Knob kThreadsKnob{"threads", "worker threads, 0 = hardware"};
inline constexpr Knob kSnapshotBankKnob{
    "snapshot-bank",
    "existing writable directory for file-backed warm-state snapshots, "
    "empty = no file bank"};
inline constexpr Knob kSampledKnob{
    "sampled",
    "detailed intervals simulated per sampled Monte-Carlo trial, 0 = analytic only"};
inline constexpr Knob kSampledIntervalsKnob{"sampled-intervals",
                                            "intervals a sampled trial's run is cut into"};
inline constexpr Knob kSampledIntervalInstrKnob{
    "sampled-interval-instr", "instructions per core per sampled interval"};
inline constexpr Knob kSampledWarmupKnob{
    "sampled-warmup",
    "detailed warm-up instructions before a sampled trial's first interval"};
inline constexpr Knob kMmapKnob{
    "mmap",
    "snapshot-bank read path: auto = mmap zero-copy, off = buffered "
    "(speed dial; results are byte-identical either way)"};

/// The shared `--snapshot-bank` knob. Empty disables
/// the file bank; any other value must name an existing directory this
/// process can write, or the read is a fatal usage error (exit 2). A bank
/// that fails later, e.g. on a full disk, still degrades to in-memory
/// reuse inside SnapshotCache.
std::string read_snapshot_bank(const common::ArgParser& parser);

/// The shared `--threads` knob. Every sweep in the repo is
/// deterministic for any worker count, so this is purely a speed dial.
std::size_t read_threads(const common::ArgParser& parser, std::size_t fallback = 0);

/// Reads an auto/off speed-dial knob (kMmapKnob): "auto" or "on" enables,
/// "off" disables, anything else is a fatal usage error. The knob never
/// changes results — CI's artifact comparison proves it — so its value is
/// not echoed into report meta.
bool read_toggle(const common::ArgParser& parser, const Knob& knob, bool fallback);

}  // namespace bacp::harness

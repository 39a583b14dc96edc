#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "sim/system.hpp"
#include "trace/mix.hpp"

namespace bacp::harness {

/// Concurrent warm-state cache: snapshots keyed by a warm-state fingerprint
/// (config digest + warm-up length), computed at most once. The first
/// caller of a key runs the warm-up outside the lock while later callers of
/// the same key block on a shared future, so callers that share a
/// fingerprint (e.g. sched::Service lanes over one substrate) pay for
/// exactly one warm-up no matter how many ThreadPool workers race for it.
class SnapshotCache {
 public:
  using SnapshotPtr = std::shared_ptr<const snapshot::SystemSnapshot>;
  using WarmFn = std::function<snapshot::SystemSnapshot()>;

  /// Returns the snapshot stored under `key`, invoking `warm` to produce it
  /// if this is the key's first caller. `warm` runs outside the cache lock;
  /// concurrent callers for the same key wait for its result instead of
  /// warming redundantly.
  SnapshotPtr get_or_warm(std::uint64_t key, const WarmFn& warm);

  /// File-backed mode: snapshots persist in `directory` as `<16-hex-key>.snap`
  /// (the raw snapshot buffer, mmap-ably flat). A first caller whose key is
  /// on disk loads and audit-validates the file instead of warming; a failed
  /// validation discards the file's bytes and rewarms (the bank is a pure
  /// cache — a corrupt entry can cost time, never correctness). Freshly
  /// warmed snapshots are published via temp file + atomic rename, so
  /// concurrent processes sharing one bank never read a torn file. A store
  /// that fails (missing directory, full disk) keeps the entry in memory
  /// only. Empty string disables (the default, in-memory only).
  void set_file_bank(std::string directory) BACP_EXCLUDES(mutex_);
  std::string file_bank() const BACP_EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    return bank_directory_;
  }

  /// Bank read path: mmap zero-copy (default) or buffered ifstream reads.
  /// Pure speed dial — a loaded snapshot passes the same structural audit
  /// (including per-section checksums computed from the mapped region) and
  /// restores byte-identically either way; --mmap=off exists so the CI
  /// artifact matrix can prove it.
  void set_mmap_reads(bool enabled) BACP_EXCLUDES(mutex_);

  std::uint64_t hits() const BACP_EXCLUDES(mutex_);
  std::uint64_t misses() const BACP_EXCLUDES(mutex_);
  std::uint64_t file_hits() const BACP_EXCLUDES(mutex_);

 private:
  // The disk-bank helpers take the bank directory as a parameter: the warm
  // path runs outside the lock by design, so it works on a copy of
  // bank_directory_ taken under the lock rather than re-reading the member.
  static std::string bank_path(const std::string& directory, std::uint64_t key);
  /// Disk probe for `key`: loaded-and-validated snapshot or nullptr. With
  /// `mmap_reads` the snapshot adopts the mapped file zero-copy (the map is
  /// validated fail-closed before it is returned); otherwise the bytes are
  /// read into an owned buffer.
  static SnapshotPtr try_load(const std::string& directory, std::uint64_t key,
                              bool mmap_reads);
  static void store(const std::string& directory, std::uint64_t key,
                    const snapshot::SystemSnapshot& snapshot);

  mutable common::Mutex mutex_;
  std::map<std::uint64_t, std::shared_future<SnapshotPtr>> entries_
      BACP_GUARDED_BY(mutex_);
  std::string bank_directory_ BACP_GUARDED_BY(mutex_);
  bool mmap_reads_ BACP_GUARDED_BY(mutex_) = true;
  std::uint64_t hits_ BACP_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ BACP_GUARDED_BY(mutex_) = 0;
  std::uint64_t file_hits_ BACP_GUARDED_BY(mutex_) = 0;
};

/// Cache key for a warm-up: warm state is a pure function of the config
/// digest (sim::config_digest) and the number of warm-up instructions, so
/// the key folds both together.
std::uint64_t warmup_key(std::uint64_t state_digest, std::uint64_t warmup_instructions);

/// Brings `system` to its warm starting point. With `cache == nullptr` this
/// is a plain warm-up in place. With a cache, the first caller of an exact
/// warm-state fingerprint (sim::config_digest + warm-up length) warms its
/// own system in place and publishes the snapshot; every caller, that one
/// included, then restores from the snapshot — artifacts are byte-for-byte
/// the same as warming in place.
void warm_system(sim::System& system, const trace::WorkloadMix& mix,
                 std::uint64_t warmup_instructions, SnapshotCache* cache);

}  // namespace bacp::harness

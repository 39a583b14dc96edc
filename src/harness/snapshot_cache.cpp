#include "harness/snapshot_cache.hpp"

#include <unistd.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <span>
#include <utility>

#include "audit/snapshot_audit.hpp"
#include "common/fnv1a.hpp"
#include "common/fsio.hpp"
#include "obs/phase_timer.hpp"
#include "sim/system_config.hpp"

namespace bacp::harness {

SnapshotCache::SnapshotPtr SnapshotCache::get_or_warm(std::uint64_t key,
                                                      const WarmFn& warm) {
  std::shared_future<SnapshotPtr> future;
  std::shared_ptr<std::promise<SnapshotPtr>> owned;
  std::string bank;
  bool mmap_reads = true;
  {
    const common::MutexLock lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      future = it->second;
    } else {
      ++misses_;
      owned = std::make_shared<std::promise<SnapshotPtr>>();
      future = owned->get_future().share();
      entries_.emplace(key, future);
      bank = bank_directory_;  // copied under the lock for the unlocked warm
      mmap_reads = mmap_reads_;
    }
  }
  if (owned) {
    // Warm outside the lock: other keys proceed concurrently, and waiters
    // on this key block on the future, not the mutex.
    try {
      if (SnapshotPtr banked = try_load(bank, key, mmap_reads)) {
        {
          const common::MutexLock lock(mutex_);
          ++file_hits_;
        }
        owned->set_value(std::move(banked));
      } else {
        auto snapshot = std::make_shared<const snapshot::SystemSnapshot>(warm());
        if (!bank.empty()) store(bank, key, *snapshot);
        owned->set_value(std::move(snapshot));
      }
    } catch (...) {
      owned->set_exception(std::current_exception());
    }
  }
  return future.get();
}

void SnapshotCache::set_file_bank(std::string directory) {
  const common::MutexLock lock(mutex_);
  bank_directory_ = std::move(directory);
}

void SnapshotCache::set_mmap_reads(bool enabled) {
  const common::MutexLock lock(mutex_);
  mmap_reads_ = enabled;
}

std::string SnapshotCache::bank_path(const std::string& directory,
                                     std::uint64_t key) {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.snap",
                static_cast<unsigned long long>(key));
  return directory + "/" + name;
}

SnapshotCache::SnapshotPtr SnapshotCache::try_load(const std::string& directory,
                                                   std::uint64_t key,
                                                   bool mmap_reads) {
  if (directory.empty()) return nullptr;
  const auto timer = obs::global_phase_timers().scope("bank.load");
  const std::string path = bank_path(directory, key);
  auto snapshot = std::make_shared<snapshot::SystemSnapshot>();
  if (mmap_reads) {
    // Zero-copy: adopt the mapped file as the snapshot's backing. Restores
    // then read sections straight out of the page cache; the multi-megabyte
    // buffer is never duplicated on the heap. The map pins the published
    // inode, so a concurrent re-publish (atomic rename) cannot tear it.
    auto mapping = std::make_shared<common::MappedFile>(common::MappedFile::open(path));
    if (!mapping->valid()) return nullptr;
    snapshot->mapped = mapping->bytes();
    snapshot->backing = std::move(mapping);
  } else {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in.is_open()) return nullptr;
    const std::streamsize size = in.tellg();
    if (size <= 0) return nullptr;
    snapshot->bytes.resize(static_cast<std::size_t>(size));
    in.seekg(0);
    if (!in.read(reinterpret_cast<char*>(snapshot->bytes.data()), size)) return nullptr;
  }
  // The bank is advisory: a snapshot that fails the structural audit
  // (truncation, bit rot, a stale format) is simply ignored and the warm-up
  // runs — wrong bytes must never leak into a simulation. audit_snapshot
  // reads through data(), so on the mmap path every section checksum is
  // computed from the mapped region itself and a truncated map fails
  // closed here, before any restore can touch it.
  if (!audit::audit_snapshot(*snapshot).ok()) return nullptr;
  return snapshot;
}

void SnapshotCache::store(const std::string& directory, std::uint64_t key,
                          const snapshot::SystemSnapshot& snapshot) {
  const std::string path = bank_path(directory, key);
  // Stage in TMPDIR when set (typically the fastest scratch filesystem),
  // with a process-unique name so concurrent processes sharing one bank
  // never collide on the staging file. TMPDIR may be a different
  // filesystem than the bank — publish_file_atomic absorbs the EXDEV
  // rename by falling back to copy+fsync+rename inside the bank directory.
  char name[48];
  std::snprintf(name, sizeof(name), "/%016llx.stage.%lld",
                static_cast<unsigned long long>(key),
                static_cast<long long>(::getpid()));
  const std::string temp = common::staging_directory(directory) + name;
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return;  // unwritable staging: cache miss, not an error
    const std::span<const std::uint8_t> bytes = snapshot.data();
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      std::remove(temp.c_str());
      return;
    }
  }
  // Atomic publish: concurrent readers see the old bank or the whole file.
  // Failure (unwritable bank, full disk) degrades to an in-memory-only
  // entry; publish_file_atomic has already removed the staging file.
  common::publish_file_atomic(temp, path);
}

std::uint64_t SnapshotCache::hits() const {
  const common::MutexLock lock(mutex_);
  return hits_;
}

std::uint64_t SnapshotCache::misses() const {
  const common::MutexLock lock(mutex_);
  return misses_;
}

std::uint64_t SnapshotCache::file_hits() const {
  const common::MutexLock lock(mutex_);
  return file_hits_;
}

std::uint64_t warmup_key(std::uint64_t state_digest, std::uint64_t warmup_instructions) {
  // The digest's own hash family folds in the warm-up length.
  return common::fnv1a_fold(state_digest, warmup_instructions);
}

void warm_system(sim::System& system, const trace::WorkloadMix& mix,
                 std::uint64_t warmup_instructions, SnapshotCache* cache) {
  const auto warm_in_place = [&] {
    const auto timer = obs::global_phase_timers().scope("warmup");
    system.warm_up(warmup_instructions);
  };
  if (cache == nullptr) {
    warm_in_place();
    return;
  }
  const std::uint64_t key =
      warmup_key(sim::config_digest(system.config(), mix), warmup_instructions);
  const auto snapshot = cache->get_or_warm(key, [&] {
    warm_in_place();
    return system.save_state();
  });
  // Restore unconditionally: on a hit this forks the cached state; on a
  // miss it re-applies the bytes this system just produced, so hits and
  // misses leave the system in the identical state.
  system.restore_state(*snapshot);
}

}  // namespace bacp::harness

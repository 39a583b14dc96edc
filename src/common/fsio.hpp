#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

namespace bacp::common {

/// Read-only memory-mapped file: the zero-copy read path for snapshot
/// banks. open() maps the whole file MAP_PRIVATE; bytes() spans exactly the
/// file's length at map time (a concurrently republished bank entry is
/// invisible — the map pins the old inode's pages, which is precisely the
/// torn-read immunity the banks' atomic-rename publish contract promises).
/// Move-only; the mapping is released on destruction, so any span handed
/// out must not outlive the MappedFile (holders share ownership via
/// shared_ptr<MappedFile> — see snapshot::SystemSnapshot's backing).
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  MappedFile& operator=(MappedFile&& other) noexcept {
    if (this != &other) {
      reset();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~MappedFile() { reset(); }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only. Returns an invalid (empty) MappedFile on any
  /// failure — missing file, empty file, fstat/mmap error — never a partial
  /// map: callers branch on valid() and fall back to buffered reads or a
  /// cache miss.
  static MappedFile open(const std::string& path);

  bool valid() const { return data_ != nullptr; }
  std::span<const std::uint8_t> bytes() const { return {data_, size_}; }

 private:
  void reset();

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Atomically publishes `temp_path` at `final_path`: a reader concurrently
/// opening `final_path` sees either the previous file or the complete new
/// one, never a torn write. The fast path is rename(2). When the two paths
/// live on different filesystems (EXDEV — e.g. the temp was staged in a
/// tmpfs TMPDIR while the destination is a disk-backed snapshot bank), the
/// bytes are copied into a process-unique sibling temp *in the destination
/// directory*, fsync'd, and renamed from there, so the final hop is always
/// same-filesystem and stays atomic.
///
/// On success the temp file is gone (renamed or copied-then-removed). On
/// failure the temp file is removed and false is returned; the caller
/// decides whether that is fatal or, as for snapshot banks, a tolerable
/// cache miss.
bool publish_file_atomic(const std::string& temp_path, const std::string& final_path);

/// The EXDEV fallback half of publish_file_atomic, exposed so tests can
/// exercise the copy path directly on hosts where every mount is one
/// filesystem: copies `temp_path` into a sibling temp of `final_path`,
/// fsyncs, renames, and removes `temp_path`. Returns false (cleaning up
/// both temps) on any failure.
bool publish_file_by_copy(const std::string& temp_path, const std::string& final_path);

/// Staging directory for temp files that will be published into
/// `destination_directory`: honors TMPDIR when set and non-empty (the
/// conventional fast scratch filesystem), otherwise stages next to the
/// destination. publish_file_atomic() absorbs the cross-filesystem rename
/// this can produce.
std::string staging_directory(const std::string& destination_directory);

}  // namespace bacp::common

#include "common/fsio.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace bacp::common {

MappedFile MappedFile::open(const std::string& path) {
  MappedFile file;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return file;
  struct stat info;
  if (::fstat(fd, &info) != 0 || info.st_size <= 0) {
    ::close(fd);
    return file;
  }
  const std::size_t size = static_cast<std::size_t>(info.st_size);
  // MAP_PRIVATE: the simulator never writes through the map, and a private
  // mapping keeps a concurrent truncate of the bank entry from faulting us
  // on pages we already touched (the length is pinned at map time either
  // way; SIGBUS is only reachable by an in-place shrink, which the banks'
  // rename-only publish protocol never performs).
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference to the inode
  if (mapped == MAP_FAILED) return file;
  file.data_ = static_cast<const std::uint8_t*>(mapped);
  file.size_ = size;
  return file;
}

void MappedFile::reset() {
  if (data_ != nullptr) {
    // const_cast: munmap's signature predates const; the pages themselves
    // were never written through this mapping.
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
}

namespace {

/// Raw byte copy through POSIX descriptors, fsync'd before close so the
/// subsequent rename can never publish a file whose data is still only in
/// the page cache (the crash-consistency half of "copy+fsync+rename").
bool copy_bytes_synced(const std::string& from, const std::string& to) {
  const int in = ::open(from.c_str(), O_RDONLY | O_CLOEXEC);
  if (in < 0) return false;
  const int out =
      ::open(to.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out < 0) {
    ::close(in);
    return false;
  }
  bool ok = true;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t got = ::read(in, buffer, sizeof(buffer));
    if (got == 0) break;
    if (got < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    ssize_t written = 0;
    while (written < got) {
      const ssize_t put = ::write(out, buffer + written, static_cast<std::size_t>(got - written));
      if (put < 0) {
        if (errno == EINTR) continue;
        ok = false;
        break;
      }
      written += put;
    }
    if (!ok) break;
  }
  if (ok && ::fsync(out) != 0) ok = false;
  ::close(in);
  if (::close(out) != 0) ok = false;
  if (!ok) std::remove(to.c_str());
  return ok;
}

/// Process-unique sibling temp name next to `final_path`, so concurrent
/// processes publishing into one bank never clobber each other's staging
/// files.
std::string sibling_temp(const std::string& final_path) {
  return final_path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
}

}  // namespace

bool publish_file_by_copy(const std::string& temp_path, const std::string& final_path) {
  const std::string sibling = sibling_temp(final_path);
  if (!copy_bytes_synced(temp_path, sibling)) {
    std::remove(temp_path.c_str());
    return false;
  }
  if (std::rename(sibling.c_str(), final_path.c_str()) != 0) {
    std::remove(sibling.c_str());
    std::remove(temp_path.c_str());
    return false;
  }
  std::remove(temp_path.c_str());
  return true;
}

bool publish_file_atomic(const std::string& temp_path, const std::string& final_path) {
  if (std::rename(temp_path.c_str(), final_path.c_str()) == 0) return true;
  if (errno == EXDEV) return publish_file_by_copy(temp_path, final_path);
  std::remove(temp_path.c_str());
  return false;
}

std::string staging_directory(const std::string& destination_directory) {
  const char* tmpdir = std::getenv("TMPDIR");
  if (tmpdir != nullptr && tmpdir[0] != '\0') return tmpdir;
  return destination_directory;
}

}  // namespace bacp::common

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"

namespace bacp::snapshot {

/// Scalar types the codec moves in bulk. Restricting to fixed-width
/// arithmetic scalars (never structs) keeps padding bytes out of the
/// byte stream, so two snapshots of identical state are identical byte
/// sequences — the property the canonical-bytes tests and the per-section
/// checksums rest on.
template <typename T>
concept CodecScalar = std::is_arithmetic_v<T> && std::has_unique_object_representations_v<T>;

/// Append-only byte sink for one snapshot section. Scalars are written in
/// host byte order (snapshots are an in-process warm-state transport, not
/// an interchange format); doubles travel as their raw 64-bit patterns so
/// restore is bit-exact.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u8(std::uint8_t value) { raw(&value, sizeof(value)); }
  void u16(std::uint16_t value) { raw(&value, sizeof(value)); }
  void u32(std::uint32_t value) { raw(&value, sizeof(value)); }
  void u64(std::uint64_t value) { raw(&value, sizeof(value)); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

  /// Length-prefixed scalar array (the length doubles as a shape check on
  /// restore).
  template <CodecScalar T>
  void scalars(std::span<const T> values) {
    u64(values.size());
    raw_scalars(values);
  }

  /// Unprefixed scalar array, for runs whose lengths the payload already
  /// carries (e.g. per-set windows sized by an earlier size table).
  template <CodecScalar T>
  void raw_scalars(std::span<const T> values) {
    raw(values.data(), values.size() * sizeof(T));
  }

  /// Length-prefixed UTF-8 string.
  void str(std::string_view value) {
    u64(value.size());
    raw(value.data(), value.size());
  }

 private:
  void raw(const void* data, std::size_t bytes) {
    // resize + memcpy, not insert(): GCC 12's -Wstringop-overflow misfires
    // on byte-vector range inserts from raw pointers at -O3.
    if (bytes == 0) return;  // empty spans may carry a null data pointer
    const std::size_t offset = out_->size();
    out_->resize(offset + bytes);
    std::memcpy(out_->data() + offset, data, bytes);
  }

  std::vector<std::uint8_t>* out_;
};

/// Bounds-checked cursor over one snapshot section. Underrun or a shape
/// mismatch aborts via BACP_ASSERT: restore_state() is only handed buffers
/// that audit_snapshot() (the graceful validator) or the producing
/// save_state() vouch for, so a malformed read here is a program bug, not
/// an input error.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// Reads a scalar array written by Writer::scalars into `values`,
  /// asserting the stored length matches `values.size()` (component
  /// geometry fixes every array shape, so a mismatch means the snapshot
  /// belongs to a different configuration).
  template <CodecScalar T>
  void scalars_into(std::span<T> values) {
    const std::uint64_t count = u64();
    BACP_ASSERT(count == values.size(), "snapshot array length mismatch");
    raw_scalars_into(values);
  }

  /// Reads `values.size()` scalars written by Writer::raw_scalars; the
  /// caller knows the length from earlier payload fields.
  template <CodecScalar T>
  void raw_scalars_into(std::span<T> values) {
    raw(values.data(), values.size() * sizeof(T));
  }

  /// Reads a scalar array of stored length (for arrays whose size is data,
  /// e.g. the allocation history).
  template <CodecScalar T>
  std::vector<T> scalars() {
    const std::uint64_t count = u64();
    BACP_ASSERT(count <= remaining() / sizeof(T), "snapshot array overruns section");
    std::vector<T> values(static_cast<std::size_t>(count));
    raw(values.data(), values.size() * sizeof(T));
    return values;
  }

  std::string str() {
    const std::uint64_t count = u64();
    BACP_ASSERT(count <= remaining(), "snapshot string overruns section");
    std::string value(static_cast<std::size_t>(count), '\0');
    raw(value.data(), value.size());
    return value;
  }

  std::size_t remaining() const { return bytes_.size() - cursor_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  template <typename T>
  T take() {
    T value;
    raw(&value, sizeof(T));
    return value;
  }

  void raw(void* data, std::size_t bytes) {
    BACP_ASSERT(bytes <= remaining(), "snapshot section underrun");
    std::memcpy(data, bytes_.data() + cursor_, bytes);
    cursor_ += bytes;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace bacp::snapshot

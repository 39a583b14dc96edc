#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace bacp::audit {
class ComponentAuditor;
}  // namespace bacp::audit

namespace bacp::obs {

/// Column-oriented per-epoch recorder. sim::System pushes one row per
/// epoch boundary (allocations per core, promotion/demotion deltas, NoC
/// queue cycles, DRAM traffic, per-core CPI); every named series therefore
/// has exactly `num_epochs()` samples. A series first recorded at a later
/// epoch is back-filled with zeros so columns stay rectangular.
///
/// Recorders intern their series names once and record by handle —
/// record(handle, v) is an index into a column vector, with no string
/// building or map lookup per epoch. Interned-but-never-recorded series do
/// not exist as far as the outputs are concerned: names() and to_json()
/// skip empty columns, so interning ahead of time never changes the
/// emitted artifacts.
class TimeSeries {
 public:
  /// Stable index of an interned series; clear_rows() keeps it valid.
  using SeriesHandle = std::size_t;

  /// Opens the next row. All record() calls until the next begin_epoch()
  /// land in this row; at most one sample per series per row.
  void begin_epoch();

  /// Returns the handle for `series`, creating an (empty, unreported)
  /// column on first sight. Idempotent per name.
  SeriesHandle intern(std::string_view series);

  void record(SeriesHandle series, double value);

  std::size_t num_epochs() const { return epochs_; }
  bool has_series(std::string_view name) const;
  /// Samples of one series, one per epoch. Asserts the series exists and
  /// has been recorded at least once.
  std::span<const double> series(std::string_view name) const;
  /// Name-sorted list of recorded series.
  std::vector<std::string> names() const;

  /// Drops every row but keeps the interned series, so handles stay valid
  /// and columns keep their storage. Emptied columns are unreported again,
  /// so the outputs equal those of a fresh recorder.
  void clear_rows();

  /// {"epochs": N, "series": {name: [v0, v1, ...]}} with sorted names.
  Json to_json() const;

 private:
  friend class audit::ComponentAuditor;
  friend struct SeriesTestPeer;  ///< mutation hooks for the audit kill-tests

  // Sorted name -> column index; columns_ holds the samples. The map is
  // touched only on intern and reporting, never on the record fast path.
  std::map<std::string, SeriesHandle, std::less<>> index_;
  std::vector<std::vector<double>> columns_;
  std::size_t epochs_ = 0;
};

}  // namespace bacp::obs

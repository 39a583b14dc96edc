#include "obs/timeseries.hpp"

#include "common/assert.hpp"

namespace bacp::obs {

void TimeSeries::begin_epoch() { ++epochs_; }

TimeSeries::SeriesHandle TimeSeries::intern(std::string_view series) {
  const auto it = index_.find(series);
  if (it != index_.end()) return it->second;
  const SeriesHandle handle = columns_.size();
  columns_.emplace_back();
  index_.emplace(std::string(series), handle);
  return handle;
}

void TimeSeries::record(SeriesHandle series, double value) {
  BACP_ASSERT(epochs_ > 0, "TimeSeries::record before begin_epoch");
  BACP_ASSERT(series < columns_.size(), "record with a foreign series handle");
  auto& samples = columns_[series];
  BACP_ASSERT(samples.size() < epochs_, "series recorded twice in one epoch");
  samples.resize(epochs_ - 1, 0.0);  // back-fill epochs before first record
  samples.push_back(value);
}

bool TimeSeries::has_series(std::string_view name) const {
  const auto it = index_.find(name);
  return it != index_.end() && !columns_[it->second].empty();
}

std::span<const double> TimeSeries::series(std::string_view name) const {
  const auto it = index_.find(name);
  BACP_ASSERT(it != index_.end() && !columns_[it->second].empty(),
              "unknown time series");
  return columns_[it->second];
}

std::vector<std::string> TimeSeries::names() const {
  std::vector<std::string> out;
  out.reserve(index_.size());
  for (const auto& [name, handle] : index_) {
    if (!columns_[handle].empty()) out.push_back(name);
  }
  return out;
}

void TimeSeries::clear_rows() {
  for (auto& samples : columns_) samples.clear();
  epochs_ = 0;
}

Json TimeSeries::to_json() const {
  Json series = Json::object();
  for (const auto& [name, handle] : index_) {
    const auto& samples = columns_[handle];
    if (samples.empty()) continue;
    Json values = Json::array();
    for (std::size_t epoch = 0; epoch < epochs_; ++epoch) {
      values.push_back(epoch < samples.size() ? samples[epoch] : 0.0);
    }
    series.set(name, std::move(values));
  }
  return Json::object()
      .set("epochs", static_cast<std::uint64_t>(epochs_))
      .set("series", std::move(series));
}

}  // namespace bacp::obs

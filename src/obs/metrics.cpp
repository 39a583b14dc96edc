#include "obs/metrics.hpp"

#include "common/types.hpp"

namespace bacp::obs {

void Distribution::observe(double value) {
  stats_.add(value);
  std::size_t bin = 0;
  if (value >= 1.0) {
    bin = log2_floor(static_cast<std::uint64_t>(value));
    if (bin >= kNumBins) bin = kNumBins - 1;
  }
  histogram_.increment(bin);
}

Json Distribution::to_json() const {
  Json bins = Json::array();
  for (std::size_t bin = 0; bin < histogram_.num_bins(); ++bin) {
    if (histogram_.bin(bin) == 0) continue;
    bins.push_back(Json::object()
                       .set("log2", static_cast<std::uint64_t>(bin))
                       .set("count", histogram_.bin(bin)));
  }
  return Json::object()
      .set("count", stats_.count())
      .set("mean", stats_.mean())
      .set("stddev", stats_.stddev())
      .set("min", stats_.min())
      .set("max", stats_.max())
      .set("bins", std::move(bins));
}

}  // namespace bacp::obs

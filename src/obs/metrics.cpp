#include "obs/metrics.hpp"

#include "common/assert.hpp"
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

void Registry::assert_unclaimed(std::string_view name, const void* owner) const {
  const auto counter = counters_.find(name);
  const auto gauge = gauges_.find(name);
  const auto distribution = distributions_.find(name);
  const void* holder = counter != counters_.end()   ? static_cast<const void*>(&counter->second)
                       : gauge != gauges_.end()     ? static_cast<const void*>(&gauge->second)
                       : distribution != distributions_.end()
                           ? static_cast<const void*>(&distribution->second)
                           : nullptr;
  BACP_ASSERT(holder == nullptr || holder == owner,
              "metric name registered under a different kind");
}

Counter& Registry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    assert_unclaimed(name, nullptr);
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    assert_unclaimed(name, nullptr);
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  return it->second;
}

Distribution& Registry::distribution(std::string_view name) {
  auto it = distributions_.find(name);
  if (it == distributions_.end()) {
    assert_unclaimed(name, nullptr);
    it = distributions_.emplace(std::string(name), Distribution{}).first;
  }
  return it->second;
}

const Counter* Registry::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Registry::find_gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

std::uint64_t Registry::counter_value(std::string_view name, std::uint64_t fallback) const {
  const Counter* counter = find_counter(name);
  return counter == nullptr ? fallback : counter->value();
}

double Registry::gauge_value(std::string_view name, double fallback) const {
  const Gauge* gauge = find_gauge(name);
  return gauge == nullptr ? fallback : gauge->value();
}

Json Registry::to_json() const {
  Json counters = Json::object();
  for (const auto& [name, counter] : counters_) counters.set(name, counter.value());

  Json gauges = Json::object();
  for (const auto& [name, gauge] : gauges_) gauges.set(name, gauge.value());

  Json distributions = Json::object();
  for (const auto& [name, distribution] : distributions_) {
    Json bins = Json::array();
    const auto& histogram = distribution.histogram();
    for (std::size_t bin = 0; bin < histogram.num_bins(); ++bin) {
      if (histogram.bin(bin) == 0) continue;
      bins.push_back(Json::object()
                         .set("log2", static_cast<std::uint64_t>(bin))
                         .set("count", histogram.bin(bin)));
    }
    distributions.set(name, Json::object()
                                .set("count", distribution.count())
                                .set("mean", distribution.mean())
                                .set("stddev", distribution.stddev())
                                .set("min", distribution.min())
                                .set("max", distribution.max())
                                .set("bins", std::move(bins)));
  }

  return Json::object()
      .set("counters", std::move(counters))
      .set("gauges", std::move(gauges))
      .set("distributions", std::move(distributions));
}

}  // namespace bacp::obs

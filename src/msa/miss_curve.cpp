#include "msa/miss_curve.hpp"

#include "common/assert.hpp"

namespace bacp::msa {

MissRatioCurve::MissRatioCurve(std::vector<double> hits_by_depth, double deep_misses) {
  BACP_ASSERT(deep_misses >= 0.0, "negative miss count");
  prefix_hits_ = std::move(hits_by_depth);
  double running = 0.0;
  for (auto& h : prefix_hits_) {
    BACP_ASSERT(h >= 0.0, "negative hit count");
    running += h;
    h = running;
  }
  total_ = running + deep_misses;
}

MissRatioCurve MissRatioCurve::from_histogram(const common::Histogram& histogram) {
  BACP_ASSERT(histogram.num_bins() >= 2, "histogram needs >= 1 depth bin + miss bin");
  std::vector<double> hits(histogram.num_bins() - 1);
  for (std::size_t i = 0; i + 1 < histogram.num_bins(); ++i) {
    hits[i] = static_cast<double>(histogram.bin(i));
  }
  const auto deep = static_cast<double>(histogram.bin(histogram.num_bins() - 1));
  return MissRatioCurve(std::move(hits), deep);
}

MissRatioCurve MissRatioCurve::from_model(const trace::WorkloadModel& model,
                                          WayCount max_depth) {
  auto weights = model.stack_distance_weights(max_depth);
  const double deep = weights.back();
  weights.pop_back();
  return MissRatioCurve(std::move(weights), deep);
}

double MissRatioCurve::miss_ratio(WayCount ways) const {
  return total_ == 0.0 ? 0.0 : miss_count(ways) / total_;
}

MissRatioCurve MissRatioCurve::scaled(double factor) const {
  BACP_ASSERT(factor >= 0.0, "scale factor must be non-negative");
  MissRatioCurve out = *this;
  for (auto& h : out.prefix_hits_) h *= factor;
  out.total_ *= factor;
  return out;
}

}  // namespace bacp::msa

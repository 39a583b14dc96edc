#include "sched/events.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "trace/spec2000.hpp"

// The churn generator must be a pure function of its config and
// structurally admissible: epochs never regress, it never over-admits or
// evicts a stranger, and every admit names a spec2000 workload.

namespace bacp::sched {
namespace {

bool is_spec2000(const std::string& name) {
  const auto& suite = trace::spec2000_suite();
  return std::any_of(suite.begin(), suite.end(),
                     [&](const auto& model) { return model.name == name; });
}

TEST(SchedEvents, GeneratorIsDeterministic) {
  ChurnConfig config;
  config.epochs = 400;
  config.seed = 7;
  const auto first = generate_churn(config);
  const auto second = generate_churn(config);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].epoch, second[i].epoch);
    EXPECT_EQ(first[i].kind, second[i].kind);
    EXPECT_EQ(first[i].tenant, second[i].tenant);
    EXPECT_EQ(first[i].workload, second[i].workload);
  }
  EXPECT_FALSE(first.empty());

  ChurnConfig reseeded = config;
  reseeded.seed = 8;
  const auto other = generate_churn(reseeded);
  const auto same_event = [](const Event& a, const Event& b) {
    return a.epoch == b.epoch && a.kind == b.kind && a.tenant == b.tenant &&
           a.workload == b.workload;
  };
  EXPECT_FALSE(std::equal(first.begin(), first.end(), other.begin(), other.end(), same_event));
}

TEST(SchedEvents, GeneratorNeverOverAdmitsOrEvictsStrangers) {
  ChurnConfig config;
  config.epochs = 1000;
  config.num_slots = 4;
  config.arrival_rate = 3.0;  // well above capacity: forces balking
  config.min_residency = 2;
  config.max_residency = 9;
  const auto events = generate_churn(config);

  std::vector<std::uint64_t> live;
  std::uint64_t last_epoch = 0;
  for (const Event& event : events) {
    ASSERT_GE(event.epoch, last_epoch) << "epochs regress at tenant " << event.tenant;
    last_epoch = event.epoch;
    if (event.kind == EventKind::Admit) {
      for (const std::uint64_t id : live) ASSERT_NE(id, event.tenant);
      live.push_back(event.tenant);
      ASSERT_LE(live.size(), config.num_slots) << "over-admitted at epoch " << event.epoch;
      EXPECT_TRUE(is_spec2000(event.workload)) << "unknown workload '" << event.workload << "'";
    } else {
      EXPECT_TRUE(event.workload.empty()) << "evict names '" << event.workload << "'";
      const auto it = std::find(live.begin(), live.end(), event.tenant);
      ASSERT_NE(it, live.end()) << "evicted unknown tenant " << event.tenant;
      live.erase(it);
    }
  }
}

}  // namespace
}  // namespace bacp::sched

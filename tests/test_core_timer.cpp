#include "core/core_timer.hpp"

#include <gtest/gtest.h>

namespace bacp::core {
namespace {

CoreTimerConfig deterministic(double base_cpi = 1.0, double ipa = 50.0,
                              std::uint32_t mlp = 4) {
  CoreTimerConfig config;
  config.base_cpi = base_cpi;
  config.instructions_per_l2_access = ipa;
  config.mlp_window = mlp;
  config.rob_entries = 10000;  // effectively unbounded unless a test sets it
  config.gap_jitter = 0.0;
  return config;
}

/// Issues the next access at its peeked time, as sim::System's drive loop
/// does, and returns that time.
Cycle issue_next(CoreTimer& timer) {
  const Cycle issue = timer.peek_issue();
  timer.advance_to_issue(issue);
  return issue;
}

TEST(CoreTimer, BaseCpiWithInstantMemory) {
  CoreTimer timer(deterministic(0.8, 50.0));
  for (int i = 0; i < 1000; ++i) {
    const Cycle issue = issue_next(timer);
    timer.record_completion(issue);  // zero-latency memory
  }
  timer.drain();
  EXPECT_NEAR(timer.cpi(), 0.8, 0.05);
}

TEST(CoreTimer, FullyOverlappedMissesStayGapLimited) {
  // Latency 200, gap 50 cycles, window 8 -> the window hides everything.
  CoreTimer timer(deterministic(1.0, 50.0, 8));
  for (int i = 0; i < 2000; ++i) {
    const Cycle issue = issue_next(timer);
    timer.record_completion(issue + 200);
  }
  timer.drain();
  EXPECT_NEAR(timer.cpi(), 1.0, 0.1);
}

TEST(CoreTimer, SerializedMissesAreLatencyBound) {
  // Window 1: every access waits for the previous one.
  CoreTimer timer(deterministic(1.0, 50.0, 1));
  for (int i = 0; i < 2000; ++i) {
    const Cycle issue = issue_next(timer);
    timer.record_completion(issue + 200);
  }
  timer.drain();
  // Each access waits for the previous completion; the 50-cycle gap fully
  // overlaps the in-flight miss, so the steady state is one access per 200
  // cycles: CPI = 200 / 50 = 4.
  EXPECT_NEAR(timer.cpi(), 4.0, 0.3);
}

TEST(CoreTimer, MlpWindowInterpolatesBetweenExtremes) {
  auto run = [](std::uint32_t mlp) {
    CoreTimer timer(deterministic(1.0, 20.0, mlp));
    for (int i = 0; i < 3000; ++i) {
      const Cycle issue = issue_next(timer);
      timer.record_completion(issue + 300);
    }
    timer.drain();
    return timer.cpi();
  };
  const double serialized = run(1);
  const double two = run(2);
  const double four = run(4);
  EXPECT_GT(serialized, two);
  EXPECT_GT(two, four);
}

TEST(CoreTimer, RobLimitsRunahead) {
  // ROB of 100 with 50 instructions/access allows only ~2 in flight even
  // though the MLP window says 8.
  CoreTimerConfig config = deterministic(1.0, 50.0, 8);
  config.rob_entries = 100;
  CoreTimer timer(config);
  for (int i = 0; i < 2000; ++i) {
    const Cycle issue = issue_next(timer);
    timer.record_completion(issue + 400);
  }
  timer.drain();
  // ~400 cycles with ~2-3 overlapped -> 130-200 cycles per 50 instructions.
  EXPECT_GT(timer.cpi(), 2.2);
  EXPECT_LT(timer.cpi(), 4.5);
}

TEST(CoreTimer, PeekMatchesAdvance) {
  CoreTimerConfig config = deterministic();
  config.gap_jitter = 0.5;  // the drawn gap must survive repeated peeks
  CoreTimer timer(config);
  for (int i = 0; i < 100; ++i) {
    const Cycle peeked = timer.peek_issue();
    EXPECT_EQ(timer.peek_issue(), peeked);
    timer.advance_to_issue(peeked);
    EXPECT_EQ(timer.time(), peeked);
    timer.record_completion(peeked + 100);
  }
}

TEST(CoreTimer, InstructionsAccumulatePerAccess) {
  CoreTimer timer(deterministic(1.0, 25.0));
  for (int i = 0; i < 10; ++i) {
    timer.record_completion(issue_next(timer));
  }
  EXPECT_DOUBLE_EQ(timer.instructions(), 250.0);
}

TEST(CoreTimer, MarkIsolatesTheMeasurementWindow) {
  CoreTimer timer(deterministic(1.0, 10.0, 1));
  // Warm phase with slow memory.
  for (int i = 0; i < 500; ++i) {
    timer.record_completion(issue_next(timer) + 1000);
  }
  timer.mark();
  // Measured phase with instant memory: CPI since mark must reflect only
  // the fast phase.
  for (int i = 0; i < 500; ++i) {
    timer.record_completion(issue_next(timer));
  }
  timer.drain();
  EXPECT_LT(timer.cpi_since_mark(), 3.0);
  EXPECT_GT(timer.cpi(), timer.cpi_since_mark());
}

TEST(CoreTimer, JitterVariesGapsButConservesInstructions) {
  CoreTimerConfig config = deterministic();
  config.gap_jitter = 0.5;
  config.seed = 99;
  CoreTimer timer(config);
  Cycle previous = 0;
  bool saw_variation = false;
  Cycle first_gap = 0;
  for (int i = 0; i < 50; ++i) {
    const Cycle issue = issue_next(timer);
    const Cycle gap = issue - previous;
    if (i == 0) {
      first_gap = gap;
    } else if (gap != first_gap) {
      saw_variation = true;
    }
    previous = issue;
    timer.record_completion(issue);
  }
  EXPECT_TRUE(saw_variation);
  EXPECT_DOUBLE_EQ(timer.instructions(), 50 * 50.0);
}

TEST(CoreTimer, DrainWaitsForAllOutstanding) {
  CoreTimer timer(deterministic(1.0, 50.0, 8));
  Cycle latest = 0;
  for (int i = 0; i < 4; ++i) {
    const Cycle issue = issue_next(timer);
    latest = issue + 5000;
    timer.record_completion(latest);
  }
  timer.drain();
  EXPECT_GE(timer.time(), latest);
}

}  // namespace
}  // namespace bacp::core

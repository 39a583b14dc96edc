#include "trace/synthetic.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "audit/component_audit.hpp"
#include "common/rng.hpp"
#include "msa/stack_profiler.hpp"
#include "snapshot/codec.hpp"
#include "trace/spec2000.hpp"

namespace bacp::trace {

/// Test-only backdoor into a generator's ring layout: shapes the window
/// sizes a test needs and reads back where the windows sit.
struct GeneratorTestPeer {
  static std::uint32_t head(const SyntheticTraceGenerator& generator,
                            std::uint32_t set) {
    return generator.recency_heads_[set];
  }
  static std::uint32_t& size(SyntheticTraceGenerator& generator, std::uint32_t set) {
    return generator.recency_sizes_[set];
  }
  static std::uint32_t capacity(const SyntheticTraceGenerator& generator) {
    return generator.ring_capacity_;
  }
  /// Bytes of the recency rings: one slot per set per ring position.
  static std::size_t ring_bytes(const SyntheticTraceGenerator& generator) {
    return sizeof(generator.recency_ids_[0]) * generator.config().num_sets *
           generator.ring_capacity_;
  }
};

namespace {

GeneratorConfig small_config(CoreId core = 0) {
  GeneratorConfig config;
  config.num_sets = 256;
  config.max_depth = 128;
  config.core = core;
  return config;
}

TEST(SyntheticGenerator, DeterministicForSameSeed) {
  const auto& model = spec2000_by_name("gzip");
  SyntheticTraceGenerator a(model, small_config(), 5);
  SyntheticTraceGenerator b(model, small_config(), 5);
  for (int i = 0; i < 2000; ++i) {
    const auto x = a.next();
    const auto y = b.next();
    EXPECT_EQ(x.block, y.block);
    EXPECT_EQ(x.is_write, y.is_write);
  }
}

TEST(SyntheticGenerator, DifferentSeedsDiffer) {
  const auto& model = spec2000_by_name("gzip");
  SyntheticTraceGenerator a(model, small_config(), 5);
  SyntheticTraceGenerator b(model, small_config(), 6);
  int equal = 0;
  for (int i = 0; i < 500; ++i) {
    if (a.next().block == b.next().block) ++equal;
  }
  EXPECT_LT(equal, 100);
}

TEST(SyntheticGenerator, BlockLowBitsEncodeTheSet) {
  // The cache derives the set as block % num_sets; the generator's recency
  // bookkeeping must agree with that mapping.
  const auto& model = spec2000_by_name("applu");
  auto config = small_config();
  SyntheticTraceGenerator generator(model, config, 9);
  std::set<std::uint64_t> sets_seen;
  for (int i = 0; i < 20000; ++i) {
    sets_seen.insert(generator.next().block % config.num_sets);
  }
  EXPECT_EQ(sets_seen.size(), config.num_sets);  // uniform set selection
}

TEST(SyntheticGenerator, CoreIdStampsAddressSpace) {
  const auto& model = spec2000_by_name("applu");
  SyntheticTraceGenerator a(model, small_config(0), 5);
  SyntheticTraceGenerator b(model, small_config(1), 5);
  std::set<BlockAddress> from_a;
  for (int i = 0; i < 5000; ++i) from_a.insert(a.next().block);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(from_a.count(b.next().block), 0u) << "address spaces must be disjoint";
  }
}

TEST(SyntheticGenerator, WriteFractionMatchesModel) {
  const auto& model = spec2000_by_name("bzip2");  // write_fraction 0.35
  SyntheticTraceGenerator generator(model, small_config(), 21);
  int writes = 0;
  constexpr int kAccesses = 50000;
  for (int i = 0; i < kAccesses; ++i) writes += generator.next().is_write ? 1 : 0;
  EXPECT_NEAR(writes / static_cast<double>(kAccesses), model.write_fraction, 0.02);
}

TEST(SyntheticGenerator, FootprintGrowsWithColdFraction) {
  const auto& cold_heavy = spec2000_by_name("swim");   // cold 0.42
  const auto& cold_light = spec2000_by_name("sixtrack");  // cold 0.05
  SyntheticTraceGenerator a(cold_heavy, small_config(), 3);
  SyntheticTraceGenerator b(cold_light, small_config(), 3);
  for (int i = 0; i < 50000; ++i) {
    a.next();
    b.next();
  }
  EXPECT_GT(a.blocks_allocated(), 2 * b.blocks_allocated());
}

std::vector<std::uint8_t> generator_bytes(const SyntheticTraceGenerator& generator) {
  std::vector<std::uint8_t> bytes;
  snapshot::Writer writer(bytes);
  generator.save_state(writer);
  return bytes;
}

/// Malformations a test plants in a generator_payload(); zero plants none.
struct PayloadFault {
  std::uint64_t count_skew = 0;      ///< added to the stored live count
  BlockAddress first_entry_xor = 0;  ///< bits flipped in the first window entry
  std::uint64_t counter_skew = 0;    ///< added to the stored block counter
};

/// A Generators payload written field by field: set s holds a window of
/// sizes[s] distinct blocks stamped as fresh_block() would, and the block
/// counter is one past the highest id, each as `fault` malforms them.
std::vector<std::uint8_t> generator_payload(const GeneratorConfig& config,
                                            const std::vector<std::uint32_t>& sizes,
                                            const PayloadFault& fault = {}) {
  std::vector<BlockAddress> windows;
  const auto set_bits = log2_floor(config.num_sets);
  for (std::uint32_t set = 0; set < config.num_sets; ++set) {
    for (std::uint32_t depth = 0; depth < sizes[set]; ++depth) {
      windows.push_back((std::uint64_t{config.core} << 52) |
                        (std::uint64_t{windows.size()} << set_bits) | set);
    }
  }
  if (!windows.empty()) windows.front() ^= fault.first_entry_xor;
  std::vector<std::uint8_t> bytes;
  snapshot::Writer writer(bytes);
  writer.u32(config.num_sets);
  writer.u32(config.max_depth);
  writer.u32(config.core);
  writer.str("gzip");
  for (const std::uint64_t word : common::Rng(99, config.core).state()) writer.u64(word);
  writer.scalars(std::span<const std::uint32_t>(sizes));
  writer.u64(windows.size() + fault.count_skew);
  writer.raw_scalars(std::span<const BlockAddress>(windows));
  writer.u64(windows.size() + fault.counter_skew);  // every id above is in use
  return bytes;
}

void restore_bytes(SyntheticTraceGenerator& generator,
                   const std::vector<std::uint8_t>& bytes) {
  snapshot::Reader reader(bytes);
  generator.restore_state(reader);
  ASSERT_TRUE(reader.exhausted());
}

TEST(SyntheticGenerator, SaveRestoreRoundTripsWrappedLiveWindows) {
  // Snapshots carry each set's live window, not ring slots. Cover every
  // window shape a restore must rebuild: empty, partial and full sets,
  // heads that have wrapped and windows that cross the ring end — at a
  // depth whose ring capacity equals max_depth (32) and one whose ring has
  // dead slots (48, capacity 64).
  for (const WayCount depth : {WayCount{32}, WayCount{48}}) {
    SCOPED_TRACE("max_depth " + std::to_string(depth));
    GeneratorConfig config;
    config.num_sets = 64;
    config.max_depth = depth;
    config.core = 5;
    // A long run fills every set and leaves its head anywhere in the ring;
    // shrinking windows (dropping LRU entries, a valid if unnatural state)
    // then adds empty and partial sets.
    SyntheticTraceGenerator original(spec2000_by_name("swim"), config, 41);
    for (int i = 0; i < 20'000; ++i) (void)original.next();
    std::uint32_t empty = 0, partial = 0, full = 0, crossing = 0;
    for (std::uint32_t set = 0; set < config.num_sets; ++set) {
      std::uint32_t& size = GeneratorTestPeer::size(original, set);
      if (set % 3 == 0) size = 0;
      if (set % 3 == 2) size = set % depth;
      empty += size == 0 ? 1u : 0u;
      partial += size > 0 && size < depth ? 1u : 0u;
      full += size == depth ? 1u : 0u;
      crossing += GeneratorTestPeer::head(original, set) + size >
                          GeneratorTestPeer::capacity(original)
                      ? 1u
                      : 0u;
    }
    ASSERT_GT(empty, 0u);
    ASSERT_GT(partial, 0u);
    ASSERT_GT(full, 0u);
    ASSERT_GT(crossing, 0u);
    const auto audit = audit::audit_trace_generator(original);
    ASSERT_TRUE(audit.ok()) << audit.to_string();

    // Restore into a generator with another model, seed and history: dirty
    // dead slots and heads elsewhere in the ring.
    const auto bytes = generator_bytes(original);
    SyntheticTraceGenerator restored(spec2000_by_name("gcc"), config, 7);
    for (int i = 0; i < 20'000; ++i) (void)restored.next();
    restore_bytes(restored, bytes);
    EXPECT_EQ(generator_bytes(restored), bytes);
    const auto restored_audit = audit::audit_trace_generator(restored);
    EXPECT_TRUE(restored_audit.ok()) << restored_audit.to_string();
    for (int i = 0; i < 10'000; ++i) {
      const auto want = original.next();
      const auto got = restored.next();
      ASSERT_EQ(got.block, want.block) << "access " << i;
      ASSERT_EQ(got.is_write, want.is_write) << "access " << i;
    }
    EXPECT_EQ(generator_bytes(restored), generator_bytes(original));
  }
}

GeneratorConfig tiny_config() {
  GeneratorConfig config;
  config.num_sets = 8;
  config.max_depth = 32;
  return config;
}

TEST(SyntheticGeneratorDeath, RestoreRejectsSizeAboveMaxDepth) {
  const GeneratorConfig config = tiny_config();
  // One set claims a window deeper than any ring may hold; the live count
  // and the window bytes agree with the claim.
  std::vector<std::uint32_t> sizes(config.num_sets, 2);
  sizes[3] = config.max_depth + 1;
  const auto bytes = generator_payload(config, sizes);
  SyntheticTraceGenerator generator(spec2000_by_name("gzip"), config, 1);
  EXPECT_DEATH(restore_bytes(generator, bytes), "above max_depth");
}

TEST(SyntheticGeneratorDeath, RestoreRejectsLiveCountMismatch) {
  const GeneratorConfig config = tiny_config();
  const auto bytes = generator_payload(
      config, std::vector<std::uint32_t>(config.num_sets, 4), {.count_skew = 1});
  SyntheticTraceGenerator generator(spec2000_by_name("gzip"), config, 1);
  EXPECT_DEATH(restore_bytes(generator, bytes), "live recency count");
}

TEST(SyntheticGeneratorDeath, RestoreRejectsEntryOutsideItsSet) {
  // Rings hold ids and rebuild each address from the core and the set, so
  // restore must refuse an entry that would not rebuild to itself: one
  // with another set's index bits, and one with another core's stamp.
  GeneratorConfig config = tiny_config();
  config.core = 3;
  const std::vector<std::uint32_t> sizes(config.num_sets, 4);
  SyntheticTraceGenerator generator(spec2000_by_name("gzip"), config, 1);
  restore_bytes(generator, generator_payload(config, sizes));  // the clean payload
  for (const BlockAddress flip : {BlockAddress{1}, BlockAddress{1} << 52}) {
    SCOPED_TRACE("xor " + std::to_string(flip));
    const auto bytes = generator_payload(config, sizes, {.first_entry_xor = flip});
    EXPECT_DEATH(restore_bytes(generator, bytes), "outside its set or core");
  }
}

TEST(SyntheticGeneratorDeath, RestoreRejectsEntryIdAboveThirtyTwoBits) {
  // An address that names its own core and set but whose id field needs a
  // 33rd bit cannot be narrowed into a ring slot.
  const GeneratorConfig config = tiny_config();
  const BlockAddress id_bit_32 = BlockAddress{1} << (log2_floor(config.num_sets) + 32);
  const auto bytes = generator_payload(config, std::vector<std::uint32_t>(config.num_sets, 4),
                                       {.first_entry_xor = id_bit_32});
  SyntheticTraceGenerator generator(spec2000_by_name("gzip"), config, 1);
  EXPECT_DEATH(restore_bytes(generator, bytes), "id above 32 bits");
}

TEST(SyntheticGeneratorDeath, RestoreRejectsBlockCounterAboveThirtyTwoBits) {
  // A counter of exactly 2^32 (every id handed out) restores; one more
  // cannot have come from a generator.
  const GeneratorConfig config = tiny_config();
  const std::vector<std::uint32_t> sizes(config.num_sets, 4);
  const std::uint64_t live = std::uint64_t{config.num_sets} * 4;
  const std::uint64_t to_limit = SyntheticTraceGenerator::kBlockIdLimit - live;
  SyntheticTraceGenerator generator(spec2000_by_name("gzip"), config, 1);
  restore_bytes(generator, generator_payload(config, sizes, {.counter_skew = to_limit}));
  EXPECT_EQ(generator.blocks_allocated(), SyntheticTraceGenerator::kBlockIdLimit);
  const auto bytes = generator_payload(config, sizes, {.counter_skew = to_limit + 1});
  EXPECT_DEATH(restore_bytes(generator, bytes), "block counter above 2\\^32");
}

TEST(SyntheticGeneratorDeath, FreshBlockFailsClosedAtThirtyTwoBits) {
  // With every id handed out, the next fresh insert aborts instead of
  // wrapping onto an id that may still be live in a ring.
  const GeneratorConfig config = tiny_config();
  const std::vector<std::uint32_t> sizes(config.num_sets, 4);
  const std::uint64_t to_limit =
      SyntheticTraceGenerator::kBlockIdLimit - std::uint64_t{config.num_sets} * 4;
  SyntheticTraceGenerator generator(spec2000_by_name("swim"), config, 1);
  restore_bytes(generator, generator_payload(config, sizes, {.counter_skew = to_limit}));
  EXPECT_DEATH(
      {
        for (int i = 0; i < 10'000; ++i) (void)generator.next();
      },
      "ran out of 32-bit block ids");
}

TEST(SyntheticGenerator, RingSlotHoldsAFourByteId) {
  // Size guard: the recency rings are every System's largest structure
  // (one per core). At the production geometry, 2048 sets x 128 slots, a
  // ring array holds 4-byte ids, 1 MiB per core; 8-byte addresses would
  // double it.
  const GeneratorConfig config;
  SyntheticTraceGenerator generator(spec2000_by_name("gzip"), config, 1);
  EXPECT_EQ(GeneratorTestPeer::ring_bytes(generator), std::size_t{2048} * 128 * 4);
  EXPECT_EQ(sizeof(SyntheticTraceGenerator::BlockId), 4u);
}

/// The defining property: the generated stream's MSA histogram converges to
/// the model's stack-distance distribution (full-tag, all-sets profiler).
class GeneratorConvergence : public ::testing::TestWithParam<const char*> {};

TEST_P(GeneratorConvergence, ProfiledHistogramMatchesModel) {
  const auto& model = spec2000_by_name(GetParam());
  auto config = small_config();
  SyntheticTraceGenerator generator(model, config, 17);

  msa::ProfilerConfig profiler_config;
  profiler_config.num_sets = config.num_sets;
  profiler_config.set_sampling = 1;
  profiler_config.partial_tag_bits = 0;
  profiler_config.profiled_ways = config.max_depth;
  msa::StackProfiler profiler(profiler_config);

  constexpr std::uint64_t kWarm = 450000;
  constexpr std::uint64_t kMeasure = 400000;
  for (std::uint64_t i = 0; i < kWarm; ++i) generator.next();
  for (std::uint64_t i = 0; i < kMeasure; ++i) profiler.observe(generator.next().block);

  const auto expected = model.stack_distance_weights(config.max_depth);
  const auto measured = profiler.histogram().normalized();
  ASSERT_EQ(measured.size(), expected.size());
  // Compare cumulative distributions (pointwise bins are noisy).
  double cumulative_expected = 0.0;
  double cumulative_measured = 0.0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    cumulative_expected += expected[i];
    cumulative_measured += measured[i];
    EXPECT_NEAR(cumulative_measured, cumulative_expected, 0.04)
        << "CDF at depth " << i + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, GeneratorConvergence,
                         ::testing::Values("sixtrack", "applu", "bzip2", "mcf",
                                           "gzip", "facerec", "eon", "swim"));

}  // namespace
}  // namespace bacp::trace

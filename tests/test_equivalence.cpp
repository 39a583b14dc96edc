// Equivalence suite for the hot-path data structures: every optimized
// component is replayed against a deliberately naive reference
// formulation on randomized streams and must agree bit-for-bit.
//
//   - cache::SetAssocCache (packed bitmask metadata + intrusive byte-wide
//     LRU links) vs. a vector<Line> + per-set `vector<WayIndex> lru_order`
//     cache, including the known-way fast paths (touch_hit, mark_dirty_at,
//     invalidate_at) and mid-stream repartitions;
//   - msa::StackProfiler (flat stacks + memmove move-to-front) vs. a
//     vector-of-vectors Mattson stack, across sampling factors and tag
//     widths;
//   - trace::SyntheticTraceGenerator (ring-buffer recency lists) vs. a
//     vector-of-vectors erase/insert formulation, including a mid-stream
//     model switch; and batched refills with truncation vs. scalar next();
//   - core::CoreTimer (min-heap on done_at, in-place window scans) vs. a
//     multiset-ordered formulation of the original pop-loop semantics;
//   - nuca::DnucaCache residency rows (exact {bank, way} lookups) vs.
//     brute-force probes over every bank.
//
// Streams are >= 10^6 operations in total so LRU wrap-around, stack
// overflow, ring wrap and hash-table growth/erase churn are all exercised.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "cache/partial_tag.hpp"
#include "cache/set_assoc_cache.hpp"
#include "common/rng.hpp"
#include "core/core_timer.hpp"
#include "msa/stack_profiler.hpp"
#include "nuca/dnuca_cache.hpp"
#include "partition/static_policies.hpp"
#include "sim/system.hpp"
#include "sim/system_config.hpp"
#include "snapshot/codec.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/mix.hpp"
#include "trace/spec2000.hpp"
#include "trace/synthetic.hpp"

namespace bacp {
namespace {

// ---------------------------------------------------------------------------
// Reference set-associative cache: vector<Line> per set plus an explicit
// MRU-first `lru_order` vector, shuffled with erase/insert. Matches the
// documented semantics of cache::SetAssocCache operation for operation.
// ---------------------------------------------------------------------------

class RefCache {
 public:
  struct AccessResult {
    bool hit = false;
    WayIndex way = 0;
  };
  struct FillOutcome {
    WayIndex way = 0;
    std::optional<cache::Line> evicted;
  };

  explicit RefCache(const cache::SetAssocCache::Config& config)
      : config_(config),
        lines_(std::size_t{config.num_sets} * config.ways),
        lru_(config.num_sets),
        way_masks_(config.ways, ~CoreMask{0}),
        hits_(config.num_cores, 0),
        misses_(config.num_cores, 0),
        evictions_(config.num_cores, 0) {
    for (auto& order : lru_) {
      order.resize(config_.ways);
      std::iota(order.begin(), order.end(), 0u);
    }
  }

  AccessResult access(BlockAddress block, CoreId core, bool is_write) {
    const std::uint32_t set = set_of(block);
    const int way = find_way(set, block);
    if (way < 0) {
      ++misses_[core];
      return {false, 0};
    }
    ++hits_[core];
    touch_mru(set, static_cast<WayIndex>(way));
    if (is_write) line(set, static_cast<WayIndex>(way)).dirty = true;
    return {true, static_cast<WayIndex>(way)};
  }

  FillOutcome fill(BlockAddress block, CoreId core, bool dirty) {
    const std::uint32_t set = set_of(block);
    WayIndex victim = config_.ways;  // sentinel
    for (WayIndex way = 0; way < config_.ways; ++way) {
      if (owned(core, way) && !line(set, way).valid) {
        victim = way;
        break;
      }
    }
    if (victim == config_.ways) {
      const auto& order = lru_[set];
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        if (owned(core, *it)) {
          victim = *it;
          break;
        }
      }
    }
    FillOutcome outcome;
    outcome.way = victim;
    cache::Line& slot = line(set, victim);
    if (slot.valid) {
      outcome.evicted = slot;
      ++evictions_[core];
    }
    slot.block = block;
    slot.allocator = core;
    slot.valid = true;
    slot.dirty = dirty;
    touch_mru(set, victim);
    return outcome;
  }

  bool mark_dirty(BlockAddress block) {
    const std::uint32_t set = set_of(block);
    const int way = find_way(set, block);
    if (way < 0) return false;
    line(set, static_cast<WayIndex>(way)).dirty = true;
    return true;
  }

  std::optional<cache::Line> invalidate(BlockAddress block) {
    const std::uint32_t set = set_of(block);
    const int way = find_way(set, block);
    if (way < 0) return std::nullopt;
    cache::Line& slot = line(set, static_cast<WayIndex>(way));
    const cache::Line copy = slot;
    slot.valid = false;
    slot.dirty = false;
    slot.allocator = kInvalidCore;
    demote_lru(set, static_cast<WayIndex>(way));
    return copy;
  }

  std::optional<cache::Line> lru_line_for_core(BlockAddress block, CoreId core) const {
    const std::uint32_t set = set_of(block);
    const auto& order = lru_[set];
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const cache::Line& slot = lines_[std::size_t{set} * config_.ways + *it];
      if (owned(core, *it) && slot.valid) return slot;
    }
    return std::nullopt;
  }

  void set_way_partition(const std::vector<CoreMask>& masks) { way_masks_ = masks; }

  bool probe(BlockAddress block) const {
    return find_way(set_of(block), block) >= 0;
  }

  std::optional<WayIndex> way_of(BlockAddress block) const {
    const int way = find_way(set_of(block), block);
    if (way < 0) return std::nullopt;
    return static_cast<WayIndex>(way);
  }

  std::uint64_t valid_lines() const {
    std::uint64_t count = 0;
    for (const auto& slot : lines_) {
      if (slot.valid) ++count;
    }
    return count;
  }

  const std::vector<std::uint64_t>& hits() const { return hits_; }
  const std::vector<std::uint64_t>& misses() const { return misses_; }
  const std::vector<std::uint64_t>& evictions() const { return evictions_; }

 private:
  std::uint32_t set_of(BlockAddress block) const {
    return static_cast<std::uint32_t>(block & (config_.num_sets - 1));
  }
  cache::Line& line(std::uint32_t set, WayIndex way) {
    return lines_[std::size_t{set} * config_.ways + way];
  }
  bool owned(CoreId core, WayIndex way) const {
    return (way_masks_[way] & core_bit(core)) != 0;
  }
  int find_way(std::uint32_t set, BlockAddress block) const {
    for (WayIndex way = 0; way < config_.ways; ++way) {
      const cache::Line& slot = lines_[std::size_t{set} * config_.ways + way];
      if (slot.valid && slot.block == block) return static_cast<int>(way);
    }
    return -1;
  }
  void touch_mru(std::uint32_t set, WayIndex way) {
    auto& order = lru_[set];
    order.erase(std::find(order.begin(), order.end(), way));
    order.insert(order.begin(), way);
  }
  void demote_lru(std::uint32_t set, WayIndex way) {
    auto& order = lru_[set];
    order.erase(std::find(order.begin(), order.end(), way));
    order.push_back(way);
  }

  cache::SetAssocCache::Config config_;
  std::vector<cache::Line> lines_;
  std::vector<std::vector<WayIndex>> lru_;
  std::vector<CoreMask> way_masks_;
  std::vector<std::uint64_t> hits_;
  std::vector<std::uint64_t> misses_;
  std::vector<std::uint64_t> evictions_;
};

/// Random per-way masks where every way has an owner and every core owns
/// at least one way (the fill precondition).
std::vector<CoreMask> random_partition(common::Rng& rng, WayCount ways,
                                       std::uint32_t num_cores) {
  const CoreMask all = num_cores >= 32 ? ~CoreMask{0}
                                       : ((CoreMask{1} << num_cores) - 1);
  std::vector<CoreMask> masks(ways);
  for (auto& mask : masks) {
    mask = static_cast<CoreMask>(rng.next_u64()) & all;
    if (mask == 0) mask = all;
  }
  for (CoreId core = 0; core < num_cores; ++core) {
    bool owns = false;
    for (const CoreMask mask : masks) {
      owns = owns || (mask & core_bit(core)) != 0;
    }
    if (!owns) masks[rng.next_below(ways)] |= core_bit(core);
  }
  return masks;
}

void replay_cache(const cache::SetAssocCache::Config& config, std::uint64_t seed,
                  std::size_t ops) {
  cache::SetAssocCache real(config);
  RefCache ref(config);
  common::Rng rng(seed);
  std::vector<BlockAddress> pool;
  // The real cache's per-core counts, tallied from what access() and fill()
  // return; the reference counts its own.
  std::vector<std::uint64_t> hits(config.num_cores, 0);
  std::vector<std::uint64_t> misses(config.num_cores, 0);
  std::vector<std::uint64_t> evictions(config.num_cores, 0);

  for (std::size_t i = 0; i < ops; ++i) {
    const std::uint64_t op = rng.next_below(100);
    const CoreId core = static_cast<CoreId>(rng.next_below(config.num_cores));
    BlockAddress block;
    if (!pool.empty() && rng.next_bool(0.7)) {
      block = pool[rng.next_below(pool.size())];
    } else {
      block = rng.next_u64() & 0x3FFF;  // small space => frequent reuse
      pool.push_back(block);
    }
    const bool is_write = rng.next_bool(0.3);

    if (op < 70) {
      // Access, filling on a miss — the L2 service pattern.
      const auto expected = ref.access(block, core, is_write);
      if (expected.hit && i % 2 == 0) {
        // Exercise the known-way fast path on alternating hits.
        real.touch_hit(block, expected.way, is_write);
        ++hits[core];
      } else {
        const auto got = real.access(block, core, is_write);
        ASSERT_EQ(got.hit, expected.hit) << "op " << i;
        if (got.hit) {
          ASSERT_EQ(got.way, expected.way) << "op " << i;
        }
        ++(got.hit ? hits : misses)[core];
      }
      if (!expected.hit) {
        const auto got = real.fill(block, core, is_write);
        const auto want = ref.fill(block, core, is_write);
        ASSERT_EQ(got.way, want.way) << "op " << i;
        ASSERT_EQ(got.evicted.has_value(), want.evicted.has_value()) << "op " << i;
        if (got.evicted) {
          ++evictions[core];
          ASSERT_EQ(got.evicted->block, want.evicted->block) << "op " << i;
          ASSERT_EQ(got.evicted->allocator, want.evicted->allocator) << "op " << i;
          ASSERT_EQ(got.evicted->dirty, want.evicted->dirty) << "op " << i;
        }
      }
    } else if (op < 78) {
      const auto way = ref.way_of(block);
      if (way.has_value()) {
        real.mark_dirty_at(block, *way);
        ASSERT_TRUE(ref.mark_dirty(block)) << "op " << i;
      }
    } else if (op < 86) {
      const auto way = ref.way_of(block);
      const auto want = ref.invalidate(block);
      if (way.has_value() && i % 2 == 0) {
        const auto got = real.invalidate_at(block, *way);
        ASSERT_EQ(got.block, want->block) << "op " << i;
        ASSERT_EQ(got.allocator, want->allocator) << "op " << i;
        ASSERT_EQ(got.dirty, want->dirty) << "op " << i;
      } else {
        const auto got = real.invalidate(block);
        ASSERT_EQ(got.has_value(), want.has_value()) << "op " << i;
        if (got) {
          ASSERT_EQ(got->block, want->block) << "op " << i;
          ASSERT_EQ(got->dirty, want->dirty) << "op " << i;
        }
      }
    } else if (op < 94) {
      const auto got = real.lru_line_for_core(block, core);
      const auto want = ref.lru_line_for_core(block, core);
      ASSERT_EQ(got.has_value(), want.has_value()) << "op " << i;
      if (got) {
        ASSERT_EQ(got->block, want->block) << "op " << i;
      }
    } else {
      const auto masks = random_partition(rng, config.ways, config.num_cores);
      real.set_way_partition(masks);
      ref.set_way_partition(masks);
    }

    if (i % 10'000 == 9'999) {
      // Equivalence with the reference proves observable behavior; the
      // structural audit proves the internals (LRU byte-links, bitmasks,
      // allocator columns) that equivalence alone cannot see.
      const auto report = audit::audit_cache(real);
      ASSERT_TRUE(report.ok()) << "op " << i << ": " << report.to_string();
    }
  }
  {
    const auto report = audit::audit_cache(real);
    ASSERT_TRUE(report.ok()) << report.to_string();
  }

  ASSERT_EQ(real.valid_lines(), ref.valid_lines());
  for (CoreId core = 0; core < config.num_cores; ++core) {
    ASSERT_EQ(hits[core], ref.hits()[core]) << "core " << core;
    ASSERT_EQ(misses[core], ref.misses()[core]) << "core " << core;
    ASSERT_EQ(evictions[core], ref.evictions()[core]) << "core " << core;
  }
  for (const BlockAddress block : pool) {
    ASSERT_EQ(real.probe(block), ref.probe(block)) << "block " << block;
  }
}

TEST(CacheEquivalence, DirectMappedSingleCore) {
  replay_cache({"dm", 64, 1, 1}, 0xC0FFEE, 120'000);
}

TEST(CacheEquivalence, FourWayFourCores) {
  replay_cache({"4w", 64, 4, 4}, 0xBEEF, 150'000);
}

TEST(CacheEquivalence, EightWayEightCoresRepartitioned) {
  replay_cache({"8w", 32, 8, 8}, 0xFACADE, 150'000);
}

TEST(CacheEquivalence, WideSixteenWay) {
  replay_cache({"16w", 16, 16, 4}, 0x5EED, 120'000);
}

TEST(CacheEquivalence, LongAuditedReplay) {
  // Pushes the suite's structurally-audited replay volume past 1e6 ops:
  // 540k across the four configs above + 400k here + 200k in the DNUCA
  // residency replays below, every slice audited at periodic checkpoints.
  replay_cache({"8w-long", 64, 8, 8}, 0xAD17, 400'000);
}

// ---------------------------------------------------------------------------
// Reference Mattson stack profiler: per-sampled-set vector stacks moved to
// front with erase/insert.
// ---------------------------------------------------------------------------

class RefProfiler {
 public:
  explicit RefProfiler(const msa::ProfilerConfig& config)
      : config_(config),
        set_shift_(log2_floor(config.num_sets)),
        stacks_((config.num_sets + config.set_sampling - 1) / config.set_sampling),
        bins_(std::size_t{config.profiled_ways} + 1, 0) {}

  void observe(BlockAddress block) {
    ++observed_;
    const auto set = static_cast<std::uint32_t>(block & (config_.num_sets - 1));
    if (set % config_.set_sampling != 0) return;
    ++sampled_;
    const std::uint64_t entry =
        config_.partial_tag_bits == 0
            ? (block >> set_shift_)
            : static_cast<std::uint64_t>(
                  cache::partial_tag(block >> set_shift_, config_.partial_tag_bits));
    auto& stack = stacks_[set / config_.set_sampling];
    const auto found = std::find(stack.begin(), stack.end(), entry);
    if (found != stack.end()) {
      ++bins_[static_cast<std::size_t>(found - stack.begin())];
      stack.erase(found);
    } else {
      ++bins_[config_.profiled_ways];
      if (stack.size() == config_.profiled_ways) stack.pop_back();
    }
    stack.insert(stack.begin(), entry);
  }

  void decay() {
    for (auto& bin : bins_) bin >>= 1;
  }

  const std::vector<std::uint64_t>& bins() const { return bins_; }
  std::uint64_t observed() const { return observed_; }
  std::uint64_t sampled() const { return sampled_; }

 private:
  msa::ProfilerConfig config_;
  std::uint32_t set_shift_;
  std::vector<std::vector<std::uint64_t>> stacks_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t observed_ = 0;
  std::uint64_t sampled_ = 0;
};

void replay_profiler(const msa::ProfilerConfig& config, std::uint64_t seed,
                     std::size_t ops) {
  msa::StackProfiler real(config);
  RefProfiler ref(config);
  common::Rng rng(seed);
  std::vector<BlockAddress> pool;
  for (std::size_t i = 0; i < ops; ++i) {
    BlockAddress block;
    if (!pool.empty() && rng.next_bool(0.75)) {
      block = pool[rng.next_below(pool.size())];
    } else {
      block = rng.next_u64() & 0xFFFFFF;
      pool.push_back(block);
    }
    real.observe(block);
    ref.observe(block);
    if (i % 50'000 == 49'999) {
      real.decay();
      ref.decay();
    }
  }
  ASSERT_EQ(real.observed_accesses(), ref.observed());
  ASSERT_EQ(real.sampled_accesses(), ref.sampled());
  const auto bins = real.histogram().bins();
  ASSERT_EQ(bins.size(), ref.bins().size());
  for (std::size_t bin = 0; bin < bins.size(); ++bin) {
    ASSERT_EQ(bins[bin], ref.bins()[bin]) << "bin " << bin;
  }
}

TEST(ProfilerEquivalence, FullSamplingFullTags) {
  msa::ProfilerConfig config;
  config.num_sets = 64;
  config.set_sampling = 1;
  config.partial_tag_bits = 0;
  config.profiled_ways = 16;
  replay_profiler(config, 0xAB1E, 150'000);
}

TEST(ProfilerEquivalence, SampledPartialTags) {
  msa::ProfilerConfig config;
  config.num_sets = 256;
  config.set_sampling = 8;
  config.partial_tag_bits = 12;
  config.profiled_ways = 24;
  replay_profiler(config, 0xD00D, 150'000);
}

TEST(ProfilerEquivalence, PaperScaleSampling) {
  msa::ProfilerConfig config;  // defaults: 2048 sets, 1-in-32, 12b tags, 72 ways
  replay_profiler(config, 0x90210, 150'000);
}

// ---------------------------------------------------------------------------
// Reference synthetic trace generator: per-set vector recency lists with
// erase/insert, same RNG and sampler draws as the ring-buffer generator.
// ---------------------------------------------------------------------------

class RefGenerator {
 public:
  RefGenerator(const trace::WorkloadModel& model, const trace::GeneratorConfig& config,
               std::uint64_t seed)
      : model_(&model),
        config_(config),
        rng_(seed, config.core),
        sampler_(model.stack_distance_weights(config.max_depth)),
        lists_(config.num_sets) {}

  void switch_model(const trace::WorkloadModel& model) {
    model_ = &model;
    sampler_ = common::DiscreteSampler(model.stack_distance_weights(config_.max_depth));
  }

  trace::MemoryAccess next() {
    const auto set = static_cast<std::uint32_t>(rng_.next_below(config_.num_sets));
    auto& list = lists_[set];
    const std::size_t depth_bin = sampler_.sample(rng_);
    BlockAddress block;
    if (depth_bin >= config_.max_depth || depth_bin >= list.size()) {
      const std::uint64_t id = next_block_id_++;
      block = (static_cast<std::uint64_t>(config_.core) << 52) |
              (id << log2_floor(config_.num_sets)) | set;
      list.insert(list.begin(), block);
      if (list.size() > config_.max_depth) list.pop_back();
    } else {
      block = list[depth_bin];
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(depth_bin));
      list.insert(list.begin(), block);
    }
    trace::MemoryAccess access;
    access.block = block;
    access.core = config_.core;
    access.is_write = rng_.next_bool(model_->write_fraction);
    return access;
  }

 private:
  const trace::WorkloadModel* model_;
  trace::GeneratorConfig config_;
  common::Rng rng_;
  common::DiscreteSampler sampler_;
  std::vector<std::vector<BlockAddress>> lists_;
  std::uint64_t next_block_id_ = 0;
};

TEST(GeneratorEquivalence, RingBufferMatchesVectorListsAcrossModelSwitch) {
  const auto& model_a = trace::spec2000_by_name("art");
  const auto& model_b = trace::spec2000_by_name("mcf");
  trace::GeneratorConfig config;
  config.num_sets = 128;
  config.max_depth = 48;  // not a power of two: exercises ring wrap
  config.core = 3;
  trace::SyntheticTraceGenerator real(model_a, config, 77);
  RefGenerator ref(model_a, config, 77);
  for (std::size_t i = 0; i < 200'000; ++i) {
    if (i == 100'000) {
      real.switch_model(model_b);
      ref.switch_model(model_b);
    }
    const auto got = real.next();
    const auto want = ref.next();
    ASSERT_EQ(got.block, want.block) << "access " << i;
    ASSERT_EQ(got.core, want.core) << "access " << i;
    ASSERT_EQ(got.is_write, want.is_write) << "access " << i;
  }
}

std::vector<std::uint8_t> generator_bytes(const trace::SyntheticTraceGenerator& generator) {
  std::vector<std::uint8_t> bytes;
  snapshot::Writer writer(bytes);
  generator.save_state(writer);
  return bytes;
}

TEST(GeneratorEquivalence, BatchedRefillWithTruncationMatchesScalarStream) {
  // sim::System refills each core's stream with next_batch() and rewinds
  // the unconsumed suffix with truncate_batch() before any snapshot, model
  // switch or core reset. Random cut points must never leak into simulated
  // state: the consumed accesses and the snapshot bytes equal those of a
  // generator advanced by scalar next(). Depth 48 (ring capacity 64) has
  // dead slots; at depth 32 the capacity equals max_depth, as in
  // production, so a fresh insert into a full set overwrites its LRU entry
  // and only undo's restore of that slot brings it back.
  const auto& model_a = trace::spec2000_by_name("gcc");
  const auto& model_b = trace::spec2000_by_name("swim");
  for (const WayCount depth : {WayCount{48}, WayCount{32}}) {
    SCOPED_TRACE("max_depth " + std::to_string(depth));
    trace::GeneratorConfig config;
    config.num_sets = 64;
    config.max_depth = depth;
    config.core = 2;
    trace::SyntheticTraceGenerator batched(model_a, config, 91);
    trace::SyntheticTraceGenerator scalar(model_a, config, 91);

    constexpr std::uint32_t kSizes[] = {1, 7, trace::AccessBatch::kMaxSize};
    constexpr std::size_t kRefills = 6'000;
    common::Rng rng(0xBA7C);
    trace::AccessBatch batch;
    std::uint32_t outstanding = 0;  // size of a fully consumed, unretired batch
    const auto retire = [&] {
      if (batched.batch_outstanding()) batched.truncate_batch(outstanding);
    };
    for (std::size_t refill = 0; refill < kRefills; ++refill) {
      if (refill == kRefills / 2) {
        retire();
        batched.switch_model(model_b);
        scalar.switch_model(model_b);
      }
      const std::uint32_t n = kSizes[rng.next_below(3)];
      const auto consumed = static_cast<std::uint32_t>(rng.next_below(n + 1));
      batched.next_batch(batch, n);
      ASSERT_EQ(batch.size, n);
      for (std::uint32_t i = 0; i < consumed; ++i) {
        const auto want = scalar.next();
        ASSERT_EQ(batch.accesses[i].block, want.block)
            << "refill " << refill << " lane " << i;
        ASSERT_EQ(batch.accesses[i].core, want.core) << "refill " << refill << " lane " << i;
        ASSERT_EQ(batch.accesses[i].is_write, want.is_write)
            << "refill " << refill << " lane " << i;
      }
      // A fully consumed batch may stay outstanding: the next refill retires it.
      outstanding = n;
      if (consumed < n || rng.next_bool(0.5)) batched.truncate_batch(consumed);
      if (!batched.batch_outstanding() && refill % 64 == 0) {
        ASSERT_EQ(generator_bytes(batched), generator_bytes(scalar)) << "refill " << refill;
      }
    }
    retire();
    EXPECT_EQ(generator_bytes(batched), generator_bytes(scalar));
    EXPECT_EQ(batched.blocks_allocated(), scalar.blocks_allocated());
  }
}

TEST(GeneratorEquivalence, TruncatedBatchStreamsMatchPinnedDigests) {
  // Pins, for every SPEC model at max_depth 128 (ring capacity equals the
  // depth, as in production) and 48 (capacity 64, dead slots), the digest
  // of 20,000 blocks drawn through next_batch() with truncate_batch() at
  // seeded random cuts, and the digest of the save_state() bytes after
  // them. A ring storage change must keep the stream, the rewinds and the
  // snapshot format exactly. With 32 sets the cold-heavy models fill their
  // rings, so fresh inserts into full sets and their undo run at both depths.
  struct Pin {
    std::uint64_t stream;
    std::uint64_t state;
  };
  constexpr std::uint32_t kBlocks = 20'000;
  const auto& suite = trace::spec2000_suite();
  const auto digests = [](const trace::WorkloadModel& model, WayCount depth) {
    trace::GeneratorConfig config;
    config.num_sets = 32;
    config.max_depth = depth;
    config.core = 5;
    trace::SyntheticTraceGenerator generator(model, config, 2009);
    common::Rng cuts(0xC075 + depth);
    trace::AccessBatch batch;
    std::vector<std::uint8_t> stream;
    snapshot::Writer writer(stream);
    for (std::uint32_t drawn = 0; drawn < kBlocks;) {
      const auto n = static_cast<std::uint32_t>(1 + cuts.next_below(trace::AccessBatch::kMaxSize));
      generator.next_batch(batch, n);
      const auto consumed = std::min(static_cast<std::uint32_t>(cuts.next_below(n + 1)),
                                     kBlocks - drawn);
      for (std::uint32_t i = 0; i < consumed; ++i) writer.u64(batch.accesses[i].block);
      generator.truncate_batch(consumed);
      drawn += consumed;
    }
    return Pin{snapshot::fnv1a(stream), snapshot::fnv1a(generator_bytes(generator))};
  };
  // One row per spec2000_suite() model, in suite order: {stream, state}.
  const std::vector<Pin> pinned128 = {
      {0x88f243f22f4a9592ull, 0x07d45f2ae2a9f590ull},  // ammp
      {0x5675809ee9a558b2ull, 0xe5bd6855cdf9a539ull},  // applu
      {0x1320a2a2f0233f72ull, 0xa4aacdf333b9d1e7ull},  // apsi
      {0xea10e445df4931d2ull, 0xe145cb88e5000001ull},  // art
      {0x910b7a1c44cf96b2ull, 0x1a72f61814a5e99cull},  // bzip2
      {0xdf3cff6e1a3f16f2ull, 0xa64fe829d6473b22ull},  // crafty
      {0xff94f06b972468f2ull, 0x5ff158c597096bb6ull},  // eon
      {0x0aceb91c91a48cd2ull, 0xe12021abfaac40f3ull},  // equake
      {0x320c2314a10543d2ull, 0x1ec60b89a1e5befcull},  // facerec
      {0x8911510111306592ull, 0xf07f3766724a3646ull},  // fma3d
      {0xb6e36841a754ec12ull, 0x89b1d21c3cd5f283ull},  // galgel
      {0x8d56dc8f6d599972ull, 0x9452f90012c9f693ull},  // gap
      {0x23ba7b7ee8cee8b2ull, 0x3a50fc490f6ec22bull},  // gcc
      {0xa11ba108ff876832ull, 0x050d639b48bd11b5ull},  // gzip
      {0x9c902c676280a072ull, 0xab72464a842835ddull},  // lucas
      {0x53d1d38fe78f3e72ull, 0x522446a6db89f89full},  // mcf
      {0x4ad2b03127a0eef2ull, 0xb0e3d2a4a4f351e9ull},  // mesa
      {0x49d0f11c20974a72ull, 0x4a0514a687ac93faull},  // mgrid
      {0x0a893e31cb4670b2ull, 0x3adbfea842869e0bull},  // parser
      {0xa333cbab08d1fa32ull, 0x86d2da74eaf1f45cull},  // perlbmk
      {0xe1e6f21b4a768b52ull, 0x04b57c0ca1c62249ull},  // sixtrack
      {0x62943b9a118105f2ull, 0x6f18f7b9e65f6b9aull},  // swim
      {0x8fc60ce54224d7f2ull, 0xfacd827fed984472ull},  // twolf
      {0x25b7aaff54a31f72ull, 0xc4cae404ae76cc01ull},  // vortex
      {0xa3aa4585bfe817f2ull, 0xabbd38ffb239ff12ull},  // vpr
      {0xb874a838e3495672ull, 0x99b7ea16d27d9937ull},  // wupwise
  };
  const std::vector<Pin> pinned48 = {
      {0x5b48556dff570d46ull, 0x7fcef5c9d6d4a3a4ull},  // ammp
      {0xe1f8b9615ff90646ull, 0x1411fd2283fd618cull},  // applu
      {0x9fb2bac994380c46ull, 0x28525facdf972ef2ull},  // apsi
      {0x0c2e7298d66e52e6ull, 0x4db3b7c2e24aef2aull},  // art
      {0xc9b131f10ae2b5c6ull, 0x0becf8095ec952e3ull},  // bzip2
      {0xa2d9daa50a6645e6ull, 0x9444d308e8b3c17eull},  // crafty
      {0x05c5ed5f6a36bee6ull, 0x43dec37449eb517cull},  // eon
      {0x04a1803317d97446ull, 0x7acdc25929517833ull},  // equake
      {0x49a0c38538744f86ull, 0xfea41bacb3dfcc33ull},  // facerec
      {0xe1b59a1b879638a6ull, 0xe8c5f4317357b225ull},  // fma3d
      {0xe6e2420aece50bc6ull, 0x2a23aaabe8da35cdull},  // galgel
      {0x29485481605b3f86ull, 0xce313357ce28043bull},  // gap
      {0x4be34cbf44e8aa46ull, 0x0351e5ea3ac141d0ull},  // gcc
      {0x62a4c2fc89cef606ull, 0xbb32a13aa08e0a03ull},  // gzip
      {0x9458bf75c38d7e66ull, 0x862895120912ea2aull},  // lucas
      {0x5e132e0f06219f06ull, 0x7a33a3fddd4d7b12ull},  // mcf
      {0xf4764921b0f84ea6ull, 0x644194dc1f90d4b9ull},  // mesa
      {0xbd05f0514e3fdae6ull, 0x4c2e3f77020a9225ull},  // mgrid
      {0x9a3c236a04527ae6ull, 0x631cc7a79752dfcdull},  // parser
      {0xb35da4558fc6c546ull, 0xaf184ba657c23c03ull},  // perlbmk
      {0x7348c2fe8d8c9c46ull, 0x72b6605bdacdd65bull},  // sixtrack
      {0x2b23f5c6d3ae8ca6ull, 0xf6bb8460f7ee8d35ull},  // swim
      {0xb2d78a015962ca46ull, 0xd32d9b20b9033af7ull},  // twolf
      {0x4bf5c30a51c4f226ull, 0x4b79a220393871cdull},  // vortex
      {0x771919c351e6bb86ull, 0x381be799d6f43293ull},  // vpr
      {0xfb3f375724f205e6ull, 0xd83f55bf9823dd5cull},  // wupwise
  };
  for (const auto& [depth, pinned] :
       {std::pair{WayCount{128}, &pinned128}, std::pair{WayCount{48}, &pinned48}}) {
    ASSERT_EQ(pinned->size(), suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const Pin got = digests(suite[i], depth);
      EXPECT_EQ(got.stream, (*pinned)[i].stream) << suite[i].name << " depth " << depth;
      EXPECT_EQ(got.state, (*pinned)[i].state) << suite[i].name << " depth " << depth;
    }
  }
}

// ---------------------------------------------------------------------------
// Reference core timer: multiset-ordered window (the original
// priority-queue formulation's semantics) vs. the in-place heap scans.
// ---------------------------------------------------------------------------

class RefCoreTimer {
 public:
  explicit RefCoreTimer(const core::CoreTimerConfig& config)
      : config_(config), rng_(config.seed, config.core) {}

  double peek_issue() {
    double t = time_ + next_gap();
    if (window_.size() >= config_.mlp_window) {
      // Ascending walk over completion times: the first `mlp_window`-th
      // entry still in flight at t is the earliest the issue can happen.
      std::uint32_t in_flight = 0;
      for (const double done_at : done_ats_) {
        if (done_at > t) {
          ++in_flight;
          if (in_flight >= config_.mlp_window) {
            // earliest done_at > t is the first one seen in sorted order
            t = *done_ats_.upper_bound(t);
            break;
          }
        }
      }
    }
    const double next_instr = instructions_ + config_.instructions_per_l2_access;
    for (const auto& entry : window_) {
      if (next_instr - entry.issued_at > static_cast<double>(config_.rob_entries)) {
        t = std::max(t, entry.done_at);
      }
    }
    return static_cast<double>(static_cast<Cycle>(t));
  }

  double advance_to_issue() {
    const double issue = peek_issue();
    pending_gap_ = -1.0;
    time_ = issue;
    instructions_ += config_.instructions_per_l2_access;
    while (!done_ats_.empty() && *done_ats_.begin() <= time_) {
      remove_earliest();
    }
    return issue;
  }

  void record_completion(double done_at) {
    window_.push_back({done_at, instructions_});
    done_ats_.insert(done_at);
    while (window_.size() > config_.mlp_window) {
      time_ = std::max(time_, *done_ats_.begin());
      remove_earliest();
    }
  }

  void drain() {
    if (!done_ats_.empty()) time_ = std::max(time_, *done_ats_.rbegin());
    window_.clear();
    done_ats_.clear();
  }

  double time() const { return time_; }
  double instructions() const { return instructions_; }

 private:
  struct Entry {
    double done_at = 0.0;
    double issued_at = 0.0;
  };

  double next_gap() {
    if (pending_gap_ < 0.0) {
      const double jitter = 1.0 + config_.gap_jitter * (2.0 * rng_.next_double() - 1.0);
      pending_gap_ = config_.instructions_per_l2_access * config_.base_cpi * jitter;
    }
    return pending_gap_;
  }

  void remove_earliest() {
    const double earliest = *done_ats_.begin();
    done_ats_.erase(done_ats_.begin());
    for (auto it = window_.begin(); it != window_.end(); ++it) {
      if (it->done_at == earliest) {
        window_.erase(it);
        break;
      }
    }
  }

  core::CoreTimerConfig config_;
  common::Rng rng_;
  double time_ = 0.0;
  double instructions_ = 0.0;
  double pending_gap_ = -1.0;
  std::vector<Entry> window_;
  std::multiset<double> done_ats_;
};

TEST(CoreTimerEquivalence, HeapMatchesOrderedWindow) {
  core::CoreTimerConfig config;
  config.base_cpi = 0.7;
  config.instructions_per_l2_access = 40.0;
  config.mlp_window = 4;
  config.rob_entries = 128;
  config.gap_jitter = 0.5;
  config.seed = 99;
  config.core = 1;
  core::CoreTimer real(config);
  RefCoreTimer ref(config);
  common::Rng latencies(0x1A7E);
  for (std::size_t i = 0; i < 100'000; ++i) {
    const Cycle issue = real.peek_issue();
    real.advance_to_issue(issue);
    const double ref_issue = ref.advance_to_issue();
    ASSERT_EQ(issue, static_cast<Cycle>(ref_issue)) << "step " << i;
    ASSERT_EQ(real.time(), static_cast<Cycle>(ref.time())) << "step " << i;
    ASSERT_EQ(real.instructions(), ref.instructions()) << "step " << i;
    const Cycle done_at = issue + 20 + latencies.next_below(400);
    real.record_completion(done_at);
    ref.record_completion(static_cast<double>(done_at));
    if (i % 10'000 == 9'999) {
      real.drain();
      ref.drain();
      ASSERT_EQ(real.time(), static_cast<Cycle>(ref.time())) << "step " << i;
    }
  }
  real.drain();
  ref.drain();
  ASSERT_EQ(real.time(), static_cast<Cycle>(ref.time()));
  ASSERT_EQ(real.instructions(), ref.instructions());
}

// ---------------------------------------------------------------------------
// DNUCA residency lookups vs. brute-force bank probes.
// ---------------------------------------------------------------------------

void check_residency_index(nuca::AggregationKind kind, std::uint64_t seed,
                           std::uint32_t num_banks = 8, WayCount ways_per_bank = 4) {
  nuca::DnucaConfig config;
  config.geometry.num_cores = 4;
  config.geometry.num_banks = num_banks;
  config.geometry.ways_per_bank = ways_per_bank;
  config.sets_per_bank = 16;
  config.aggregation = kind;
  noc::NocConfig noc_config;
  noc_config.num_cores = 4;
  noc_config.num_banks = num_banks;
  noc::Noc noc(noc_config);
  nuca::DnucaCache cache(config, noc);
  // SharedDnuca homes lines by hash over the whole structure, so every core
  // must own ways in every bank: it runs over the unpartitioned pool.
  cache.apply_assignment(kind == nuca::AggregationKind::SharedDnuca
                             ? partition::no_partition(config.geometry).assignment
                             : partition::equal_partition(config.geometry).assignment);

  common::Rng rng(seed);
  std::vector<BlockAddress> pool;
  for (std::size_t i = 0; i < 100'000; ++i) {
    BlockAddress block;
    if (!pool.empty() && rng.next_bool(0.7)) {
      block = pool[rng.next_below(pool.size())];
    } else {
      block = rng.next_u64() & 0xFFFF;
      pool.push_back(block);
    }
    const CoreId core = static_cast<CoreId>(rng.next_below(4));
    cache.access(block, core, rng.next_bool(0.3), static_cast<Cycle>(i));
    if (i % 1000 == 999) {
      // The residency lookup must agree with a brute-force scan over every
      // bank for every block ever touched, and blocks must never be
      // resident in two banks at once (the single-residency invariant).
      for (const BlockAddress probe : pool) {
        BankId found = kInvalidBank;
        std::uint32_t copies = 0;
        for (BankId bank = 0; bank < config.geometry.num_banks; ++bank) {
          if (cache.bank(bank).probe(probe)) {
            found = bank;
            ++copies;
          }
        }
        ASSERT_LE(copies, 1u) << "block " << probe << " resident in two banks";
        ASSERT_EQ(cache.bank_of(probe), found) << "block " << probe;
        ASSERT_EQ(cache.resident(probe), copies == 1) << "block " << probe;
      }
      // Brute-force probes check presence; the structural audit checks the
      // exact {bank, way} coordinates, view tables and per-bank internals.
      const auto report = audit::audit_nuca(cache);
      ASSERT_TRUE(report.ok()) << "op " << i << ": " << report.to_string();
    }
  }
}

TEST(DnucaEquivalence, ResidencyIndexMatchesBruteForceProbesParallel) {
  check_residency_index(nuca::AggregationKind::Parallel, 0xD0CA);
}

TEST(DnucaEquivalence, ResidencyIndexMatchesBruteForceProbesCascade) {
  // Cascade demotes down bank chains and swaps on promotion — the paths
  // that rewrite residency {bank, way} pairs most aggressively.
  check_residency_index(nuca::AggregationKind::Cascade, 0xCA5C);
}

TEST(DnucaEquivalence, ResidencyIndexMatchesBruteForceProbesAddressHash) {
  check_residency_index(nuca::AggregationKind::AddressHash, 0xADD4);
}

TEST(DnucaEquivalence, ResidencyIndexMatchesBruteForceProbesTwoLevelCascade) {
  // Head swaps: a hit outside the head trades places with the head's victim.
  check_residency_index(nuca::AggregationKind::TwoLevelCascade, 0x2CA5);
}

TEST(DnucaEquivalence, ResidencyIndexMatchesBruteForceProbesSharedDnuca) {
  // Gradual migration: every hit outside the nearest bank swaps the line
  // one bank closer, displacing that bank's victim into the hole.
  check_residency_index(nuca::AggregationKind::SharedDnuca, 0x5DCA);
}

TEST(DnucaEquivalence, ResidencyIndexMatchesBruteForceProbesPaddedRows) {
  // 5 banks x 3 ways = 15 slots per set: each row ends in a padding slot
  // that no lookup may match and the audit requires to stay empty.
  check_residency_index(nuca::AggregationKind::SharedDnuca, 0x9AD5, 5, 3);
}

}  // namespace
}  // namespace bacp

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include <malloc.h>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "suite.hpp"

namespace bacp::suite {

std::int64_t now_ns() {
  // NOLINTNEXTLINE(bacp-det-wallclock): the benchmark measures host time by design; readings never feed simulated state
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const char byte : bytes) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

std::uint64_t fold_bits(std::uint64_t hash, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  for (unsigned shift = 0; shift < 64; shift += 8) {
    hash ^= (bits >> shift) & 0xFFu;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

double Samples::percentile(double p) const {
  return values_.empty() ? 0.0 : common::percentile(values_, p);
}

// --- Tracer ----------------------------------------------------------------

Tracer::Span::Span(Tracer& tracer, NameId name, std::uint64_t op)
    : tracer_(tracer.enabled_ ? &tracer : nullptr) {
  if (tracer_ != nullptr) tracer_->open(name, op);
}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->close();
}

Tracer::NameId Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<NameId>(i);
  }
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<NameId>(names_.size() - 1);
}

void Tracer::set_enabled(bool enabled) {
  BACP_ASSERT(open_.empty(), "tracer toggled with spans open");
  if (enabled == enabled_) return;
  const std::int64_t now = now_ns();
  if (enabled) {
    // Reserve before the first span so recording allocates nothing while
    // the traced code runs.
    records_.reserve(kMaxRecords);
    open_.reserve(64);
    enabled_since_ns_ = now;
  } else {
    enabled_ns_ += now - enabled_since_ns_;
  }
  enabled_ = enabled;
}

void Tracer::open(NameId name, std::uint64_t op) {
  // Whole trees are kept or dropped together, so every recorded span's
  // parent is recorded too.
  if (open_.empty()) recording_tree_ = records_.size() < kMaxRecords;
  if (!recording_tree_) ++dropped_;
  const std::uint64_t parent = open_.empty() ? 0 : open_.back().id;
  open_.push_back({name, next_id_++, parent, op, now_ns(), 0});
}

void Tracer::close() {
  const std::int64_t end = now_ns();
  const Open span = open_.back();
  open_.pop_back();
  const std::int64_t duration = end - span.start_ns;
  const std::int64_t self = duration - span.child_ns;
  Totals& totals = totals_[span.name];
  ++totals.calls;
  totals.total_ns += duration;
  if (open_.empty()) {
    layer_ns_ += span.child_ns;
  } else {
    open_.back().child_ns += duration;
  }
  if (recording_tree_) {
    records_.push_back(
        {span.name, span.id, span.parent, span.op, span.start_ns, duration, self});
  }
}

double Tracer::mean_seconds(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] != name || totals_[i].calls == 0) continue;
    return static_cast<double>(totals_[i].total_ns) * 1e-9 /
           static_cast<double>(totals_[i].calls);
  }
  return 0.0;
}

double Tracer::coverage() const {
  return enabled_ns_ == 0 ? 0.0
                          : static_cast<double>(layer_ns_) / static_cast<double>(enabled_ns_);
}

obs::Json Tracer::to_chrome_json() const {
  BACP_ASSERT(open_.empty(), "trace written with spans open");
  obs::Json events = obs::Json::array();
  for (const Record& record : records_) {
    const std::string& name = names_[record.name];
    obs::Json args = obs::Json::object();
    args.set("id", record.id)
        .set("parent", record.parent)
        .set("op", record.op)
        .set("self_us", static_cast<double>(record.self_ns) * 1e-3);
    obs::Json event = obs::Json::object();
    event.set("name", name)
        .set("cat", name.substr(0, name.find('.')))
        .set("ph", "X")
        .set("ts", static_cast<double>(record.start_ns - origin_ns_) * 1e-3)
        .set("dur", static_cast<double>(record.duration_ns) * 1e-3)
        .set("pid", 1)
        .set("tid", 1)
        .set("args", std::move(args));
    events.push_back(std::move(event));
  }
  obs::Json other = obs::Json::object();
  other.set("spans_recorded", std::uint64_t{records_.size()})
      .set("spans_dropped", dropped_)
      .set("coverage", coverage());
  obs::Json trace = obs::Json::object();
  trace.set("traceEvents", std::move(events))
      .set("displayTimeUnit", "ms")
      .set("otherData", std::move(other));
  return trace;
}

obs::Json read_json_file(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot read " + path;
    return {};
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string parse_error;
  obs::Json json = obs::Json::parse(text.str(), &parse_error);
  if (json.is_null()) *error = path + ": " + parse_error;
  return json;
}

std::vector<std::string> verify_trace(const std::string& path) {
  // Times are written in microseconds from integer nanoseconds; allow for
  // the rounding of the conversion.
  constexpr double kTolUs = 1e-2;
  std::vector<std::string> problems;
  std::string error;
  const obs::Json trace = read_json_file(path, &error);
  const obs::Json* events = trace.find("traceEvents");
  if (events == nullptr || events->kind() != obs::Json::Kind::Array) {
    problems.push_back(error.empty() ? path + ": no traceEvents array" : error);
    return problems;
  }
  struct Node {
    double ts = 0.0;
    double dur = 0.0;
    double self = 0.0;
    std::uint64_t parent = 0;
    double children = 0.0;
  };
  std::map<std::uint64_t, Node> nodes;
  const auto note = [&](const std::string& text) {
    if (problems.size() < 20) problems.push_back(text);
  };
  for (std::size_t i = 0; i < events->size(); ++i) {
    const obs::Json& event = events->at(i);
    const obs::Json* ph = event.find("ph");
    const obs::Json* args = event.find("args");
    const obs::Json* ts = event.find("ts");
    const obs::Json* dur = event.find("dur");
    if (ph == nullptr || ph->kind() != obs::Json::Kind::String || ph->as_string() != "X" ||
        args == nullptr || ts == nullptr || dur == nullptr || !ts->is_number() ||
        !dur->is_number() || args->find("id") == nullptr ||
        args->find("parent") == nullptr || args->find("self_us") == nullptr) {
      note("event " + std::to_string(i) + " is not a complete span");
      continue;
    }
    const std::uint64_t id = args->at("id").as_uint();
    Node node{ts->as_double(), dur->as_double(), args->at("self_us").as_double(),
              args->at("parent").as_uint(), 0.0};
    if (id == 0 || !nodes.emplace(id, node).second) {
      note("span id " + std::to_string(id) + " is zero or repeated");
    }
    if (node.dur < 0.0) note("span " + std::to_string(id) + " has a negative duration");
    if (node.self < -kTolUs) note("span " + std::to_string(id) + " has negative self time");
  }
  for (const auto& [id, node] : nodes) {
    if (node.parent == 0) continue;
    const auto parent = nodes.find(node.parent);
    if (parent == nodes.end()) {
      note("span " + std::to_string(id) + " has no parent span " +
           std::to_string(node.parent));
      continue;
    }
    if (node.ts < parent->second.ts - kTolUs ||
        node.ts + node.dur > parent->second.ts + parent->second.dur + kTolUs) {
      note("span " + std::to_string(id) + " lies outside its parent");
    }
    parent->second.children += node.dur;
  }
  for (const auto& [id, node] : nodes) {
    if (node.children > node.dur + kTolUs) {
      note("children of span " + std::to_string(id) + " exceed it");
    }
    if (std::abs(node.dur - node.children - node.self) > kTolUs * 10) {
      note("self time of span " + std::to_string(id) + " disagrees with its children");
    }
  }
  if (nodes.empty()) note(path + ": no spans");
  return problems;
}

// --- Measurement -----------------------------------------------------------

namespace {

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Returns the heap's free pages to the OS (glibc's malloc_trim), so every
/// set-up repetition and the timed loop start from the heap of a fresh
/// process: a user runs one sweep per process, and an earlier
/// repetition's retained buffers would otherwise add a run-dependent
/// amount (up to 40% on mc_sampled) to peak RSS.
void release_free_heap() { malloc_trim(0); }

}  // namespace

Measurement::Measurement(const RunOptions& options, Tracer& tracer, Outcome& outcome)
    : options_(options), tracer_(tracer), outcome_(outcome) {}

void Measurement::setup(const std::function<void()>& teardown,
                        const std::function<void()>& body) {
  Samples seconds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    teardown();
    release_free_heap();
    tracer_.set_enabled(options_.trace);
    const std::int64_t start = now_ns();
    body();
    seconds.add(seconds_between(start, now_ns()));
    tracer_.set_enabled(false);
  }
  if (!options_.trace) outcome_.metrics["setup_s"] = seconds.median();
}

void Measurement::loop(std::size_t min_passes,
                       const std::function<double(std::size_t)>& pass) {
  Samples seconds_per_work[2];  // [untraced, traced]
  Samples rates;
  release_free_heap();
  const std::int64_t start = now_ns();
  std::size_t index = 0;
  // Traced runs interleave one untraced baseline pass before every two
  // traced ones, so host drift hits both sides of the overhead ratio alike.
  const auto traced_pass = [&](std::size_t i) { return options_.trace && i % 3 != 0; };
  const std::size_t min_total = options_.trace ? std::max<std::size_t>(3, min_passes * 3 / 2)
                                               : min_passes;
  for (; index < min_total || seconds_between(start, now_ns()) < options_.seconds; ++index) {
    const bool traced = traced_pass(index);
    tracer_.set_enabled(traced);
    const std::int64_t pass_start = now_ns();
    const double work = pass(index);
    const double seconds = seconds_between(pass_start, now_ns());
    tracer_.set_enabled(false);
    BACP_ASSERT(work > 0.0, "a pass completed no work");
    seconds_per_work[traced ? 1 : 0].add(seconds / work);
    if (!traced) rates.add(work / seconds);
  }
  if (options_.trace) {
    outcome_.metrics["tracing.overhead_ratio"] =
        seconds_per_work[1].median() / seconds_per_work[0].median();
    outcome_.metrics["tracing.coverage"] = tracer_.coverage();
  } else {
    // The upper decile of the pass rates: the rate the code sustains while
    // the shared host leaves it alone. Over ten runs on a shared 4-vCPU VM,
    // host interference spread the per-run median rate by 7-32% (quartile
    // distance over median) and the upper decile by 5-16%.
    outcome_.metrics["throughput"] = rates.percentile(90.0);
    outcome_.median_rate = rates.median();
  }
  outcome_.passes = index;
}

}  // namespace bacp::suite

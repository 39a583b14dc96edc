#include "mem/dram.hpp"

#include <algorithm>

#include "snapshot/codec.hpp"

namespace bacp::mem {

Cycle Dram::claim_channel(Cycle now) {
  const Cycle start = std::max(now, channel_free_at_);
  stats_.total_channel_wait += start - now;
  channel_free_at_ = start + config_.cycles_per_line;
  return start;
}

Cycle Dram::read(Cycle now) {
  ++stats_.demand_reads;
  const Cycle start = claim_channel(now);
  return start + config_.access_latency;
}

void Dram::writeback(Cycle now) {
  ++stats_.writebacks;
  claim_channel(now);
}

void Dram::save_state(snapshot::Writer& writer) const { writer.u64(channel_free_at_); }

void Dram::restore_state(snapshot::Reader& reader) { channel_free_at_ = reader.u64(); }

}  // namespace bacp::mem

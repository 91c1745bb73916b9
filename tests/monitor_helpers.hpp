// Test helpers over StreamingBeatMonitor's one ingest path: push_block of
// integer ADC codes, with every pending beat classified in place.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "core/streaming.hpp"

namespace hbrp::test_support {

/// A sink that classifies each pending beat with `monitor` and appends it
/// to `out`.
inline core::PendingBeatSink classify_into(
    core::StreamingBeatMonitor& monitor, std::vector<core::MonitorBeat>& out) {
  return [&monitor, &out](const core::PendingBeat& pb) {
    out.push_back(monitor.classify(pb));
  };
}

/// Feeds `codes` in blocks of `block` samples, then flushes; returns every
/// beat in report order.
inline std::vector<core::MonitorBeat> run_blocks(
    core::StreamingBeatMonitor& monitor, std::span<const dsp::Sample> codes,
    std::size_t block = 1024) {
  std::vector<core::MonitorBeat> beats;
  const core::PendingBeatSink sink = classify_into(monitor, beats);
  for (std::size_t i = 0; i < codes.size(); i += block)
    monitor.push_block(codes.subspan(i, std::min(block, codes.size() - i)),
                       sink);
  monitor.flush(sink);
  return beats;
}

}  // namespace hbrp::test_support

// Replay leg of a traced run: one workload's own codes through each layer's
// public calls, timed from outside, for the per-layer ledger.
//
//   kernels  BlockConditioner::push_block over 1 s blocks, then
//            detect_r_peaks_kind over consecutive non-overlapping analysis
//            chunks of the conditioned signal (no rescan overlap);
//   core     StreamingBeatMonitor::push_block with a PendingBeatSink that
//            copies each window out — the conditioning and detection above
//            plus the rolling buffer, rescans and SQI gating. The remainder
//            after subtracting the two kernels is reported as unattributed;
//   embedded classify_batch over the monitor's windows, 256 per call;
//   drift    DriftTracker::observe over those beats' projections;
//   net      SAMPLE_CHUNK encode + framing, FrameParser + decode (checked to
//            round-trip), and crc32 over the framed bytes;
//   lifecycle encode_bundle / decode_bundle of the deployed model.
#include <algorithm>
#include <cstdio>

#include "core/batch.hpp"
#include "core/streaming.hpp"
#include "harness.hpp"
#include "kernels/dsp_condition.hpp"
#include "kernels/dsp_peaks.hpp"
#include "lifecycle/bundle.hpp"
#include "math/crc32.hpp"
#include "net/wire.hpp"

namespace perfbench {

using namespace hbrp;

namespace {

constexpr std::size_t kReplaySamples = 360 * 1800;  // 30 min of signal
constexpr std::size_t kBlock = 360;                  // 1 s pushes
constexpr std::size_t kClassifyBatch = 256;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

}  // namespace

void replay_layers(const Model& model,
                   std::span<const std::vector<dsp::Sample>> codes,
                   Result& out) {
  const core::MonitorConfig mc;
  const std::size_t per_record = kReplaySamples / codes.size();
  double cond_ns = 0, peaks_ns = 0, mon_ns = 0, cls_ns = 0, drift_ns = 0,
         enc_ns = 0, parse_ns = 0, crc_ns = 0;
  std::uint64_t samples = 0, beats = 0, crc_bytes = 0;
  bool wire_ok = true;

  for (const auto& record : codes) {
    const std::span<const dsp::Sample> xs(
        record.data(), std::min(per_record, record.size()));
    samples += xs.size();

    // kernels: conditioning, then detection over analysis chunks.
    kernels::BlockConditioner cond(mc.filter);
    dsp::Signal conditioned;
    conditioned.reserve(xs.size());
    auto t0 = Clock::now();
    for (std::size_t off = 0; off < xs.size(); off += kBlock)
      cond.push_block(xs.subspan(off, std::min(kBlock, xs.size() - off)),
                      conditioned);
    cond.flush_tail(conditioned);
    cond_ns += ns_since(t0);
    const auto chunk =
        static_cast<std::size_t>(mc.chunk_s * mc.peak.fs_hz);
    std::vector<dsp::Signal> chunks;
    for (std::size_t off = 0; off + chunk <= conditioned.size(); off += chunk)
      chunks.emplace_back(conditioned.begin() + static_cast<std::ptrdiff_t>(off),
                          conditioned.begin() +
                              static_cast<std::ptrdiff_t>(off + chunk));
    kernels::PeakScratch pscratch;
    std::vector<std::size_t> peaks;
    t0 = Clock::now();
    for (const dsp::Signal& c : chunks)
      kernels::detect_r_peaks_kind(c, mc.peak, pscratch, peaks);
    // Chunks cover all but the last partial chunk; scale to the record.
    peaks_ns += ns_since(t0) * static_cast<double>(conditioned.size()) /
                static_cast<double>(std::max<std::size_t>(1, chunks.size() * chunk));

    // core: the monitor in deferred-classification mode.
    core::StreamingBeatMonitor monitor(model.classifier, mc);
    core::BeatBatch batch(mc.window_before + mc.window_after);
    const core::PendingBeatSink sink = [&batch](const core::PendingBeat& pb) {
      if (pb.needs_classification) batch.append(pb.window, pb.beat.predicted);
    };
    t0 = Clock::now();
    for (std::size_t off = 0; off < xs.size(); off += kBlock)
      monitor.push_block(xs.subspan(off, std::min(kBlock, xs.size() - off)),
                         sink);
    monitor.flush(sink);
    mon_ns += ns_since(t0);

    // embedded + drift over the monitor's windows.
    embedded::ClassifyScratch scratch;
    drift::DriftTracker tracker(*model.centroids);
    std::vector<ecg::BeatClass> classes(kClassifyBatch);
    const std::size_t wl = batch.window_length();
    for (std::size_t b = 0; b < batch.size(); b += kClassifyBatch) {
      const std::size_t n = std::min(kClassifyBatch, batch.size() - b);
      t0 = Clock::now();
      model.classifier.classify_batch(batch.windows().subspan(b * wl, n * wl),
                                      n, std::span(classes).first(n), scratch);
      cls_ns += ns_since(t0);
      const std::size_t k = scratch.u.size() / std::max<std::size_t>(1, n);
      t0 = Clock::now();
      for (std::size_t j = 0; j < n; ++j)
        tracker.observe(std::span<const std::int32_t>(scratch.u.data() + j * k, k),
                        classes[j] == ecg::BeatClass::N);
      drift_ns += ns_since(t0);
    }
    beats += batch.size();

    // net: framing + CRC, then parse + decode, checked to round-trip.
    std::vector<unsigned char> wire;
    wire.reserve(xs.size() * sizeof(dsp::Sample) +
                 (xs.size() / 512 + 1) * (net::kHeaderBytes + 8));
    t0 = Clock::now();
    std::uint64_t seq = 0;
    for (std::size_t off = 0; off < xs.size(); off += 512) {
      const auto payload = net::encode_sample_chunk(
          xs.subspan(off, std::min<std::size_t>(512, xs.size() - off)));
      net::append_frame(wire, net::FrameType::SampleChunk, seq++, payload);
    }
    enc_ns += ns_since(t0);
    net::FrameParser parser;
    std::vector<dsp::Sample> decoded;
    decoded.reserve(xs.size());
    t0 = Clock::now();
    for (std::size_t off = 0; off < wire.size(); off += 16384) {
      parser.feed(std::span<const unsigned char>(wire).subspan(
          off, std::min<std::size_t>(16384, wire.size() - off)));
      net::FrameView f;
      while (parser.next(f) == net::FrameParser::Status::Ok)
        wire_ok &= net::decode_sample_chunk(f.payload, decoded);
    }
    parse_ns += ns_since(t0);
    wire_ok &= !parser.corrupt() &&
               std::equal(decoded.begin(), decoded.end(), xs.begin(), xs.end());
    t0 = Clock::now();
    std::uint32_t crc = 0;  // chained, so no pass can be skipped
    for (int rep = 0; rep < 4; ++rep)
      crc = math::crc32(wire.data(), wire.size(), crc);
    crc_ns += ns_since(t0);
    crc_bytes += 4 * wire.size();
  }
  if (!wire_ok) out.fail("replay leg: SAMPLE_CHUNK frames did not round-trip");

  // lifecycle: bundle image encode/decode of the deployed model.
  const lifecycle::ModelBundle bundle{2, model.trained, *model.centroids, -1.0};
  std::vector<double> enc_us, dec_us;
  bool bundle_ok = true;
  for (int rep = 0; rep < 15; ++rep) {
    auto t0 = Clock::now();
    const auto image = lifecycle::encode_bundle(bundle);
    enc_us.push_back(ns_since(t0) / 1e3);
    t0 = Clock::now();
    const lifecycle::ModelBundle back = lifecycle::decode_bundle(image);
    dec_us.push_back(ns_since(t0) / 1e3);
    bundle_ok &= back.version == bundle.version &&
                 lifecycle::bundle_digest(lifecycle::encode_bundle(back)) ==
                     lifecycle::bundle_digest(image);
  }
  if (!bundle_ok) out.fail("replay leg: bundle image did not round-trip");

  const auto per_sample = [&](double ns) {
    return ns / static_cast<double>(samples);
  };
  std::printf("replay leg: %llu samples, %llu beats classified\n",
              static_cast<unsigned long long>(samples),
              static_cast<unsigned long long>(beats));
  out.layer_metric("kernels.condition_ns_per_sample", per_sample(cond_ns),
                   "ns/sample");
  out.layer_metric("kernels.peaks_ns_per_sample", per_sample(peaks_ns),
                   "ns/sample");
  out.layer_metric("core.monitor_ns_per_sample", per_sample(mon_ns),
                   "ns/sample");
  out.layer_metric("core.monitor_unattributed_ns_per_sample",
                   per_sample(mon_ns - cond_ns - peaks_ns), "ns/sample");
  out.layer_metric("embedded.classify_ns_per_beat",
                   cls_ns / static_cast<double>(beats), "ns/beat");
  out.layer_metric("drift.observe_ns_per_beat",
                   drift_ns / static_cast<double>(beats), "ns/beat");
  out.layer_metric("net.wire.encode_ns_per_sample", per_sample(enc_ns),
                   "ns/sample");
  out.layer_metric("net.wire.parse_ns_per_sample", per_sample(parse_ns),
                   "ns/sample");
  out.layer_metric("math.crc32_ns_per_byte",
                   crc_ns / static_cast<double>(crc_bytes), "ns/byte");
  out.layer_metric("lifecycle.encode_bundle_us", median(enc_us), "us");
  out.layer_metric("lifecycle.decode_bundle_us", median(dec_us), "us");
}

}  // namespace perfbench

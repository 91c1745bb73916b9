// Tests for the streaming beat monitor: agreement with the batch pipeline,
// chunk-boundary behaviour, memory/latency bounds, and a golden digest of
// the verdict stream.
#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "core/pipeline.hpp"
#include "core/streaming.hpp"
#include "core/trainer.hpp"
#include "ecg/dataset.hpp"
#include "ecg/synth.hpp"
#include "math/check.hpp"
#include "math/rng.hpp"
#include "monitor_helpers.hpp"
#include "testing/fault_inject.hpp"

namespace {

using hbrp::core::MonitorBeat;
using hbrp::core::MonitorConfig;
using hbrp::core::StreamingBeatMonitor;
using hbrp::test_support::classify_into;
using hbrp::test_support::run_blocks;

class StreamingMonitorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hbrp::ecg::DatasetBuilderConfig cfg;
    cfg.record_duration_s = 120.0;
    cfg.max_per_record_per_class = 20;
    cfg.seed = 81;
    const auto ts1 = hbrp::ecg::build_dataset({150, 150, 150}, cfg);
    cfg.max_per_record_per_class = 80;
    cfg.seed = 82;
    const auto ts2 = hbrp::ecg::build_dataset({1200, 120, 150}, cfg);
    hbrp::core::TwoStepConfig tcfg;
    tcfg.ga.population = 4;
    tcfg.ga.generations = 2;
    tcfg.seed = 8;
    const hbrp::core::TwoStepTrainer trainer(ts1, ts2, tcfg);
    bundle_ = new hbrp::embedded::EmbeddedClassifier(trainer.run().quantize());
  }
  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
  }

  static std::vector<MonitorBeat> run_monitor(const hbrp::dsp::Signal& lead,
                                              const MonitorConfig& cfg = {}) {
    StreamingBeatMonitor monitor(*bundle_, cfg);
    return run_blocks(monitor, lead);
  }

  static const hbrp::embedded::EmbeddedClassifier* bundle_;
};

const hbrp::embedded::EmbeddedClassifier* StreamingMonitorTest::bundle_ =
    nullptr;

hbrp::ecg::Record monitor_record(std::uint64_t seed, double seconds = 60.0) {
  hbrp::ecg::SynthConfig cfg;
  cfg.profile = hbrp::ecg::RecordProfile::PvcOccasional;
  cfg.duration_s = seconds;
  cfg.num_leads = 1;
  cfg.seed = seed;
  return hbrp::ecg::generate_record(cfg);
}

TEST_F(StreamingMonitorTest, AgreesWithBatchPipeline) {
  const auto rec = monitor_record(1);
  const auto streaming = run_monitor(rec.leads[0]);

  hbrp::core::PipelineConfig pcfg;
  const hbrp::core::RealTimePipeline pipeline(*bundle_, pcfg);
  const auto batch = pipeline.process(rec);

  // Every batch beat away from the record borders must appear in the
  // streaming output with the same classification.
  std::size_t matched = 0, compared = 0;
  for (const auto& b : batch.beats) {
    if (b.r_peak < 1000 || b.r_peak + 1000 > rec.leads[0].size()) continue;
    ++compared;
    for (const auto& s : streaming) {
      if (s.r_peak + 5 >= b.r_peak && s.r_peak <= b.r_peak + 5) {
        if (s.predicted == b.predicted) ++matched;
        break;
      }
    }
  }
  ASSERT_GT(compared, 30u);
  EXPECT_GE(static_cast<double>(matched) / static_cast<double>(compared),
            0.97);
}

TEST_F(StreamingMonitorTest, NoDuplicatesAcrossChunks) {
  const auto rec = monitor_record(2, 90.0);
  const auto beats = run_monitor(rec.leads[0]);
  for (std::size_t i = 1; i < beats.size(); ++i)
    EXPECT_GT(beats[i].r_peak, beats[i - 1].r_peak + 30)
        << "duplicate or out-of-order beat at " << i;
}

TEST_F(StreamingMonitorTest, BeatCountTracksAnnotations) {
  const auto rec = monitor_record(3, 90.0);
  const auto beats = run_monitor(rec.leads[0]);
  EXPECT_GT(beats.size(), rec.beats.size() * 85 / 100);
  EXPECT_LT(beats.size(), rec.beats.size() * 108 / 100);
}

TEST_F(StreamingMonitorTest, MemoryBoundWellUnderIcyHeartRam) {
  const StreamingBeatMonitor monitor(*bundle_);
  // Samples are int32 in this model; even so the whole working set must sit
  // far below the 96 KB of the SoC.
  EXPECT_LT(monitor.memory_samples() * sizeof(hbrp::dsp::Sample),
            48u * 1024u);
}

TEST_F(StreamingMonitorTest, LatencyBounded) {
  const StreamingBeatMonitor monitor(*bundle_);
  // Conditioner delay plus one chunk: ~8.6 s at the default config.
  EXPECT_LT(monitor.latency(), static_cast<std::size_t>(10 * 360));
}

TEST_F(StreamingMonitorTest, ConfigValidation) {
  MonitorConfig cfg;
  cfg.window_before = 10;  // mismatched geometry
  EXPECT_THROW(StreamingBeatMonitor(*bundle_, cfg), hbrp::Error);

  cfg = {};
  cfg.overlap_s = 0.3;  // shorter than a beat window
  EXPECT_THROW(StreamingBeatMonitor(*bundle_, cfg), hbrp::Error);

  cfg = {};
  cfg.chunk_s = 3.0;  // chunk must exceed twice the overlap
  EXPECT_THROW(StreamingBeatMonitor(*bundle_, cfg), hbrp::Error);
}

TEST_F(StreamingMonitorTest, FlushFinalizesTailBeats) {
  // A record shorter than one chunk: nothing is emitted until flush.
  const auto rec = monitor_record(4, 6.0);
  StreamingBeatMonitor monitor(*bundle_);
  std::vector<MonitorBeat> beats;
  const auto sink = classify_into(monitor, beats);
  for (const auto x : rec.leads[0]) monitor.push_block({&x, 1}, sink);
  EXPECT_EQ(beats.size(), 0u);
  monitor.flush(sink);
  EXPECT_GT(beats.size(), 3u);
}

TEST_F(StreamingMonitorTest, FlushOnEmptyMonitorIsSafeAndEmpty) {
  StreamingBeatMonitor monitor(*bundle_);
  std::vector<MonitorBeat> beats;
  const auto sink = classify_into(monitor, beats);
  monitor.flush(sink);
  monitor.flush(sink);  // idempotent
  EXPECT_TRUE(beats.empty());
  // A handful of samples (far less than one beat window) also yields none.
  const std::vector<hbrp::dsp::Sample> few(10, 1024);
  monitor.push_block(few, sink);
  monitor.flush(sink);
  EXPECT_TRUE(beats.empty());
  // And the monitor is still usable afterwards.
  const auto rec = monitor_record(6, 30.0);
  EXPECT_GT(run_blocks(monitor, rec.leads[0], 1).size(), 15u);
}

TEST_F(StreamingMonitorTest, FlushRightAfterChunkSlideLosesNothing) {
  // Feed exactly up to the first chunk scan, flush immediately, and check
  // the combined output against an uninterrupted run of the same prefix:
  // beats straddling the freshly-slid overlap region must be reported
  // exactly once.
  const auto rec = monitor_record(7, 60.0);
  StreamingBeatMonitor probe(*bundle_);

  // Find the sample index at which the first scan fires.
  std::size_t first_scan_end = 0;
  std::vector<MonitorBeat> probed;
  const auto probe_sink = classify_into(probe, probed);
  for (std::size_t i = 0; i < rec.leads[0].size(); ++i) {
    probe.push_block({&rec.leads[0][i], 1}, probe_sink);
    if (!probed.empty()) {
      first_scan_end = i + 1;
      break;
    }
  }
  ASSERT_GT(first_scan_end, 0u) << "record never filled a chunk";

  StreamingBeatMonitor monitor(*bundle_);
  const auto interrupted = run_blocks(
      monitor, std::span(rec.leads[0]).first(first_scan_end), 1);

  // Nothing double-reported across the slide...
  for (std::size_t i = 1; i < interrupted.size(); ++i)
    EXPECT_GT(interrupted[i].r_peak, interrupted[i - 1].r_peak + 30)
        << "duplicate across slide+flush at " << i;
  // ...nothing beyond the data fed...
  for (const auto& b : interrupted) EXPECT_LT(b.r_peak, first_scan_end);
  // ...and nothing lost: every beat the full-record run reports well
  // inside the prefix must also be reported by the interrupted run.
  const auto full = run_monitor(rec.leads[0]);
  std::size_t expected = 0, found = 0;
  for (const auto& b : full) {
    if (b.r_peak + 400 >= first_scan_end) continue;
    ++expected;
    for (const auto& other : interrupted)
      if (other.r_peak + 5 >= b.r_peak && other.r_peak <= b.r_peak + 5) {
        ++found;
        break;
      }
  }
  ASSERT_GT(expected, 5u);
  EXPECT_EQ(found, expected);
}

TEST_F(StreamingMonitorTest, BeatsStraddlingOverlapAgreeAcrossChunkSizes) {
  // Different chunk lengths place the overlap regions at different spots;
  // any beat lost or duplicated at a boundary shows up as a disagreement
  // between the two runs.
  const auto rec = monitor_record(8, 60.0);
  MonitorConfig small_chunks;
  small_chunks.chunk_s = 5.5;
  const auto a = run_monitor(rec.leads[0]);
  const auto b = run_monitor(rec.leads[0], small_chunks);

  EXPECT_LE(a.size() > b.size() ? a.size() - b.size() : b.size() - a.size(),
            1u);
  std::size_t matched = 0;
  for (const auto& beat : a)
    for (const auto& other : b)
      if (other.r_peak + 5 >= beat.r_peak &&
          other.r_peak <= beat.r_peak + 5) {
        matched += other.predicted == beat.predicted;
        break;
      }
  ASSERT_GT(a.size(), 40u);
  EXPECT_GE(matched + 1, a.size());
}

TEST_F(StreamingMonitorTest, StatsCountSanitizedInputs) {
  // Doubles are sanitized before the monitor (dsp::sanitize_sample, tested
  // in test_dsp_quality), so only out-of-range integer codes count as
  // clamped here.
  StreamingBeatMonitor monitor(*bundle_);
  const std::vector<double> raw = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      1e9, -1e9, 1024.0};
  auto codes = hbrp::dsp::sanitize_samples(raw);
  codes.push_back(4000);  // out of range: clamped by the monitor
  std::vector<MonitorBeat> beats;
  const auto sink = classify_into(monitor, beats);
  monitor.push_block(codes, sink);
  const auto& stats = monitor.stats();
  EXPECT_EQ(stats.samples_in, 7u);
  EXPECT_EQ(stats.clamped, 1u);
  // Stats survive flush(); the quality machine resets.
  monitor.flush(sink);
  EXPECT_EQ(monitor.stats().samples_in, 7u);
  EXPECT_EQ(monitor.quality(), hbrp::dsp::SignalQuality::Good);
}

TEST_F(StreamingMonitorTest, ReusableAfterFlush) {
  const auto rec = monitor_record(5, 30.0);
  StreamingBeatMonitor monitor(*bundle_);
  auto run_once = [&]() { return run_blocks(monitor, rec.leads[0]); };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].r_peak, second[i].r_peak);
    EXPECT_EQ(first[i].predicted, second[i].predicted);
  }
}

// --- Golden verdict digest ---------------------------------------------------
// FNV-1a over every (r_peak, class, quality) and the ingest-side stats of
// three clean records and one faulted double stream (NaN/±Inf — from the
// very first sample, so the hold starts at the rail midpoint — Gaussian
// noise with fractional values, lead-off above and below the rails, a flat
// line and an impulse burst that escalates beats to Suspect). The constant
// was recorded before the monitor API was collapsed onto push_block +
// PendingBeatSink, from the then double-accepting monitor; the digest must
// not depend on the block sizes the stream is cut into.

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<hbrp::dsp::Signal> golden_inputs() {
  std::vector<hbrp::dsp::Signal> inputs;
  const hbrp::ecg::RecordProfile profiles[] = {
      hbrp::ecg::RecordProfile::NormalSinus,
      hbrp::ecg::RecordProfile::PvcBigeminy,
      hbrp::ecg::RecordProfile::Lbbb};
  for (std::uint64_t i = 0; i < 3; ++i) {
    hbrp::ecg::SynthConfig cfg;
    cfg.profile = profiles[i];
    cfg.duration_s = 45.0;
    cfg.num_leads = 1;
    cfg.seed = 4101 + i;
    inputs.push_back(hbrp::ecg::generate_record(cfg).leads[0]);
  }
  const auto lead = monitor_record(4104, 90.0).leads[0];
  const std::size_t fs = 360;
  using hbrp::testing::FaultKind;
  hbrp::testing::FaultInjectorConfig fcfg;
  fcfg.seed = 4105;
  fcfg.events = {
      {FaultKind::NonFinite, 0, 40, 0.0, 1.0},
      {FaultKind::GaussianNoise, 5 * fs, 8 * fs, 25.0, 0.0},
      {FaultKind::LeadOff, 20 * fs, 5 * fs, 4000.0, 0.0},  // above the rail
      {FaultKind::LeadOff, 35 * fs, 4 * fs, -600.0, 0.0},  // below the rail
      {FaultKind::NonFinite, 48 * fs, 3 * fs, 0.0, 0.3},
      {FaultKind::LeadOff, 62 * fs, 6 * fs, 1024.0, 0.0},  // flat line
      {FaultKind::ImpulseNoise, 74 * fs, 10 * fs, 900.0, 0.03},  // Suspect
  };
  inputs.push_back(hbrp::dsp::sanitize_samples(
      hbrp::testing::FaultInjector::apply(lead, fcfg)));
  return inputs;
}

TEST_F(StreamingMonitorTest, GoldenVerdictDigest) {
  const auto inputs = golden_inputs();
  hbrp::math::Rng rng(4106);
  // Mode 0 feeds one sample at a time; modes 1 and 2 random blocks of
  // 1..2000 samples.
  for (const int mode : {0, 1, 2}) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto& codes : inputs) {
      StreamingBeatMonitor monitor(*bundle_);
      std::vector<MonitorBeat> beats;
      const auto sink = classify_into(monitor, beats);
      for (std::size_t i = 0; i < codes.size();) {
        const std::size_t n = std::min<std::size_t>(
            mode == 0 ? 1 : static_cast<std::size_t>(rng.uniform_int(1, 2000)),
            codes.size() - i);
        monitor.push_block(std::span(codes).subspan(i, n), sink);
        i += n;
      }
      monitor.flush(sink);
      for (const auto& b : beats) {
        h = fnv1a(h, b.r_peak);
        h = fnv1a(h, static_cast<std::uint64_t>(b.predicted));
        h = fnv1a(h, static_cast<std::uint64_t>(b.quality));
      }
      const auto& st = monitor.stats();
      for (const std::size_t v : {st.samples_in, st.bad_signal_samples,
                                  st.suspect_beats, st.degradations,
                                  st.recoveries})
        h = fnv1a(h, v);
    }
    EXPECT_EQ(h, 0xaee0fd0e74d209a3ull)
        << "mode " << mode << " digest 0x" << std::hex << h;
  }
}

// The conditioner's kernel scratch and window and the detector's scratch are
// per-thread workspace shared by every monitor on the thread. Two monitors
// with different records, detectors and chunk lengths, fed interleaved
// random blocks on one thread, must each report exactly what they report
// when run alone.
TEST_F(StreamingMonitorTest, SharedScratchHoldsNoStateAcrossMonitors) {
  const auto faulted = golden_inputs().back();  // wavelet, with transitions
  const auto clean = monitor_record(4107, 75.0).leads[0];
  MonitorConfig wavelet_cfg;
  MonitorConfig adaptive_cfg;
  adaptive_cfg.peak.kind = hbrp::dsp::PeakDetectorKind::AdaptiveThreshold;
  adaptive_cfg.chunk_s = 5.5;

  using Sig = std::tuple<std::size_t, hbrp::ecg::BeatClass,
                         hbrp::dsp::SignalQuality>;
  const auto sigs = [](const std::vector<MonitorBeat>& beats) {
    std::vector<Sig> out;
    for (const auto& b : beats)
      out.emplace_back(b.r_peak, b.predicted, b.quality);
    return out;
  };
  StreamingBeatMonitor alone_a(*bundle_, wavelet_cfg);
  StreamingBeatMonitor alone_b(*bundle_, adaptive_cfg);
  const auto expect_a = sigs(run_blocks(alone_a, faulted));
  const auto expect_b = sigs(run_blocks(alone_b, clean));
  ASSERT_GT(expect_a.size(), 40u);
  ASSERT_GT(expect_b.size(), 40u);
  ASSERT_GT(alone_a.stats().degradations, 0u);

  hbrp::math::Rng rng(4108);
  for (int trial = 0; trial < 3; ++trial) {
    StreamingBeatMonitor a(*bundle_, wavelet_cfg);
    StreamingBeatMonitor b(*bundle_, adaptive_cfg);
    std::vector<MonitorBeat> beats_a, beats_b;
    const auto sink_a = classify_into(a, beats_a);
    const auto sink_b = classify_into(b, beats_b);
    std::size_t ia = 0, ib = 0;
    while (ia < faulted.size() || ib < clean.size()) {
      const bool pick_a =
          ib == clean.size() ||
          (ia < faulted.size() && rng.uniform_int(0, 1) == 0);
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 4096));
      if (pick_a) {
        const std::size_t take = std::min(n, faulted.size() - ia);
        a.push_block(std::span(faulted).subspan(ia, take), sink_a);
        ia += take;
      } else {
        const std::size_t take = std::min(n, clean.size() - ib);
        b.push_block(std::span(clean).subspan(ib, take), sink_b);
        ib += take;
      }
    }
    a.flush(sink_a);
    b.flush(sink_b);
    EXPECT_EQ(sigs(beats_a), expect_a) << "trial " << trial;
    EXPECT_EQ(sigs(beats_b), expect_b) << "trial " << trial;
    EXPECT_EQ(a.stats().bad_signal_samples,
              alone_a.stats().bad_signal_samples);
    EXPECT_EQ(a.stats().suspect_beats, alone_a.stats().suspect_beats);
  }
}

}  // namespace

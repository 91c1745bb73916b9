// Tests for the streaming signal-quality estimator: clean signal stays
// Good, each fault signature demotes correctly, hysteresis governs
// recovery, and corrupt int32 garbage cannot overflow the accumulators.
// Also the double-to-code sanitizer that sits in front of the integer path.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "dsp/quality.hpp"
#include "ecg/synth.hpp"
#include "math/check.hpp"
#include "math/rng.hpp"

namespace {

using hbrp::dsp::QualityConfig;
using hbrp::dsp::Sample;
using hbrp::dsp::Signal;
using hbrp::dsp::SignalQuality;
using hbrp::dsp::SignalQualityEstimator;

Signal synth_lead(std::uint64_t seed, double seconds = 30.0) {
  hbrp::ecg::SynthConfig cfg;
  cfg.profile = hbrp::ecg::RecordProfile::PvcOccasional;
  cfg.duration_s = seconds;
  cfg.num_leads = 1;
  cfg.seed = seed;
  return hbrp::ecg::generate_record(cfg).leads[0];
}

// Pushes a signal; returns the worst state observed at any chunk boundary.
SignalQuality run_worst(SignalQualityEstimator& est, const Signal& sig) {
  SignalQuality worst = SignalQuality::Good;
  for (const Sample x : sig)
    if (const auto s = est.push(x)) worst = std::max(worst, *s);
  return worst;
}

TEST(SignalQuality, CleanSynthRecordsStayGood) {
  // The gating must be transparent on realistic clean signal — otherwise
  // it would silently change classification results (acceptance criterion
  // (c) of the fault-injection suite).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SignalQualityEstimator est;
    EXPECT_EQ(run_worst(est, synth_lead(seed)), SignalQuality::Good)
        << "seed " << seed;
  }
}

TEST(SignalQuality, LeadOffFlatLineGoesBad) {
  SignalQualityEstimator est;
  run_worst(est, synth_lead(7, 5.0));
  ASSERT_EQ(est.state(), SignalQuality::Good);
  // Detached electrode: exactly constant at some level.
  const Signal flat(2 * est.chunk_samples(), 1024);
  EXPECT_EQ(run_worst(est, flat), SignalQuality::Bad);
  EXPECT_EQ(est.state(), SignalQuality::Bad);
  EXPECT_LE(est.last_chunk().variance, 2.0);
}

TEST(SignalQuality, SaturationPlateauGoesBad) {
  SignalQualityEstimator est;
  run_worst(est, synth_lead(8, 5.0));
  const Signal railed(2 * est.chunk_samples(), 2047);
  EXPECT_EQ(run_worst(est, railed), SignalQuality::Bad);
  EXPECT_GT(est.last_chunk().clipped, est.chunk_samples() / 2);
}

TEST(SignalQuality, ImpulseBurstGoesSuspectNotBad) {
  SignalQualityEstimator est;
  Signal sig = synth_lead(9, 10.0);
  // Electrosurgery-style spikes: well above impulse_delta, sparse enough
  // not to clip or flat-line, dense enough to cross the suspect fraction.
  for (std::size_t i = est.chunk_samples(); i < sig.size(); i += 20)
    sig[i] = (i / 20) % 2 ? 1900 : 120;
  const SignalQuality worst = run_worst(est, sig);
  EXPECT_EQ(worst, SignalQuality::Suspect);
}

TEST(SignalQuality, HysteresisRecoversOneStepPerCleanStreak) {
  QualityConfig cfg;
  cfg.recover_chunks = 2;
  SignalQualityEstimator est(cfg);
  const Signal clean = synth_lead(10, 60.0);
  const std::size_t chunk = est.chunk_samples();

  // Drive to Bad.
  const Signal flat(2 * chunk, 1024);
  run_worst(est, flat);
  ASSERT_EQ(est.state(), SignalQuality::Bad);

  // Feed clean chunks one at a time and watch the ladder: two chunks to
  // Suspect, two more to Good — never a direct Bad -> Good jump.
  std::vector<SignalQuality> states;
  for (std::size_t c = 0; c < 5; ++c) {
    for (std::size_t i = 0; i < chunk; ++i)
      if (const auto s = est.push(clean[(c + 4) * chunk + i]))
        states.push_back(*s);
  }
  ASSERT_EQ(states.size(), 5u);
  EXPECT_EQ(states[0], SignalQuality::Bad);
  EXPECT_EQ(states[1], SignalQuality::Suspect);
  EXPECT_EQ(states[2], SignalQuality::Suspect);
  EXPECT_EQ(states[3], SignalQuality::Good);
  EXPECT_EQ(states[4], SignalQuality::Good);
}

TEST(SignalQuality, OneBadChunkResetsRecoveryProgress) {
  QualityConfig cfg;
  cfg.recover_chunks = 2;
  SignalQualityEstimator est(cfg);
  const std::size_t chunk = est.chunk_samples();
  const Signal clean = synth_lead(11, 30.0);
  const Signal flat(chunk, 1024);

  run_worst(est, flat);
  run_worst(est, flat);
  ASSERT_EQ(est.state(), SignalQuality::Bad);
  // One clean chunk (progress), then a bad one: back to square one.
  for (std::size_t i = 0; i < chunk; ++i) est.push(clean[4 * chunk + i]);
  run_worst(est, flat);
  EXPECT_EQ(est.state(), SignalQuality::Bad);
  // Needs the full streak again.
  for (std::size_t i = 0; i < chunk; ++i) est.push(clean[6 * chunk + i]);
  EXPECT_EQ(est.state(), SignalQuality::Bad);
  for (std::size_t i = 0; i < chunk; ++i) est.push(clean[7 * chunk + i]);
  EXPECT_EQ(est.state(), SignalQuality::Suspect);
}

TEST(SignalQuality, Int32GarbageIsClampedNotOverflowed) {
  // Hostile/corrupt samples far outside the ADC range must degrade into
  // clipping (and a Bad grade), not overflow the int64 accumulators; this
  // is the case the UBSan tier watches.
  SignalQualityEstimator est;
  Signal garbage(2 * est.chunk_samples());
  for (std::size_t i = 0; i < garbage.size(); ++i)
    garbage[i] = i % 2 ? std::numeric_limits<Sample>::max()
                       : std::numeric_limits<Sample>::min();
  EXPECT_EQ(run_worst(est, garbage), SignalQuality::Bad);
  EXPECT_EQ(est.last_chunk().clipped, est.chunk_samples());
}

TEST(SignalQuality, RunsGradeLikeSingleSamples) {
  // Clean signal, then lead-off, saturation, an impulse burst and int32
  // garbage: push_run over random run lengths must reproduce push()'s
  // update stream and per-chunk metrics exactly.
  Signal sig = synth_lead(11, 10.0);
  sig.insert(sig.end(), 500, 1024);
  sig.insert(sig.end(), 400, 2047);
  const Signal tail = synth_lead(12, 6.0);
  for (std::size_t i = 0; i < tail.size(); ++i)
    sig.push_back(i % 37 == 0 ? tail[i] + 900 : tail[i]);
  for (int i = 0; i < 300; ++i)
    sig.push_back(i % 2 == 0 ? std::numeric_limits<Sample>::max()
                             : std::numeric_limits<Sample>::min());
  sig.insert(sig.end(), tail.begin(), tail.end());

  struct Update {
    SignalQuality state;
    std::size_t clipped, flat, impulses;
    double variance;
    bool operator==(const Update&) const = default;
  };
  const auto note = [](const SignalQualityEstimator& est, SignalQuality q) {
    const auto& m = est.last_chunk();
    return Update{q, m.clipped, m.flat, m.impulses, m.variance};
  };
  SignalQualityEstimator single;
  std::vector<Update> expected;
  for (const Sample x : sig)
    if (const auto q = single.push(x)) expected.push_back(note(single, *q));
  const auto reached = [&expected](SignalQuality q) {
    return std::any_of(expected.begin(), expected.end(),
                       [q](const Update& u) { return u.state == q; });
  };
  ASSERT_TRUE(reached(SignalQuality::Suspect) && reached(SignalQuality::Bad));

  hbrp::math::Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    SignalQualityEstimator runs;
    std::vector<Update> got;
    std::span<const Sample> xs(sig);
    while (!xs.empty()) {
      const auto n = std::min<std::size_t>(
          {xs.size(), runs.until_boundary(),
           static_cast<std::size_t>(rng.uniform_int(1, 400))});
      if (const auto q = runs.push_run(xs.first(n)))
        got.push_back(note(runs, *q));
      xs = xs.subspan(n);
    }
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
}

TEST(SignalQuality, ResetReturnsToInitialState) {
  SignalQualityEstimator est;
  const Signal flat(2 * est.chunk_samples(), 500);
  run_worst(est, flat);
  ASSERT_EQ(est.state(), SignalQuality::Bad);
  est.reset();
  EXPECT_EQ(est.state(), SignalQuality::Good);
  EXPECT_EQ(run_worst(est, synth_lead(12, 5.0)), SignalQuality::Good);
}

TEST(SignalQuality, ConfigValidation) {
  QualityConfig cfg;
  cfg.fs_hz = 0;
  EXPECT_THROW(SignalQualityEstimator{cfg}, hbrp::Error);
  cfg = {};
  cfg.chunk_s = 0.0;
  EXPECT_THROW(SignalQualityEstimator{cfg}, hbrp::Error);
  cfg = {};
  cfg.rail_low = cfg.rail_high;
  EXPECT_THROW(SignalQualityEstimator{cfg}, hbrp::Error);
  cfg = {};
  cfg.recover_chunks = 0;
  EXPECT_THROW(SignalQualityEstimator{cfg}, hbrp::Error);
}

TEST(Sanitizer, HoldsNonFiniteClampsAndRoundsTheRest) {
  const QualityConfig rails;
  Sample last = hbrp::dsp::rail_midpoint(rails);
  EXPECT_EQ(last, 1023);
  std::uint64_t nonfinite = 0;
  const auto sanitize = [&](double x) {
    return hbrp::dsp::sanitize_sample(x, rails, last, &nonfinite);
  };
  // Before any finite sample the hold is the rail midpoint.
  EXPECT_EQ(sanitize(std::numeric_limits<double>::quiet_NaN()), 1023);
  EXPECT_EQ(sanitize(1e9), 2047);  // clamped high
  EXPECT_EQ(sanitize(std::numeric_limits<double>::infinity()), 2047);
  EXPECT_EQ(sanitize(-1e9), 0);  // clamped low
  EXPECT_EQ(sanitize(-std::numeric_limits<double>::infinity()), 0);
  EXPECT_EQ(sanitize(1024.0), 1024);
  EXPECT_EQ(sanitize(100.5), 101);  // lround: halves away from zero
  EXPECT_EQ(sanitize(100.49), 100);
  EXPECT_EQ(nonfinite, 3u);
  EXPECT_EQ(last, 100);

  const std::vector<double> raw = {
      std::numeric_limits<double>::quiet_NaN(), 5000.0,
      -std::numeric_limits<double>::infinity(), 7.6};
  EXPECT_EQ(hbrp::dsp::sanitize_samples(raw),
            (std::vector<Sample>{1023, 2047, 2047, 8}));
}

}  // namespace

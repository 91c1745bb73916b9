// Tests for the MMD operator and multi-lead wave delineation, validated
// against the generator's analytic fiducials.
#include <gtest/gtest.h>

#include <cmath>

#include "delineation/mmd.hpp"
#include "dsp/morphology.hpp"
#include "ecg/synth.hpp"
#include "math/check.hpp"
#include "math/rng.hpp"

namespace {

using hbrp::delineation::compare_fiducials;
using hbrp::delineation::delineate_beat;
using hbrp::delineation::delineate_beat_multilead;
using hbrp::delineation::mmd;
using hbrp::dsp::Signal;
using hbrp::ecg::Fiducials;

TEST(Mmd, ZeroOnLinearRamp) {
  // dilate + erode - 2x == 0 for affine signals (max+min symmetric).
  Signal x(200);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<int>(3 * i);
  const Signal m = mmd(x, 9);
  for (std::size_t i = 10; i + 10 < x.size(); ++i) EXPECT_EQ(m[i], 0);
}

TEST(Mmd, NegativeAtPeakPositiveAtValley) {
  Signal x(100, 0);
  x[50] = 100;   // peak
  x[20] = -100;  // valley
  const Signal m = mmd(x, 5);
  EXPECT_LT(m[50], 0);
  EXPECT_GT(m[20], 0);
}

TEST(Mmd, MatchesReferenceOperators) {
  // mmd() runs on the block kernels; pin it to the dsp reference operators
  // on short signals like the per-beat crops delineation feeds it: every
  // length 1..1000 and every odd scale up to 2n+3, so elements longer than
  // the signal replicate both borders at once.
  hbrp::math::Rng rng(16);
  Signal x;
  for (std::size_t n = 1; n <= 1000; ++n) {
    x.push_back(static_cast<int>(rng.uniform_int(-1024, 1023)));
    for (std::size_t len = 1; len <= 2 * n + 3; len += 2) {
      const Signal d = hbrp::dsp::dilate(x, len);
      const Signal e = hbrp::dsp::erode(x, len);
      Signal want(n);
      for (std::size_t i = 0; i < n; ++i) want[i] = d[i] + e[i] - 2 * x[i];
      ASSERT_EQ(mmd(x, len), want) << "n=" << n << " length=" << len;
    }
  }
}

TEST(Mmd, RespondsAtWaveBoundaries) {
  // A flat-top pulse: MMD at the pulse scale is positive at the corners.
  Signal x(300, 0);
  for (std::size_t i = 100; i < 160; ++i) x[i] = 200;
  const Signal m = mmd(x, 31);
  EXPECT_GT(m[99], 0);   // onset corner (concave-up)
  EXPECT_GT(m[160], 0);  // end corner
}

hbrp::ecg::Record clean_record(hbrp::ecg::RecordProfile profile,
                               std::uint64_t seed) {
  hbrp::ecg::SynthConfig cfg;
  cfg.profile = profile;
  cfg.duration_s = 60.0;
  cfg.noise_scale = 0.25;  // light noise: delineation quality test
  cfg.seed = seed;
  return hbrp::ecg::generate_record(cfg);
}

std::vector<Signal> conditioned_leads(const hbrp::ecg::Record& rec) {
  std::vector<Signal> out;
  for (const auto& lead : rec.leads)
    out.push_back(hbrp::dsp::condition_ecg(lead));
  return out;
}

TEST(Delineate, QrsBoundariesWithinTolerance) {
  const auto rec = clean_record(hbrp::ecg::RecordProfile::NormalSinus, 1);
  const auto leads = conditioned_leads(rec);
  double onset_err = 0.0, end_err = 0.0;
  std::size_t n = 0;
  for (const auto& b : rec.beats) {
    if (b.sample < 400 || b.sample + 400 >= leads[0].size()) continue;
    const Fiducials f = delineate_beat(leads[0], b.sample);
    ASSERT_NE(f.qrs_onset, Fiducials::kNoFiducial);
    onset_err += std::abs(static_cast<double>(f.qrs_onset) -
                          static_cast<double>(b.fiducials.qrs_onset));
    end_err += std::abs(static_cast<double>(f.qrs_end) -
                        static_cast<double>(b.fiducials.qrs_end));
    ++n;
  }
  ASSERT_GT(n, 30u);
  // 360 Hz: 10 samples ~ 28 ms.
  EXPECT_LT(onset_err / static_cast<double>(n), 12.0);
  EXPECT_LT(end_err / static_cast<double>(n), 14.0);
}

TEST(Delineate, PWavePresenceMatchesClass) {
  const auto rec = clean_record(hbrp::ecg::RecordProfile::PvcOccasional, 2);
  const auto leads = conditioned_leads(rec);
  std::size_t correct = 0, total = 0;
  for (const auto& b : rec.beats) {
    if (b.sample < 400 || b.sample + 400 >= leads[0].size()) continue;
    const Fiducials f = delineate_beat_multilead(leads, b.sample);
    ++total;
    correct += (f.has_p() == b.fiducials.has_p());
  }
  ASSERT_GT(total, 30u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.8);
}

TEST(Delineate, TPeakLocatedOnNormalBeats) {
  const auto rec = clean_record(hbrp::ecg::RecordProfile::NormalSinus, 3);
  const auto leads = conditioned_leads(rec);
  double err = 0.0;
  std::size_t n = 0, found = 0, total = 0;
  for (const auto& b : rec.beats) {
    if (b.sample < 400 || b.sample + 400 >= leads[0].size()) continue;
    const Fiducials f = delineate_beat(leads[0], b.sample);
    ++total;
    if (f.t_peak == Fiducials::kNoFiducial) continue;
    ++found;
    err += std::abs(static_cast<double>(f.t_peak) -
                    static_cast<double>(b.fiducials.t_peak));
    ++n;
  }
  ASSERT_GT(total, 30u);
  EXPECT_GT(static_cast<double>(found) / static_cast<double>(total), 0.9);
  EXPECT_LT(err / static_cast<double>(n), 15.0);
}

TEST(Delineate, MultileadFusionRejectsOneBadLead) {
  const auto rec = clean_record(hbrp::ecg::RecordProfile::NormalSinus, 4);
  auto leads = conditioned_leads(rec);
  // Destroy lead 2 with an implausible constant.
  std::fill(leads[2].begin(), leads[2].end(), 0);
  const auto& b = rec.beats[rec.beats.size() / 2];
  const Fiducials fused = delineate_beat_multilead(leads, b.sample);
  EXPECT_NE(fused.qrs_onset, Fiducials::kNoFiducial);
  EXPECT_NEAR(static_cast<double>(fused.qrs_onset),
              static_cast<double>(b.fiducials.qrs_onset), 15.0);
}

TEST(Delineate, RPeakPropagatedVerbatim) {
  const auto rec = clean_record(hbrp::ecg::RecordProfile::NormalSinus, 5);
  const auto leads = conditioned_leads(rec);
  const auto& b = rec.beats[5];
  EXPECT_EQ(delineate_beat(leads[0], b.sample).r_peak, b.sample);
  EXPECT_EQ(delineate_beat_multilead(leads, b.sample).r_peak, b.sample);
}

TEST(Delineate, EdgeBeatsDoNotCrash) {
  const auto rec = clean_record(hbrp::ecg::RecordProfile::NormalSinus, 6);
  const auto leads = conditioned_leads(rec);
  EXPECT_NO_THROW(delineate_beat(leads[0], 0));
  EXPECT_NO_THROW(delineate_beat(leads[0], leads[0].size() - 1));
}

TEST(Delineate, InvalidArgsThrow) {
  Signal x(100, 0);
  hbrp::delineation::DelineatorConfig cfg;
  cfg.fs_hz = 0;
  EXPECT_THROW(delineate_beat(x, 50, cfg), hbrp::Error);
  EXPECT_THROW(delineate_beat(x, 100), hbrp::Error);
  EXPECT_THROW(delineate_beat_multilead({}, 0), hbrp::Error);
}

TEST(CompareFiducials, CountsAndErrors) {
  Fiducials ref;
  ref.r_peak = 1000;
  ref.qrs_onset = 980;
  ref.qrs_end = 1030;
  ref.t_peak = 1110;

  Fiducials det;
  det.r_peak = 1000;
  det.qrs_onset = 985;   // off by 5
  det.qrs_end = 1027;    // off by 3
  // t_peak missed

  const auto err = compare_fiducials(det, ref);
  EXPECT_EQ(err.points_compared, 3u);
  EXPECT_EQ(err.points_missed, 1u);
  EXPECT_NEAR(err.mean_abs_error_samples, (0 + 5 + 3) / 3.0, 1e-12);
}

TEST(CompareFiducials, EmptyReference) {
  const auto err = compare_fiducials(Fiducials{}, Fiducials{});
  EXPECT_EQ(err.points_compared, 0u);
  EXPECT_EQ(err.points_missed, 0u);
  EXPECT_DOUBLE_EQ(err.mean_abs_error_samples, 0.0);
}

}  // namespace

#include "dsp/quality.hpp"

#include <algorithm>
#include <cmath>

#include "math/check.hpp"

namespace hbrp::dsp {

namespace {

std::size_t frac_count(double frac, std::size_t chunk) {
  // Threshold count for "fraction of the chunk"; ceil so a zero fraction
  // still requires at least one sample and frac==1 requires the full chunk.
  return static_cast<std::size_t>(
      std::ceil(frac * static_cast<double>(chunk)));
}

}  // namespace

Sample rail_midpoint(const QualityConfig& rails) {
  return static_cast<Sample>(
      (static_cast<std::int64_t>(rails.rail_low) + rails.rail_high) / 2);
}

Sample sanitize_sample(double x, const QualityConfig& rails, Sample& last,
                       std::uint64_t* nonfinite_count) {
  if (!std::isfinite(x)) {
    if (nonfinite_count != nullptr) ++*nonfinite_count;
    return last;
  }
  const double clamped =
      std::clamp(x, static_cast<double>(rails.rail_low),
                 static_cast<double>(rails.rail_high));
  last = static_cast<Sample>(std::lround(clamped));
  return last;
}

std::vector<Sample> sanitize_samples(std::span<const double> xs,
                                     const QualityConfig& rails) {
  std::vector<Sample> codes;
  codes.reserve(xs.size());
  Sample last = rail_midpoint(rails);
  for (const double x : xs) codes.push_back(sanitize_sample(x, rails, last));
  return codes;
}

SignalQualityEstimator::SignalQualityEstimator(const QualityConfig& cfg)
    : cfg_(cfg) {
  HBRP_REQUIRE(cfg.fs_hz > 0, "SignalQualityEstimator: fs_hz must be > 0");
  HBRP_REQUIRE(cfg.chunk_s > 0.0,
               "SignalQualityEstimator: chunk_s must be > 0");
  HBRP_REQUIRE(cfg.rail_low < cfg.rail_high,
               "SignalQualityEstimator: rail_low must be below rail_high");
  HBRP_REQUIRE(cfg.recover_chunks >= 1,
               "SignalQualityEstimator: recover_chunks must be >= 1");
  chunk_samples_ = static_cast<std::size_t>(cfg.chunk_s * cfg.fs_hz);
  HBRP_REQUIRE(chunk_samples_ >= 8,
               "SignalQualityEstimator: chunk must span at least 8 samples");
  clip_bad_count_ = std::max<std::size_t>(
      1, frac_count(cfg.clip_bad_frac, chunk_samples_));
  flat_bad_count_ = std::max<std::size_t>(
      1, frac_count(cfg.flat_bad_frac, chunk_samples_));
  clip_suspect_count_ = std::max<std::size_t>(
      1, frac_count(cfg.clip_suspect_frac, chunk_samples_));
  flat_suspect_count_ = std::max<std::size_t>(
      1, frac_count(cfg.flat_suspect_frac, chunk_samples_));
  impulse_suspect_count_ = std::max<std::size_t>(
      1, frac_count(cfg.impulse_suspect_frac, chunk_samples_));
}

void SignalQualityEstimator::reset() {
  n_ = clipped_ = flat_ = impulses_ = 0;
  sum_ = sum_sq_ = 0;
  has_prev_ = false;
  state_ = SignalQuality::Good;
  clean_streak_ = 0;
  last_ = QualityMetrics{};
}

std::optional<SignalQuality> SignalQualityEstimator::push_run(
    std::span<const Sample> xs) {
  HBRP_ASSERT(xs.size() <= until_boundary());
  if (xs.empty()) return std::nullopt;
  // Clamp first: corrupt samples far outside the ADC range must degrade
  // into countable clipping, not overflow the accumulators. The counts stay
  // in locals and the comparisons feed additions, not branches: whether a
  // clean sample repeats its predecessor is a coin flip no predictor wins.
  const Sample lo = cfg_.rail_low;
  const Sample hi = cfg_.rail_high;
  std::size_t clipped = 0, flat = 0, impulses = 0;
  std::int64_t sum = 0, sum_sq = 0;
  std::size_t i = 0;
  Sample prev = prev_;
  if (!has_prev_) {
    // The first sample since reset() has no predecessor to jump from.
    prev = std::clamp(xs[0], lo, hi);
    clipped += static_cast<std::size_t>(prev - lo <= cfg_.rail_margin ||
                                        hi - prev <= cfg_.rail_margin);
    sum += prev;
    sum_sq += static_cast<std::int64_t>(prev) * prev;
    has_prev_ = true;
    i = 1;
  }
  for (; i < xs.size(); ++i) {
    const Sample c = std::clamp(xs[i], lo, hi);
    clipped += static_cast<std::size_t>(c - lo <= cfg_.rail_margin ||
                                        hi - c <= cfg_.rail_margin);
    const std::int64_t jump = std::abs(static_cast<std::int64_t>(c) -
                                       static_cast<std::int64_t>(prev));
    flat += static_cast<std::size_t>(jump <= cfg_.flat_delta);
    impulses += static_cast<std::size_t>(jump >= cfg_.impulse_delta);
    sum += c;
    sum_sq += static_cast<std::int64_t>(c) * c;
    prev = c;
  }
  clipped_ += clipped;
  flat_ += flat;
  impulses_ += impulses;
  sum_ += sum;
  sum_sq_ += sum_sq;
  // prev_ is kept across chunk boundaries so the first delta of the next
  // chunk is still meaningful.
  prev_ = prev;
  n_ += xs.size();
  if (n_ < chunk_samples_) return std::nullopt;

  const SignalQuality grade = grade_chunk();
  n_ = clipped_ = flat_ = impulses_ = 0;
  sum_ = sum_sq_ = 0;

  if (grade == SignalQuality::Good) {
    if (state_ != SignalQuality::Good &&
        ++clean_streak_ >= cfg_.recover_chunks) {
      state_ = state_ == SignalQuality::Bad ? SignalQuality::Suspect
                                            : SignalQuality::Good;
      clean_streak_ = 0;
    }
  } else {
    // Demotion is immediate and resets any progress toward recovery.
    clean_streak_ = 0;
    state_ = std::max(state_, grade);
  }
  return state_;
}

SignalQuality SignalQualityEstimator::grade_chunk() {
  const auto n = static_cast<std::int64_t>(n_);
  // variance * n^2 == n * sum_sq - sum^2, exact in int64 for 11-bit chunks.
  const std::int64_t var_num = n * sum_sq_ - sum_ * sum_;
  const double variance =
      static_cast<double>(var_num) / (static_cast<double>(n) * n);

  last_.samples = n_;
  last_.clipped = clipped_;
  last_.flat = flat_;
  last_.impulses = impulses_;
  last_.variance = variance;

  if (clipped_ >= clip_bad_count_ || flat_ >= flat_bad_count_ ||
      variance <= cfg_.bad_variance)
    last_.grade = SignalQuality::Bad;
  else if (clipped_ >= clip_suspect_count_ || flat_ >= flat_suspect_count_ ||
           impulses_ >= impulse_suspect_count_)
    last_.grade = SignalQuality::Suspect;
  else
    last_.grade = SignalQuality::Good;
  return last_.grade;
}

}  // namespace hbrp::dsp

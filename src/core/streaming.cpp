#include "core/streaming.hpp"

#include <algorithm>

#include "dsp/resample.hpp"
#include "ecg/types.hpp"
#include "kernels/dsp_peaks.hpp"
#include "math/check.hpp"

namespace hbrp::core {

StreamingBeatMonitor::StreamingBeatMonitor(
    embedded::EmbeddedClassifier classifier, MonitorConfig cfg)
    : classifier_(std::move(classifier)),
      cfg_(std::move(cfg)),
      conditioner_(cfg_.filter),
      sqi_(cfg_.quality) {
  HBRP_REQUIRE(cfg_.window_before + cfg_.window_after ==
                   classifier_.projector().expected_window(),
               "StreamingBeatMonitor: window geometry does not match the "
               "classifier");
  chunk_samples_ =
      static_cast<std::size_t>(cfg_.chunk_s * cfg_.peak.fs_hz);
  overlap_samples_ =
      static_cast<std::size_t>(cfg_.overlap_s * cfg_.peak.fs_hz);
  const std::size_t min_overlap =
      cfg_.window_before + cfg_.window_after +
      static_cast<std::size_t>(cfg_.peak.refractory_s * cfg_.peak.fs_hz);
  HBRP_REQUIRE(overlap_samples_ >= min_overlap,
               "StreamingBeatMonitor: overlap shorter than one beat window "
               "plus the refractory period");
  HBRP_REQUIRE(chunk_samples_ > 2 * overlap_samples_,
               "StreamingBeatMonitor: chunk must exceed twice the overlap");
}

void StreamingBeatMonitor::append_conditioned(const PendingBeatSink& sink) {
  // Slice the staged conditioner output into the rolling buffer, scanning
  // exactly when it reaches chunk_samples_ — the per-sample path appended
  // one sample at a time and scanned at the same crossings, so the verdict
  // stream is independent of the conditioner's batch boundaries.
  std::size_t i = 0;
  while (i < cond_out_.size()) {
    HBRP_ASSERT(buffer_.size() < chunk_samples_);
    const std::size_t take =
        std::min(chunk_samples_ - buffer_.size(), cond_out_.size() - i);
    buffer_.insert(buffer_.end(),
                   cond_out_.begin() + static_cast<std::ptrdiff_t>(i),
                   cond_out_.begin() + static_cast<std::ptrdiff_t>(i + take));
    i += take;
    if (buffer_.size() >= chunk_samples_)
      scan(/*final_pass=*/false, sink);
  }
  cond_out_.clear();
}

void StreamingBeatMonitor::sync_conditioner(const PendingBeatSink& sink) {
  conditioner_.sync(cond_out_);
  if (!cond_out_.empty()) append_conditioned(sink);
}

void StreamingBeatMonitor::push_block(std::span<const dsp::Sample> xs,
                                      const PendingBeatSink& sink) {
  stats_.samples_in += xs.size();
  const dsp::Sample lo = cfg_.quality.rail_low;
  const dsp::Sample hi = cfg_.quality.rail_high;
  while (!xs.empty()) {
    // A run never crosses an SQI chunk boundary, so only its last sample
    // can carry a quality update. It also stops short of an out-of-range
    // code, which (corrupt input, rare) is clamped to the rails and fed as
    // a run of its own.
    std::span<const dsp::Sample> run = xs.first(
        cfg_.quality_gating ? std::min(xs.size(), sqi_.until_boundary())
                            : xs.size());
    const auto bad = std::find_if(run.begin(), run.end(),
                                  [lo, hi](dsp::Sample x) {
                                    return x < lo || x > hi;
                                  });
    dsp::Sample railed = 0;
    if (bad == run.begin()) {
      railed = std::clamp(run.front(), lo, hi);
      ++stats_.clamped;
      run = std::span<const dsp::Sample>(&railed, 1);
    } else {
      run = run.first(static_cast<std::size_t>(bad - run.begin()));
    }
    xs = xs.subspan(run.size());
    const std::size_t first = input_index_;
    input_index_ += run.size();
    const bool was_bad = quality_state_ == dsp::SignalQuality::Bad;
    const std::optional<dsp::SignalQuality> update =
        cfg_.quality_gating ? sqi_.push_run(run) : std::nullopt;
    // Every sample before the chunk boundary is gated by the state the run
    // started in.
    const std::size_t body = update ? run.size() - 1 : run.size();
    accept(run.first(body), first, was_bad, sink);
    if (update)
      end_sqi_chunk(*update, run.last(1), first + body, was_bad, sink);
  }
  // Conditioned samples only matter once they complete the rolling buffer,
  // so the pending batch is conditioned in one go as soon as it reaches
  // that crossing — the scan fires in the call that makes it possible, and
  // never later than on the per-sample path.
  if (buffer_.size() + conditioner_.ready() >= chunk_samples_)
    sync_conditioner(sink);
}

void StreamingBeatMonitor::end_sqi_chunk(dsp::SignalQuality update,
                                         std::span<const dsp::Sample> last,
                                         std::size_t index, bool was_bad,
                                         const PendingBeatSink& sink) {
  if (update != quality_state_) {
    // A real transition: drain the conditioner's pending batch first so
    // every scan that would have preceded this moment on the per-sample
    // path happens before the transition is recorded. Same-state SQI
    // updates (the common case, one per SQI chunk) skip the sync and keep
    // the conditioner batching across the whole block.
    sync_conditioner(sink);
    on_quality_update(update, sink);
  }
  // The boundary sample is gated after the transition: suppressed while in,
  // entering or just leaving Bad. Recovery re-arms on the next accepted
  // sample.
  accept(last, index, was_bad || quality_state_ == dsp::SignalQuality::Bad,
         sink);
}

void StreamingBeatMonitor::accept(std::span<const dsp::Sample> run,
                                  std::size_t first, bool suppressed,
                                  const PendingBeatSink& sink) {
  if (run.empty()) return;
  if (suppressed) {
    stats_.bad_signal_samples += run.size();
    return;
  }
  if (needs_rearm_) rearm(first);
  do {
    run = run.subspan(conditioner_.defer(run, cond_out_));
    if (!cond_out_.empty()) append_conditioned(sink);
  } while (!run.empty());
}

MonitorBeat StreamingBeatMonitor::classify(const PendingBeat& pb) {
  MonitorBeat beat = pb.beat;
  if (!pb.needs_classification) return beat;
  beat.predicted = classifier_.classify_window(pb.window, classify_scratch_);
  if (drift_ != nullptr) {
    // classify_window left exactly k coefficients in the scratch.
    drift_->observe(
        std::span<const std::int32_t>(classify_scratch_.u.data(),
                                      classify_scratch_.u.size()),
        !ecg::is_pathological(beat.predicted));
  }
  return beat;
}

void StreamingBeatMonitor::rearm(std::size_t at_absolute) {
  // The conditioner was rebuilt when the signal went Bad; its first output
  // after warm-up corresponds to this sample, so the rolling buffer
  // restarts here. The peak detector's adaptive threshold re-seeds from
  // the fresh buffer on the next scan — no pre-fault statistics survive.
  buffer_base_ = at_absolute;
  emitted_up_to_ = std::max(emitted_up_to_, at_absolute);
  needs_rearm_ = false;
}

void StreamingBeatMonitor::on_quality_update(dsp::SignalQuality next,
                                             const PendingBeatSink& sink) {
  if (next == quality_state_) return;
  const std::size_t qchunk = sqi_.chunk_samples();
  const bool demotion = next > quality_state_;
  // A demotion describes samples already consumed: it retro-covers the
  // chunk that tripped it. A promotion only applies from here on.
  const std::size_t effective =
      demotion ? (input_index_ > qchunk ? input_index_ - qchunk : 0)
               : input_index_;

  const bool entering_bad = next == dsp::SignalQuality::Bad;
  const bool leaving_bad = quality_state_ == dsp::SignalQuality::Bad;
  quality_state_ = next;
  transitions_.emplace_back(effective, next);

  if (entering_bad) {
    ++stats_.degradations;
    // Drop the buffer tail from two SQI chunks before the detection point:
    // the fault typically began mid-way through the previous chunk, and
    // the transition edge itself must not fabricate beats. Everything
    // older is salvaged with a final-style scan before the buffer dies.
    const std::size_t margin = 2 * qchunk;
    const std::size_t cut =
        input_index_ > margin ? input_index_ - margin : 0;
    if (buffer_base_ + buffer_.size() > cut)
      buffer_.resize(cut > buffer_base_ ? cut - buffer_base_ : 0);
    if (!buffer_.empty()) scan(/*final_pass=*/true, sink);
    buffer_.clear();
    conditioner_.reset();
    needs_rearm_ = true;
  }
  if (leaving_bad) ++stats_.recoveries;
}

dsp::SignalQuality StreamingBeatMonitor::quality_at(
    std::size_t absolute) const {
  dsp::SignalQuality q = baseline_quality_;
  for (const auto& [index, state] : transitions_) {
    if (index > absolute) break;
    q = state;
  }
  return q;
}

void StreamingBeatMonitor::scan(bool final_pass, const PendingBeatSink& sink) {
  // Wavelet (bit-identical to dsp::detect_r_peaks, the pre-block-kernel
  // detector) or the adaptive fast path, per cfg_.peak.kind. The scratch is
  // per-thread workspace shared by every monitor on the thread, which keeps
  // the steady-state scan allocation-free and cache-hot; it holds nothing
  // once the detector returns, and the sink runs only after that.
  thread_local kernels::PeakScratch peak_scratch;
  kernels::detect_r_peaks_kind(buffer_, cfg_.peak, peak_scratch, peaks_);
  const std::vector<std::size_t>& peaks = peaks_;

  // A beat is finalized once its full window fits safely inside the chunk:
  // keep a guard of window_after plus half an overlap from the right edge
  // (unless this is the final pass, where everything remaining finalizes).
  const std::size_t guard = cfg_.window_after + overlap_samples_ / 2;
  const std::size_t limit =
      final_pass || buffer_.size() < guard ? buffer_.size()
                                           : buffer_.size() - guard;

  for (const std::size_t local_peak : peaks) {
    if (local_peak >= limit) continue;
    if (local_peak < cfg_.window_before ||
        local_peak + cfg_.window_after >= buffer_.size())
      continue;
    const std::size_t absolute = buffer_base_ + local_peak;
    if (absolute < emitted_up_to_) continue;  // already reported last chunk

    MonitorBeat beat;
    beat.r_peak = absolute;
    beat.quality = cfg_.quality_gating ? quality_at(absolute)
                                       : dsp::SignalQuality::Good;
    if (beat.quality == dsp::SignalQuality::Bad) {
      // Defensive: suppressed regions should never reach here, but a beat
      // straddling a degradation boundary is dropped, not reported.
      emitted_up_to_ = absolute + 1;
      continue;
    }
    if (beat.quality == dsp::SignalQuality::Suspect) {
      // Safe default under doubtful signal: report Unknown, which counts
      // as pathological and escalates to full delineation downstream.
      beat.predicted = ecg::BeatClass::Unknown;
      ++stats_.suspect_beats;
      sink({beat, {}, /*needs_classification=*/false});
    } else {
      // The guards above guarantee the full window is inside the buffer, so
      // the sink gets a span view: no window copy per beat.
      const std::span<const dsp::Sample> window{
          buffer_.data() + (local_peak - cfg_.window_before),
          cfg_.window_before + cfg_.window_after};
      sink({beat, window, /*needs_classification=*/true});
    }
    emitted_up_to_ = absolute + 1;
  }

  // Transitions entirely behind the reporting frontier can never be looked
  // up again; fold them into the baseline.
  while (transitions_.size() >= 2 && transitions_[1].first <= emitted_up_to_) {
    baseline_quality_ = transitions_.front().second;
    transitions_.pop_front();
  }

  if (!final_pass) {
    // Slide: keep the overlap region (plus window headroom) for the next
    // scan so boundary beats are seen with full context.
    const std::size_t keep = overlap_samples_ + cfg_.window_before;
    if (buffer_.size() > keep) {
      const std::size_t drop = buffer_.size() - keep;
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(drop));
      buffer_base_ += drop;
    }
  }
}

void StreamingBeatMonitor::flush(const PendingBeatSink& sink) {
  // Two-step drain mirrors the per-sample path exactly: first the pending
  // batch (whose outputs would have streamed out one by one, scanning at
  // chunk crossings), then the right-border tail, appended wholesale before
  // one final scan — the same shape StreamingConditioner::flush() had.
  sync_conditioner(sink);
  conditioner_.flush_tail(cond_out_);
  buffer_.insert(buffer_.end(), cond_out_.begin(), cond_out_.end());
  cond_out_.clear();
  scan(/*final_pass=*/true, sink);
  buffer_.clear();
  buffer_base_ = 0;
  emitted_up_to_ = 0;
  input_index_ = 0;
  conditioner_.reset();
  sqi_.reset();
  quality_state_ = dsp::SignalQuality::Good;
  baseline_quality_ = dsp::SignalQuality::Good;
  transitions_.clear();
  needs_rearm_ = false;
}

std::size_t StreamingBeatMonitor::memory_samples() const {
  // Buffer high-water mark is one full chunk; conditioner state (history +
  // a pending batch capped at kMaxBatch) and the output staging of one
  // batch on top, whatever the caller's block size. The SQI estimator is
  // O(1) (a handful of accumulators) and the transition history is bounded
  // by the handful of state changes a chunk can witness, so neither moves
  // the figure.
  return chunk_samples_ + conditioner_.memory_samples() +
         kernels::BlockConditioner::kMaxBatch;
}

std::size_t StreamingBeatMonitor::latency() const {
  return conditioner_.delay() + chunk_samples_;
}

}  // namespace hbrp::core

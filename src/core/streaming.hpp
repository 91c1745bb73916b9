// Firmware-shaped streaming beat monitor.
//
// RealTimePipeline (core/pipeline.hpp) emulates the WBSN application over a
// whole recorded lead at once; this class is the streaming equivalent with
// bounded memory, fed ADC codes in blocks of any size, which is what
// actually runs on the node: each block is graded for signal quality one
// SQI chunk-run at a time, and a block conditioner
// (kernels/dsp_condition.hpp) defers the accepted samples and conditions
// them in one batch when they complete a rolling analysis buffer of a few
// seconds; whenever the buffer fills, the
// configured peak detector (wavelet by default, or the adaptive-threshold
// fast path — see dsp::PeakDetectorKind) scans it, beats far enough from
// the buffer's right edge are finalized and handed to the sink, which
// classifies them with the embedded integer classifier; the buffer then
// slides, keeping one overlap region so no beat is lost at a chunk
// boundary.
//
// The monitor covers the classification sub-system (1) of the paper's
// Fig. 6 — the decision *whether* a beat needs the detailed multi-lead
// analysis; the delineation stage itself consumes these flags downstream.
//
// Fault tolerance: a streaming signal-quality estimator (dsp/quality.hpp)
// grades the raw input and drives a Good / Suspect / Bad degradation
// machine. Beats detected during Suspect segments are escalated to the
// safe default (Unknown ⇒ pathological ⇒ full delineation); during Bad
// segments (lead-off, saturation) detection is suppressed entirely and the
// conditioner plus rolling buffer are re-armed on recovery, so no stale
// filter state or poisoned adaptive threshold touches the first beats
// after a reconnect. The monitor takes integer ADC codes only (untrusted
// doubles become codes in dsp::sanitize_sample() first) and clamps
// out-of-range codes to the rails, counting each in MonitorStats.
#pragma once

#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "dsp/peak_detect.hpp"
#include "dsp/quality.hpp"
#include "drift/tracker.hpp"
#include "embedded/bundle.hpp"
#include "kernels/dsp_condition.hpp"

namespace hbrp::core {

/// One finalized beat from the streaming monitor.
struct MonitorBeat {
  /// R-peak index on the conditioned-signal timeline (aligned with the raw
  /// input timeline; availability lags by StreamingBeatMonitor::latency()).
  std::size_t r_peak = 0;
  ecg::BeatClass predicted = ecg::BeatClass::N;
  /// Acquisition quality at the beat's position. Suspect beats are always
  /// reported as Unknown (safe default: escalate to detailed analysis).
  dsp::SignalQuality quality = dsp::SignalQuality::Good;
};

/// Cumulative acquisition/robustness counters (never reset by flush()).
struct MonitorStats {
  std::size_t samples_in = 0;         ///< codes offered to push_block()
  std::size_t clamped = 0;            ///< out-of-range codes clamped to rails
  std::size_t bad_signal_samples = 0; ///< samples discarded while Bad
  std::size_t suspect_beats = 0;      ///< beats escalated to Unknown
  std::size_t degradations = 0;       ///< entries into the Bad state
  std::size_t recoveries = 0;         ///< re-arms after leaving Bad
};

struct MonitorConfig {
  std::size_t window_before = 100;
  std::size_t window_after = 100;
  dsp::FilterConfig filter = dsp::FilterConfig::for_rate(dsp::kMitBihFs);
  dsp::PeakDetectorConfig peak;
  /// Rolling analysis buffer (s). Must hold several beats for the adaptive
  /// threshold to make sense.
  double chunk_s = 8.0;
  /// Overlap carried between consecutive scans (s); must exceed one beat
  /// window plus the detector refractory so boundary beats are not lost.
  double overlap_s = 2.0;
  /// Signal-quality gating (SQI chunking, thresholds, hysteresis).
  dsp::QualityConfig quality;
  /// Disables the degradation machine (every beat reports Good and nothing
  /// is suppressed) — the pre-robustness behaviour, kept for A/B tests.
  bool quality_gating = true;
};

/// A finalized beat whose classification is left to the sink: classify it
/// in place with StreamingBeatMonitor::classify(), or batch the window
/// across many sessions into one core::BeatBatch (the fleet service layer,
/// src/service).
///
/// When `needs_classification` is true, `window` views the monitor's rolling
/// buffer (window_before + window_after samples around the R peak) and is
/// valid only for the duration of the sink call — copy it out. When false
/// the monitor has already decided (Suspect signal escalates straight to
/// Unknown) and `window` is empty.
struct PendingBeat {
  MonitorBeat beat;
  std::span<const dsp::Sample> window;
  bool needs_classification = false;
};

/// Receives each finalized beat (see PendingBeat).
using PendingBeatSink = std::function<void(const PendingBeat&)>;

class StreamingBeatMonitor {
 public:
  StreamingBeatMonitor(embedded::EmbeddedClassifier classifier,
                       MonitorConfig cfg = {});

  /// Feeds a contiguous run of raw ADC codes; every beat finalized by them
  /// is delivered to `sink` in report order. The beat stream and the stats
  /// do not depend on how a stream is split into blocks (one sample at a
  /// time included). No per-sample allocation on the steady-state path.
  void push_block(std::span<const dsp::Sample> xs,
                  const PendingBeatSink& sink);

  /// Finalizes everything still buffered into `sink` and resets the monitor
  /// (the cumulative stats() survive).
  void flush(const PendingBeatSink& sink);

  /// Classifies a pending beat in place with the member classifier through
  /// the member scratch and, when attached, feeds its projection to the
  /// drift tracker. Beats that need no classification (Suspect) come back
  /// unchanged and are not observed. Call it from the sink, while the
  /// window is valid.
  MonitorBeat classify(const PendingBeat& pb);

  /// Worst-case number of samples held across all internal state, whatever
  /// block size the caller feeds. The DSP kernels' scratch is per-thread
  /// workspace shared by every monitor on the thread and is not counted.
  std::size_t memory_samples() const;

  /// Input-to-report latency bound, in samples: conditioner delay plus one
  /// full analysis chunk. Deferred conditioning adds no slack, because
  /// push_block() conditions as soon as a scan is due.
  std::size_t latency() const;

  /// Current acquisition-quality state of the degradation machine.
  dsp::SignalQuality quality() const { return quality_state_; }

  /// Cumulative robustness counters.
  const MonitorStats& stats() const { return stats_; }

  const embedded::EmbeddedClassifier& classifier() const {
    return classifier_;
  }

  /// Swap-safe classifier rebind (model hot-swap): a cold-path copy taken
  /// between beats by the thread that owns the monitor. Detection and
  /// conditioning state are untouched — the classifier only maps finalized
  /// windows to classes — so the replacement must share the incumbent's
  /// window length and coefficient count for the streams to stay aligned.
  void set_classifier(const embedded::EmbeddedClassifier& classifier) {
    classifier_ = classifier;
  }

  /// Opt-in drift hook (non-owning, nullptr detaches): every beat passed
  /// through classify() is observed through the projection already sitting
  /// in the classify scratch — zero extra projection cost. Beats a sink
  /// classifies elsewhere (the aggregator's batch; see service::Session)
  /// are NOT observed here, and Suspect beats are never observed — they
  /// were never projected, and doubtful signal must not teach the
  /// clusterer. The tracker must outlive the monitor or be detached first.
  void set_drift_tracker(drift::DriftTracker* tracker) { drift_ = tracker; }
  drift::DriftTracker* drift_tracker() const { return drift_; }

 private:
  /// The SQI chunk ended on `last` (absolute index `index`): applies the
  /// quality update, then gates that boundary sample.
  void end_sqi_chunk(dsp::SignalQuality update,
                     std::span<const dsp::Sample> last, std::size_t index,
                     bool was_bad, const PendingBeatSink& sink);
  /// Defers a run whose samples share one gating decision into the
  /// conditioner, moving out (and scanning) whatever a full batch produces;
  /// `suppressed` runs (consumed while in, entering or just leaving Bad)
  /// are only counted. `first` is the absolute index of the run's first
  /// sample.
  void accept(std::span<const dsp::Sample> run, std::size_t first,
              bool suppressed, const PendingBeatSink& sink);
  void scan(bool final_pass, const PendingBeatSink& sink);
  void on_quality_update(dsp::SignalQuality next, const PendingBeatSink& sink);
  dsp::SignalQuality quality_at(std::size_t absolute) const;
  void rearm(std::size_t at_absolute);
  /// Moves cond_out_ into the rolling buffer, scanning at every exact
  /// chunk-boundary crossing — the same scan positions the per-sample
  /// conditioner produced, so verdict streams are unchanged by batching.
  void append_conditioned(const PendingBeatSink& sink);
  /// Drains the conditioner's pending batch through append_conditioned().
  void sync_conditioner(const PendingBeatSink& sink);

  embedded::EmbeddedClassifier classifier_;
  // Reused across classify() calls (no per-beat allocation).
  embedded::ClassifyScratch classify_scratch_;
  drift::DriftTracker* drift_ = nullptr;  // opt-in, non-owning
  MonitorConfig cfg_;
  kernels::BlockConditioner conditioner_;
  // Conditioner output staging (reused; at most BlockConditioner::kMaxBatch
  // samples). Owned here, not in the per-thread kernel workspace, because
  // the sink runs while it is being drained.
  dsp::Signal cond_out_;
  std::vector<std::size_t> peaks_;  // detector output (reused)
  dsp::SignalQualityEstimator sqi_;
  dsp::Signal buffer_;           // rolling conditioned samples
  std::size_t buffer_base_ = 0;  // absolute index of buffer_[0]
  std::size_t emitted_up_to_ = 0;  // absolute index: peaks below are reported
  std::size_t chunk_samples_ = 0;
  std::size_t overlap_samples_ = 0;

  // Degradation machine (see header comment).
  dsp::SignalQuality quality_state_ = dsp::SignalQuality::Good;
  std::size_t input_index_ = 0;  // raw samples accepted onto the timeline
  bool needs_rearm_ = false;     // recovery pending: restart timeline anchors
  // Sparse (absolute index, state-from-there) history so beats finalized
  // several seconds later are tagged with the quality at *their* position.
  std::deque<std::pair<std::size_t, dsp::SignalQuality>> transitions_;
  dsp::SignalQuality baseline_quality_ = dsp::SignalQuality::Good;
  MonitorStats stats_;
};

}  // namespace hbrp::core

// Shared plumbing for the perfbench workloads: options, the trained model
// set-up, timing statistics, the outside-in call tracer, the RSS sampler and
// the result record every workload fills in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checker.hpp"
#include "core/trainer.hpp"
#include "drift/tracker.hpp"
#include "ecg/synth.hpp"
#include "embedded/bundle.hpp"
#include "net/gateway.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
};

/// Median of `v` (0 when empty).
double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1] (0 when empty).
double percentile(std::vector<double> v, double q);

/// Outside-in tracer: times each call the benchmark makes into a layer's
/// public functions. Spans are aggregated per name in memory (count and
/// total ns) and printed when the run ends. Disabled, span() is one branch.
class Trace {
 public:
  struct Span {
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
  };

  explicit Trace(bool on) : on_(on) {}
  bool on() const { return on_; }

  template <typename F>
  decltype(auto) span(const char* name, F&& f) {
    if (!on_) return f();
    const auto t0 = Clock::now();
    struct Close {
      Trace* t;
      const char* n;
      Clock::time_point t0;
      ~Close() { t->add(n, Clock::now() - t0); }
    } close{this, name, t0};
    return f();
  }

  void add(const char* name, Clock::duration d) {
    Span& s = spans_[name];
    ++s.count;
    s.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  }
  Span get(const std::string& name) const {
    const auto it = spans_.find(name);
    return it == spans_.end() ? Span{} : it->second;
  }
  void print() const;

 private:
  bool on_ = false;
  std::map<std::string, Span> spans_;
};

/// Samples the process RSS on a background thread while alive; peak_gain_mb()
/// is the peak since the last restart() minus the RSS at that restart.
/// restart() first returns the allocator's free memory to the system, so
/// the baseline is the live data (inputs, references) and the gain is what
/// the measured work touches.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  void restart();
  /// Samples now: call where the measured work holds the most state.
  void probe();
  double peak_gain_mb();

 private:
  std::atomic<long> base_pages_{0};
  std::atomic<long> peak_pages_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Runs gw.serve() on its own thread for the guard's lifetime; stops and
/// joins it on every exit path.
class Serving {
 public:
  explicit Serving(hbrp::net::GatewayServer& gw)
      : gw_(gw), thread_([&gw] { gw.serve(); }) {}
  ~Serving() { gw_.stop(); }
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

 private:
  hbrp::net::GatewayServer& gw_;
  std::jthread thread_;
};

/// The deployed model: trained float model, its quantized embedded form and
/// the drift seeds exported with it.
struct Model {
  hbrp::core::TrainedClassifier trained;
  hbrp::embedded::EmbeddedClassifier classifier;
  std::shared_ptr<const hbrp::drift::TrainingCentroids> centroids;
};

/// Set-up phase timings (medians over the repetitions in one run).
struct SetupTimes {
  double total_s = 0.0;
  double train_s = 0.0;
  double centroids_s = 0.0;
  double service_start_s = 0.0;
  double datasets_s = 0.0;  ///< training-set generation (bench overhead)
};

/// Runs the set-up `reps` times — training, quantize, centroid export and
/// `start_service` (gateway bind or engine construction), each repetition
/// from the same fixed training sets — and returns the last model.
Model setup_model(int reps,
                  const std::function<void(const Model&)>& start_service,
                  SetupTimes& times);

/// The ward's rhythm mix: stream i gets kProfiles[i % 4].
inline constexpr hbrp::ecg::RecordProfile kProfiles[] = {
    hbrp::ecg::RecordProfile::NormalSinus, hbrp::ecg::RecordProfile::PvcOccasional,
    hbrp::ecg::RecordProfile::PvcBigeminy, hbrp::ecg::RecordProfile::Lbbb};
inline constexpr double kHeartRates[] = {62.0, 70.0, 78.0, 86.0};

/// One synthetic lead sanitized exactly like the node's double path, so the
/// reference and the system under test see identical integer codes. The
/// heart rate is fixed per stream (the synthesizer would otherwise draw one
/// from the seed), so beats per second, and with them the per-beat cost, do
/// not swing from seed to seed.
std::vector<hbrp::dsp::Sample> synth_codes(hbrp::ecg::RecordProfile profile,
                                           double heart_rate_bpm,
                                           double seconds, std::uint64_t seed);
std::vector<hbrp::dsp::Sample> sanitize(std::span<const double> raw);

/// Reference path: the codes offered straight into a one-session
/// FleetEngine (no sockets, one thread) and pumped to completion.
std::vector<Verdict> direct_ingest(
    const hbrp::embedded::EmbeddedClassifier& classifier,
    std::span<const hbrp::dsp::Sample> codes);

/// Host facts stamped into every run's output.
void print_host();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What every workload hands back to main().
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced leg) and per-layer metrics (traced leg).
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  void metric(const std::string& name, double v, const std::string& unit) {
    e2e.push_back({name, v, unit});
  }
  void layer_metric(const std::string& name, double v,
                    const std::string& unit) {
    layer.push_back({name, v, unit});
  }
  void fail(const std::string& why);
};

/// Hand-off log of one closed-loop stream: (samples handed over so far, when).
using HandoffLog = std::vector<std::pair<std::uint64_t, Clock::time_point>>;

/// Closed-loop alarm latencies: each pathological verdict in `got`, timed
/// from the hand-off that covered the last sample of its window to its
/// `arrival`. Verdicts only the end-of-stream flush produced are skipped.
void closed_loop_alarms(const std::vector<Verdict>& got,
                        const std::vector<Clock::time_point>& arrival,
                        const HandoffLog& log, std::vector<double>& out_ms);

/// Gateway-side run invariants: nothing dropped, rejected or refused.
void check_gateway(const hbrp::net::GatewayStats& gs, Result& res);

/// Per-layer metrics every workload reports: the set-up timers, benchmark
/// overhead (training sets, inputs, reference) and the timed reference's
/// throughput, the scaling baseline.
void add_setup_layers(Result& res, const SetupTimes& setup, double inputs_s,
                      double reference_s, std::uint64_t reference_samples);

Result run_ward_stream(const Options& opt);
Result run_fleet_direct(const Options& opt);
Result run_ward_selective(const Options& opt);

/// Front-end / wire / lifecycle replay leg of a traced run: times the
/// layers' public calls over `codes` (one workload's own inputs) and adds
/// the per-layer metrics to `out`.
void replay_layers(const Model& model,
                   std::span<const std::vector<hbrp::dsp::Sample>> codes,
                   Result& out);

}  // namespace perfbench

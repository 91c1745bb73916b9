#include "harness.hpp"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "bench/common.hpp"
#include "core/streaming.hpp"
#include "ecg/dataset.hpp"
#include "math/check.hpp"
#include "net/client.hpp"
#include "service/fleet.hpp"

namespace perfbench {

using namespace hbrp;

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void Trace::print() const {
  std::printf("# trace spans (benchmark-side calls into layer APIs)\n");
  std::printf("#   %-34s %12s %14s %12s\n", "span", "calls", "total_ms",
              "ns/call");
  for (const auto& [name, s] : spans_)
    std::printf("#   %-34s %12llu %14.3f %12.1f\n", name.c_str(),
                static_cast<unsigned long long>(s.count),
                static_cast<double>(s.ns) / 1e6,
                s.count ? static_cast<double>(s.ns) /
                              static_cast<double>(s.count)
                        : 0.0);
}

namespace {

long resident_pages() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size = 0, resident = 0;
  if (std::fscanf(f, "%ld %ld", &size, &resident) != 2) resident = 0;
  std::fclose(f);
  return resident;
}

}  // namespace

RssSampler::RssSampler() {
  restart();
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      probe();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

void RssSampler::restart() {
  malloc_trim(0);
  base_pages_.store(resident_pages());
  peak_pages_.store(base_pages_.load());
}

void RssSampler::probe() {
  const long now = resident_pages();
  long peak = peak_pages_.load(std::memory_order_relaxed);
  while (now > peak && !peak_pages_.compare_exchange_weak(peak, now)) {
  }
}

RssSampler::~RssSampler() {
  stop_.store(true);
  thread_.join();
}

double RssSampler::peak_gain_mb() {
  probe();
  const double page_mb = static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
  return static_cast<double>(peak_pages_.load() - base_pages_) * page_mb;
}

Model setup_model(int reps,
                  const std::function<void(const Model&)>& start_service,
                  SetupTimes& times) {
  // Fixed training sets: the model is part of the system under test, not
  // of the workload, so every seed runs against the same classifier.
  const auto d0 = Clock::now();
  ecg::DatasetBuilderConfig dcfg;
  dcfg.record_duration_s = 120.0;
  dcfg.max_per_record_per_class = 20;
  dcfg.seed = 511;
  const auto ts1 = ecg::build_dataset({150, 150, 150}, dcfg);
  dcfg.max_per_record_per_class = 80;
  dcfg.seed = 512;
  const auto ts2 = ecg::build_dataset({1200, 120, 150}, dcfg);
  times.datasets_s = seconds_since(d0);

  std::vector<double> total, train, centroids, service;
  std::optional<Model> model;
  for (int r = 0; r < reps; ++r) {
    core::TwoStepConfig tcfg;
    tcfg.ga.population = 6;
    tcfg.ga.generations = 4;
    tcfg.seed = 513;
    tcfg.threads = 1;
    const auto t0 = Clock::now();
    core::TrainedClassifier trained = core::TwoStepTrainer(ts1, ts2, tcfg).run();
    embedded::EmbeddedClassifier clf = trained.quantize();
    const auto t1 = Clock::now();
    auto cents = std::make_shared<const drift::TrainingCentroids>(
        core::compute_training_centroids(clf, ts1));
    const auto t2 = Clock::now();
    model.emplace(Model{std::move(trained), std::move(clf), std::move(cents)});
    start_service(*model);
    const auto t3 = Clock::now();
    const auto sec = [](Clock::duration d) {
      return std::chrono::duration<double>(d).count();
    };
    train.push_back(sec(t1 - t0));
    centroids.push_back(sec(t2 - t1));
    service.push_back(sec(t3 - t2));
    total.push_back(sec(t3 - t0));
  }
  std::printf("set-up x%d: total", reps);
  for (const double t : total) std::printf(" %.3f", t);
  std::printf(" s (training sets %.2f s, not counted)\n", times.datasets_s);
  times.total_s = median(total);
  times.train_s = median(train);
  times.centroids_s = median(centroids);
  times.service_start_s = median(service);
  return std::move(*model);
}

std::vector<dsp::Sample> sanitize(std::span<const double> raw) {
  const core::MonitorConfig mc;
  std::vector<dsp::Sample> codes;
  codes.reserve(raw.size());
  dsp::Sample last = 0;
  for (const double x : raw)
    codes.push_back(
        net::SensorNodeClient::sanitize(x, mc.quality, last, nullptr));
  return codes;
}

std::vector<dsp::Sample> synth_codes(ecg::RecordProfile profile,
                                     double heart_rate_bpm, double seconds,
                                     std::uint64_t seed) {
  ecg::SynthConfig scfg;
  scfg.profile = profile;
  scfg.heart_rate_bpm = heart_rate_bpm;
  scfg.duration_s = seconds;
  scfg.num_leads = 1;
  scfg.seed = seed;
  const auto rec = ecg::generate_record(scfg);
  const std::vector<double> raw(rec.leads[0].begin(), rec.leads[0].end());
  return sanitize(raw);
}

std::vector<Verdict> direct_ingest(const embedded::EmbeddedClassifier& classifier,
                                   std::span<const dsp::Sample> codes) {
  service::FleetEngine engine(classifier, service::FleetConfig{});
  std::vector<Verdict> out;
  const auto id = engine.open_session([&out](const service::SessionResult& r) {
    out.push_back(Verdict{r.sequence, static_cast<std::uint64_t>(r.beat.r_peak),
                          static_cast<std::uint8_t>(r.beat.predicted),
                          static_cast<std::uint8_t>(r.beat.quality)});
  });
  HBRP_REQUIRE(id.has_value(), "direct_ingest: session refused");
  std::size_t off = 0;
  while (off < codes.size()) {
    const std::size_t n = std::min<std::size_t>(1024, codes.size() - off);
    off += engine.offer(*id, codes.subspan(off, n)).accepted;
    engine.pump();
  }
  engine.drain();
  engine.close_session(*id);
  return out;
}

void print_host() {
  // Host facts come from the same helpers that stamp the BENCH_*.json
  // reports (bench/common.hpp), so the two are comparable.
  std::printf("host: cpu_model=\"%s\" nproc=%u simd_level=%s virtualized=%s\n",
              kernels::cpu_model_name().c_str(),
              std::thread::hardware_concurrency(),
              kernels::to_string(kernels::active_level()),
              kernels::cpu_is_virtualized() ? "true" : "false");
}

void closed_loop_alarms(const std::vector<Verdict>& got,
                        const std::vector<Clock::time_point>& arrival,
                        const HandoffLog& log, std::vector<double>& out_ms) {
  const std::size_t window_after = core::MonitorConfig{}.window_after;
  for (std::size_t k = 0; k < got.size(); ++k) {
    if (got[k].beat_class == 0) continue;
    const std::uint64_t last = got[k].r_peak + window_after;
    const auto it = std::upper_bound(
        log.begin(), log.end(), last,
        [](std::uint64_t at, const auto& e) { return at < e.first; });
    if (it == log.end()) continue;
    out_ms.push_back(
        std::chrono::duration<double, std::milli>(arrival[k] - it->second)
            .count());
  }
}

void check_gateway(const net::GatewayStats& gs, Result& res) {
  if (gs.conns_dropped_protocol.load() || gs.frame_rejects.load() ||
      gs.seq_rejects.load() || gs.conns_dropped_overflow.load() ||
      gs.conns_refused_capacity.load())
    res.fail("gateway dropped, rejected or refused a connection");
}

void add_setup_layers(Result& res, const SetupTimes& setup, double inputs_s,
                      double reference_s, std::uint64_t reference_samples) {
  res.layer_metric("setup.train_s", setup.train_s, "s");
  res.layer_metric("setup.centroids_s", setup.centroids_s, "s");
  res.layer_metric("setup.gateway_start_s", setup.service_start_s, "s");
  res.layer_metric("overhead.inputs_s", setup.datasets_s + inputs_s, "s");
  res.layer_metric("overhead.reference_s", reference_s, "s");
  res.layer_metric("service.serial_samples_per_s",
                   static_cast<double>(reference_samples) / reference_s,
                   "samples/s");
}

void Result::fail(const std::string& why) {
  correct = false;
  std::printf("CHECK FAILED: %s\n", why.c_str());
}

}  // namespace perfbench

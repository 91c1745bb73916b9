// ward_selective: the paper's deployment mode, as an open loop.
//
// kNodes Selective sensor-node clients with drift escalation on replay
// adversarial scenarios at a fixed kSpeedup x real time: sample i of every
// node is due at t0 + i / (kSpeedup * 360 Hz), whatever the system is doing.
// Each node classifies on board and uploads only pathological, doubtful or
// novel beats as FULL_BEAT frames, which the gateway re-classifies and
// answers with BEAT_VERDICT. Beside them a fourth connection pushes a new
// bundle version of the *same* weights every kPushEvery, so model writes run
// beside verdict reads while every verdict stays checkable. The headline is
// the alarm latency: from the due time of a pathological beat's last window
// sample to its verdict arriving at the node.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "harness.hpp"
#include "lifecycle/bundle.hpp"
#include "net/client.hpp"
#include "net/gateway.hpp"
#include "net/push.hpp"
#include "scenario/episodes.hpp"
#include "service/fleet.hpp"

namespace perfbench {

using namespace hbrp;

namespace {

constexpr std::size_t kNodes = 3;
constexpr std::size_t kReactors = 2;
constexpr double kSpeedup = 100.0;  // K: signal seconds per wall second
// Each node replays a playlist of kSegmentSeconds scenarios, each with its
// own seed (a new patient): one patient's morphology decides how many of
// its beats the classifier escalates, so many short patients per run keep
// the per-beat radio cost from swinging with the seed.
constexpr double kSegmentSeconds = 50.0;
constexpr auto kPushEvery = std::chrono::milliseconds(400);
constexpr auto kTick = std::chrono::milliseconds(1);
constexpr double kFs = 360.0;

const char* const kScenarioNames[kNodes] = {"sustained_vt", "paced_rhythm",
                                            "morphology_shift"};

/// One adversarial segment of node `i`: `seconds` of signal.
scenario::ScenarioSpec node_scenario(std::size_t i, double seconds,
                                     std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.seed = seed;
  spec.duration_s = seconds;
  spec.heart_rate_bpm = 72.0;
  spec.name = kScenarioNames[i];
  switch (i) {
    case 0:  // a 12 s VT run over an occasional-PVC background
      spec.background = ecg::RecordProfile::PvcOccasional;
      spec.episodes.push_back(
          {scenario::EpisodeKind::SustainedVt, seconds * 0.4, 12.0, 1.0});
      break;
    case 1:
      spec.episodes.push_back({scenario::EpisodeKind::PacedRhythm,
                               seconds * 0.1, seconds * 0.8, 1.0});
      break;
    default:
      spec.episodes.push_back({scenario::EpisodeKind::MorphologyShift,
                               seconds * 0.25, seconds * 0.5, 1.0});
      break;
  }
  return spec;
}

struct Replay {
  double wall_s = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t beats = 0;
  std::vector<double> alarm_ms;
  std::vector<double> lag_ms;
  std::vector<double> push_ms;
  std::uint64_t pushes = 0;
  std::uint64_t push_failures = 0;
  std::uint64_t polls = 0;
  std::uint64_t idle_polls = 0;
};

}  // namespace

Result run_ward_selective(const Options& opt) {
  Result res;
  const double node_seconds = kSpeedup * opt.seconds;
  std::printf("workload ward_selective: open loop at K=%.0fx real time, %zu "
              "Selective nodes (drift escalation on) x %.0f s signal in %.0f s "
              "scenario segments, 1 generator thread, %zu reactors, one bundle "
              "push every %lld ms, seed %llu\n",
              kSpeedup, kNodes, node_seconds, kSegmentSeconds, kReactors,
              static_cast<long long>(kPushEvery.count()),
              static_cast<unsigned long long>(opt.seed));

  net::GatewayConfig gcfg;
  gcfg.reactors = kReactors;
  gcfg.fleet.max_sessions = kNodes;
  std::unique_ptr<net::GatewayServer> gateway;
  SetupTimes setup;
  const Model model = setup_model(
      5,
      [&](const Model& m) {
        gateway.reset();
        gateway = std::make_unique<net::GatewayServer>(m.classifier, gcfg);
      },
      setup);

  const auto in0 = Clock::now();
  std::vector<std::vector<dsp::Sample>> codes(kNodes);
  std::uint64_t total_samples = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    std::vector<double> raw;
    for (std::uint64_t seg = 0; static_cast<double>(seg) * kSegmentSeconds <
                                node_seconds;
         ++seg) {
      const auto spec = node_scenario(i, kSegmentSeconds,
                                      opt.seed * 100000 + i * 1000 + seg);
      const auto part = scenario::build_scenario(spec).samples;
      raw.insert(raw.end(), part.begin(), part.end());
    }
    codes[i] = sanitize(raw);
    total_samples += codes[i].size();
  }
  const double inputs_s = seconds_since(in0);
  const auto ref0 = Clock::now();
  std::vector<std::vector<Verdict>> reference(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i)
    reference[i] = direct_ingest(model.classifier, codes[i]);
  const double reference_s = seconds_since(ref0);
  std::printf("inputs %.2f s, reference %.2f s (benchmark overhead)\n",
              inputs_s, reference_s);
  if (!checker_self_test(reference[0], codes[0].size()))
    res.fail("checker self-test");

  std::optional<Serving> serving(std::in_place, *gateway);
  Ledger ledger;
  std::uint64_t next_version = 2;  // the construction model is version 1

  auto replay = [&](Trace& trace, RssSampler* rss) {
    Replay out;
    std::vector<std::vector<Verdict>> got(kNodes);
    std::vector<std::vector<Clock::time_point>> arrival(kNodes);
    // Declared after the sinks' targets, so the clients go first.
    std::vector<std::unique_ptr<net::SensorNodeClient>> clients;
    for (std::size_t i = 0; i < kNodes; ++i) {
      net::NodeConfig ncfg;
      ncfg.port = gateway->port();
      ncfg.node_id = static_cast<std::uint32_t>(i);
      ncfg.policy = net::TxPolicy::Selective;
      ncfg.heartbeat_interval_ms = 0;
      ncfg.drift_centroids = model.centroids;
      auto c = std::make_unique<net::SensorNodeClient>(model.classifier, ncfg);
      c->set_verdict_sink(
          [&got, &arrival, i](std::uint64_t seq, const net::BeatVerdictMsg& v) {
            got[i].push_back(Verdict{seq, v.r_peak, v.beat_class, v.quality});
            arrival[i].push_back(Clock::now());
          });
      clients.push_back(std::move(c));
    }
    const double rate = kSpeedup * kFs;  // samples per wall second per node
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    const auto due = [&](std::uint64_t sample) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(sample) / rate));
    };

    // The pusher: one control connection per push, at a fixed wall cadence.
    std::jthread pusher([&](std::stop_token stop) {
      lifecycle::ModelBundle bundle{1, model.trained, *model.centroids, -1.0};
      for (auto at = t0 + kPushEvery;; at += kPushEvery) {
        std::this_thread::sleep_until(at);
        if (stop.stop_requested()) break;
        bundle.version = next_version++;
        const auto p0 = Clock::now();
        const net::PushResult r = net::push_bundle(gateway->port(), bundle);
        out.push_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - p0)
                .count());
        ++out.pushes;
        const bool ok = r.delivered && r.status == net::ModelPushStatus::Ok;
        if (!ok) {
          ++out.push_failures;
          std::printf("PUSH FAILED: version %llu %s %s\n",
                      static_cast<unsigned long long>(bundle.version),
                      r.delivered ? net::to_string(r.status) : "undelivered",
                      r.error.c_str());
        }
        ledger.check_push(ok);
      }
    });

    std::vector<std::size_t> off(kNodes, 0);
    std::size_t pending = kNodes;
    std::this_thread::sleep_until(t0);
    for (auto tick = t0; pending > 0; tick += kTick) {
      const auto now = Clock::now();
      const auto target = static_cast<std::uint64_t>(
          std::chrono::duration<double>(now - t0).count() * rate);
      for (std::size_t i = 0; i < kNodes; ++i) {
        const auto& lead = codes[i];
        if (off[i] >= lead.size()) continue;
        const std::size_t end = std::min<std::size_t>(target, lead.size());
        if (end > off[i]) {
          out.lag_ms.push_back(
              std::chrono::duration<double, std::milli>(now - due(off[i]))
                  .count());
          trace.span("net.client.push", [&] {
            clients[i]->push(std::span<const dsp::Sample>(lead.data() + off[i],
                                                          end - off[i]));
          });
          off[i] = end;
        }
        if (off[i] >= lead.size()) {
          clients[i]->finish();
          --pending;
        }
      }
      for (auto& c : clients) {
        const bool moved =
            trace.span("net.client.poll_once", [&] { return c->poll_once(0); });
        ++out.polls;
        if (!moved) ++out.idle_polls;
      }
      std::this_thread::sleep_until(tick + kTick);
    }
    if (rss != nullptr) rss->probe();
    for (auto& c : clients)
      trace.span("net.client.close", [&] { c->close(/*deadline_ms=*/60000); });
    out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    pusher.request_stop();
    pusher.join();

    const std::size_t window_after = core::MonitorConfig{}.window_after;
    for (std::size_t i = 0; i < kNodes; ++i) {
      const net::TxStats& s = clients[i]->stats();
      out.samples += codes[i].size();
      out.bytes_tx += s.bytes_tx;
      out.beats += s.beats_local + s.beats_uploaded;
      char label[64];
      std::snprintf(label, sizeof label, "node %zu", i);
      ledger.check_selective(reference[i], got[i], label);
      std::printf("  node %zu (%s): %zu beats, %llu local, %llu uploaded (%llu "
                  "drift escalations), %llu B sent, %zu verdicts\n",
                  i, kScenarioNames[i], reference[i].size(),
                  static_cast<unsigned long long>(s.beats_local),
                  static_cast<unsigned long long>(s.beats_uploaded),
                  static_cast<unsigned long long>(s.drift_escalations),
                  static_cast<unsigned long long>(s.bytes_tx), got[i].size());
      if (s.beats_local + s.beats_uploaded != reference[i].size()) {
        char why[160];
        std::snprintf(why, sizeof why,
                      "%s: beats_local %llu + beats_uploaded %llu != %zu "
                      "reference beats",
                      label, static_cast<unsigned long long>(s.beats_local),
                      static_cast<unsigned long long>(s.beats_uploaded),
                      reference[i].size());
        res.fail(why);
      }
      if (s.frames_dropped || s.verdict_seq_gaps || s.reconnects ||
          s.parse_rejects || s.hello_rejects || s.verdict_dups ||
          clients[i]->unacked_full_beats() != 0 ||
          clients[i]->state() != net::LinkState::Closed)
        res.fail(std::string(label) + ": run invariant broken (shed frames, "
                                      "sequence gaps, duplicates, reconnects "
                                      "or unacked uploads)");
      for (std::size_t k = 0; k < got[i].size(); ++k) {
        const Verdict& v = got[i][k];
        if (v.beat_class == 0) continue;
        const std::uint64_t last = v.r_peak + window_after;
        out.alarm_ms.push_back(std::chrono::duration<double, std::milli>(
                                   arrival[i][k] - due(last))
                                   .count());
      }
    }
    return out;
  };

  const net::GatewayStats& gs = gateway->stats();
  const service::FleetTelemetry& ft = gateway->engine().telemetry();
  Trace off(false);
  RssSampler rss;
  const Replay base = replay(off, &rss);
  const double rss_mb = rss.peak_gain_mb();
  Trace trace(true);
  const std::uint64_t nack0 = gs.model_push_nacks.load(),
                      swaps0 = ft.swaps_applied.load(),
                      wake0 = gs.wakeups.load(), idle0 = gs.idle_wakeups.load(),
                      frx0 = gs.frames_rx.load();
  Replay traced;
  if (opt.trace) traced = replay(trace, nullptr);
  serving.reset();
  check_gateway(gs, res);

  std::printf("alarms: %zu pathological verdicts timed from their due time; "
              "generator lag p99 %.3f ms; %llu pushes (%llu failed)\n",
              base.alarm_ms.size(), percentile(base.lag_ms, 0.99),
              static_cast<unsigned long long>(base.pushes),
              static_cast<unsigned long long>(base.push_failures));
  res.metric("setup_s", setup.total_s, "s");
  res.metric("samples_per_s",
             static_cast<double>(base.samples) / base.wall_s, "samples/s");
  res.metric("alarm_latency_p50_ms", percentile(base.alarm_ms, 0.50), "ms");
  res.metric("alarm_latency_p99_ms", percentile(base.alarm_ms, 0.99), "ms");
  res.metric("radio_bytes_per_beat",
             static_cast<double>(base.bytes_tx) / static_cast<double>(base.beats),
             "B/beat");
  res.metric("run_rss_mb", rss_mb, "MB");

  res.attempted = ledger.attempted;
  res.failed = ledger.failed;
  if (ledger.failed > 0)
    res.fail("selective verdicts or pushes failed the reference check");
  std::printf("failed_frac: %llu / %llu operations (owed verdicts + model "
              "pushes) = %.3g\n",
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<double>(ledger.failed) /
                  static_cast<double>(ledger.attempted));

  if (opt.trace) {
    const double base_rate = static_cast<double>(base.samples) / base.wall_s;
    const double traced_rate =
        static_cast<double>(traced.samples) / traced.wall_s;
    add_setup_layers(res, setup, inputs_s, reference_s, total_samples);
    res.layer_metric("net.client.push_ns_per_sample",
                     static_cast<double>(trace.get("net.client.push").ns) /
                         static_cast<double>(traced.samples),
                     "ns/sample");
    const double wake = static_cast<double>(gs.wakeups.load() - wake0);
    res.layer_metric("net.client.poll_idle_frac",
                     static_cast<double>(traced.idle_polls) /
                         static_cast<double>(traced.polls),
                     "ratio");
    res.layer_metric("net.gateway.frames_rx_per_wakeup",
                     static_cast<double>(gs.frames_rx.load() - frx0) / wake,
                     "frames");
    res.layer_metric("net.gateway.idle_wakeup_frac",
                     static_cast<double>(gs.idle_wakeups.load() - idle0) / wake,
                     "ratio");
    res.layer_metric("lifecycle.push_ms_p50", percentile(traced.push_ms, 0.5),
                     "ms");
    res.layer_metric("lifecycle.push_ms_p99", percentile(traced.push_ms, 0.99),
                     "ms");
    res.layer_metric("lifecycle.push_nacks",
                     static_cast<double>(gs.model_push_nacks.load() - nack0),
                     "count");
    res.layer_metric("service.swaps_applied",
                     static_cast<double>(ft.swaps_applied.load() - swaps0),
                     "count");
    res.layer_metric("generator.lag_ms_p99", percentile(traced.lag_ms, 0.99),
                     "ms");
    res.layer_metric("trace.overhead_frac", 1.0 - traced_rate / base_rate,
                     "ratio");
    trace.print();
    replay_layers(model, codes, res);
  }
  return res;
}

}  // namespace perfbench

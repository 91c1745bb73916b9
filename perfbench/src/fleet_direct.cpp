// fleet_direct: in-process FleetEngine ingest, no sockets.
//
// One producer thread offers blocks of samples to hundreds of sessions and
// calls pump(); the engine's executor adds kThreads - 1 workers, so the
// producer plus the executor stay within a 4-CPU host. Per-session monitor
// state for hundreds of sessions exceeds L2 and the cross-session batches are
// large, which weights service and embedded more than ward_stream does, and
// net is bypassed entirely: a wire-only change must show no change here.
// Every session's verdict stream is checked byte for byte against
// single-session serial ingest of the same codes.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "harness.hpp"
#include "service/fleet.hpp"

namespace perfbench {

using namespace hbrp;

namespace {

constexpr std::size_t kSessions = 256;
constexpr double kSessionSeconds = 300.0;
constexpr std::size_t kThreads = 3;  // executor threads, producer included
constexpr std::size_t kBlock = 2048;  // samples per offer

struct Pass {
  double wall_s = 0.0;
  double close_s = 0.0;
  double pump_s = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t offered = 0;
  std::uint64_t deferred = 0;
  double rss_mb = 0.0;
  std::vector<double> alarm_ms;
};

}  // namespace

Result run_fleet_direct(const Options& opt) {
  Result res;
  std::printf("workload fleet_direct: %zu sessions x %.0f s signal, 1 producer "
              "+ %zu executor threads (%zu shards), %zu-sample offers, seed "
              "%llu\n",
              kSessions, kSessionSeconds, kThreads, kThreads, kBlock,
              static_cast<unsigned long long>(opt.seed));

  service::FleetConfig fcfg;
  fcfg.threads = kThreads;
  fcfg.max_sessions = kSessions;
  fcfg.max_queued_samples = kSessions * (1u << 14);
  std::optional<service::FleetEngine> engine;
  SetupTimes setup;
  const Model model = setup_model(
      5, [&](const Model& m) { engine.emplace(m.classifier, fcfg); }, setup);

  const auto in0 = Clock::now();
  std::vector<std::vector<dsp::Sample>> codes(kSessions);
  std::uint64_t total_samples = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    codes[i] = synth_codes(kProfiles[i % std::size(kProfiles)],
                           kHeartRates[(i / 4) % std::size(kHeartRates)],
                           kSessionSeconds, opt.seed * 100000 + i);
    total_samples += codes[i].size();
  }
  const double inputs_s = seconds_since(in0);

  const auto ref0 = Clock::now();
  std::vector<std::vector<Verdict>> reference(kSessions);
  std::uint64_t total_beats = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    reference[i] = direct_ingest(model.classifier, codes[i]);
    total_beats += reference[i].size();
  }
  const double reference_s = seconds_since(ref0);
  std::printf("inputs %.2f s, serial reference %.2f s (benchmark overhead)\n",
              inputs_s, reference_s);
  if (!checker_self_test(reference[0], codes[0].size()))
    res.fail("checker self-test");

  Ledger ledger;
  RssSampler* rss_probe = nullptr;  // set while a timed phase runs
  auto run_pass = [&](Trace& trace, std::size_t index) {
    Pass p;
    std::vector<std::vector<Verdict>> got(kSessions);
    std::vector<std::vector<Clock::time_point>> arrival(kSessions);
    std::vector<HandoffLog> offered(kSessions);
    std::vector<service::SessionId> ids(kSessions);
    if (rss_probe != nullptr) rss_probe->restart();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kSessions; ++i) {
      got[i].reserve(reference[i].size());
      arrival[i].reserve(reference[i].size());
      offered[i].reserve(codes[i].size() / kBlock + 4);
      const auto id = engine->open_session(
          [&got, &arrival, i](const service::SessionResult& r) {
            got[i].push_back(
                Verdict{r.sequence, static_cast<std::uint64_t>(r.beat.r_peak),
                        static_cast<std::uint8_t>(r.beat.predicted),
                        static_cast<std::uint8_t>(r.beat.quality)});
            arrival[i].push_back(Clock::now());
          });
      if (!id) throw std::runtime_error("fleet_direct: open_session refused");
      ids[i] = *id;
    }
    std::vector<std::size_t> off(kSessions, 0);
    for (bool more = true; more;) {
      more = false;
      for (std::size_t i = 0; i < kSessions; ++i) {
        const auto& lead = codes[i];
        if (off[i] >= lead.size()) continue;
        const std::size_t n = std::min(kBlock, lead.size() - off[i]);
        const service::OfferOutcome o = trace.span("service.offer", [&] {
          return engine->offer(
              ids[i], std::span<const dsp::Sample>(lead.data() + off[i], n));
        });
        off[i] += o.accepted;
        p.offered += n;
        p.deferred += o.deferred + o.rejected;
        offered[i].push_back({off[i], Clock::now()});
        more |= off[i] < lead.size();
      }
      const auto q0 = Clock::now();
      trace.span("service.pump", [&] { engine->pump(); });
      p.pump_s += seconds_since(q0);
    }
    const auto q0 = Clock::now();
    trace.span("service.pump", [&] { engine->drain(); });
    p.pump_s += seconds_since(q0);
    if (rss_probe != nullptr) rss_probe->probe();
    const auto c0 = Clock::now();
    for (const service::SessionId id : ids)
      trace.span("service.close_session", [&] { engine->close_session(id); });
    p.close_s = seconds_since(c0);
    p.wall_s = seconds_since(t0);
    if (rss_probe != nullptr) p.rss_mb = rss_probe->peak_gain_mb();
    p.samples = total_samples;

    for (std::size_t i = 0; i < kSessions; ++i) {
      char label[64];
      std::snprintf(label, sizeof label, "pass %zu session %zu", index, i);
      ledger.check_stream(reference[i], got[i], codes[i].size(), label);
      closed_loop_alarms(got[i], arrival[i], offered[i], p.alarm_ms);
    }
    return p;
  };

  struct Phase {
    std::vector<Pass> passes;
    double samples_per_s = 0.0;
    double p50 = 0.0, p99 = 0.0;
    double rss_mb = 0.0;
  };
  auto run_phase = [&](bool traced, Trace& trace) {
    Phase ph;
    if (!traced) {
      Trace off(false);
      run_pass(off, 0);  // warm-up: checked, not measured
    }
    RssSampler rss;
    rss_probe = &rss;
    const auto t0 = Clock::now();
    do {
      ph.passes.push_back(run_pass(trace, ph.passes.size() + 1));
    } while (seconds_since(t0) < opt.seconds);
    rss_probe = nullptr;
    std::vector<double> rates, p50, p99, rss_mb;
    for (const Pass& p : ph.passes) {
      rates.push_back(static_cast<double>(p.samples) / p.wall_s);
      p50.push_back(percentile(p.alarm_ms, 0.50));
      p99.push_back(percentile(p.alarm_ms, 0.99));
      rss_mb.push_back(p.rss_mb);
      std::printf("  pass: %.3f s, %.0f samples/s, %zu alarms p50 %.1f ms p99 "
                  "%.1f ms, rss +%.2f MB\n",
                  p.wall_s, rates.back(), p.alarm_ms.size(), p50.back(),
                  p99.back(), p.rss_mb);
    }
    ph.rss_mb = median(rss_mb);
    ph.samples_per_s = median(rates);
    ph.p50 = median(p50);
    ph.p99 = median(p99);
    std::printf("%s phase: %zu passes, samples/s median %.0f (min %.0f, max "
                "%.0f), %zu alarms in the last pass\n",
                traced ? "traced" : "untraced", ph.passes.size(),
                ph.samples_per_s, *std::min_element(rates.begin(), rates.end()),
                *std::max_element(rates.begin(), rates.end()),
                ph.passes.back().alarm_ms.size());
    return ph;
  };

  Trace off(false);
  const service::FleetTelemetry& ft = engine->telemetry();
  const Phase base = run_phase(false, off);
  Trace trace(true);
  const std::uint64_t drain0 = ft.drain_ns.load(), cls0 = ft.classify_ns.load(),
                      del0 = ft.deliver_ns.load(), bat0 = ft.batches.load(),
                      bb0 = ft.batched_beats.load();
  Phase traced;
  if (opt.trace) traced = run_phase(true, trace);

  res.metric("setup_s", setup.total_s, "s");
  res.metric("samples_per_s", base.samples_per_s, "samples/s");
  res.metric("alarm_latency_p50_ms", base.p50, "ms");
  res.metric("alarm_latency_p99_ms", base.p99, "ms");
  // No radio on this path: the node side hands the engine 4-byte codes.
  res.metric("radio_bytes_per_beat",
             4.0 * static_cast<double>(total_samples) /
                 static_cast<double>(total_beats),
             "B/beat");
  res.metric("run_rss_mb", base.rss_mb, "MB");
  std::printf("real-time equivalent: %.0f patients at 360 Hz\n",
              base.samples_per_s / 360.0);

  res.attempted = ledger.attempted;
  res.failed = ledger.failed;
  if (ledger.failed > 0)
    res.fail("fleet verdicts diverge from single-session serial ingest");
  std::printf("failed_frac: %llu / %llu owed verdicts = %.3g (%llu of %llu "
              "sessions divergent)\n",
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<double>(ledger.failed) /
                  static_cast<double>(ledger.attempted),
              static_cast<unsigned long long>(ledger.sessions_divergent),
              static_cast<unsigned long long>(ledger.sessions_checked));

  if (opt.trace) {
    double pump_s = 0.0, close_s = 0.0;
    std::uint64_t samples = 0, offered = 0, deferred = 0;
    for (const Pass& p : traced.passes) {
      pump_s += p.pump_s;
      close_s += p.close_s;
      samples += p.samples;
      offered += p.offered;
      deferred += p.deferred;
    }
    const double pump_ns = pump_s * 1e9 * static_cast<double>(kThreads);
    const double drain = static_cast<double>(ft.drain_ns.load() - drain0);
    const double cls = static_cast<double>(ft.classify_ns.load() - cls0);
    const double del = static_cast<double>(ft.deliver_ns.load() - del0);
    add_setup_layers(res, setup, inputs_s, reference_s, total_samples);
    res.layer_metric("service.offer_ns_per_sample",
                     static_cast<double>(trace.get("service.offer").ns) /
                         static_cast<double>(samples),
                     "ns/sample");
    res.layer_metric("service.pump_ns_per_sample",
                     static_cast<double>(trace.get("service.pump").ns) /
                         static_cast<double>(samples),
                     "ns/sample");
    const auto closes = trace.get("service.close_session");
    res.layer_metric("service.close_ms",
                     static_cast<double>(closes.ns) / 1e6 /
                         static_cast<double>(closes.count),
                     "ms");
    res.layer_metric("service.drain_frac", drain / pump_ns, "ratio");
    res.layer_metric("service.classify_frac", cls / pump_ns, "ratio");
    res.layer_metric("service.deliver_frac", del / pump_ns, "ratio");
    res.layer_metric("service.unphased_frac",
                     1.0 - (drain + cls + del) / pump_ns, "ratio");
    res.layer_metric("service.batch_beats_mean",
                     static_cast<double>(ft.batched_beats.load() - bb0) /
                         static_cast<double>(ft.batches.load() - bat0),
                     "beats");
    res.layer_metric("service.deferred_frac",
                     static_cast<double>(deferred) / static_cast<double>(offered),
                     "ratio");
    res.layer_metric("trace.overhead_frac",
                     1.0 - traced.samples_per_s / base.samples_per_s, "ratio");
    trace.print();
    replay_layers(model, std::span(codes).first(4), res);
  }
  return res;
}

}  // namespace perfbench

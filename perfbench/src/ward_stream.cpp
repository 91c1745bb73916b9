// ward_stream: the gateway's saturated capacity.
//
// A closed loop of kNodes StreamEverything sensor-node clients, all driven
// by one generator thread, pushing long synthetic records (profiles rotate
// N / PVC / bigeminy / LBBB) as fast as TCP backpressure and a bounded
// in-flight window allow into a GatewayServer with kReactors reactors.
// Every sample crosses the wire, so net framing, CRC and syscalls plus the
// gateway's drain (conditioning and detection) carry the cost. Every
// session's verdict stream is checked against direct in-process FleetEngine
// ingest of the identical codes.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>

#include "harness.hpp"
#include "net/client.hpp"
#include "net/gateway.hpp"
#include "service/fleet.hpp"

namespace perfbench {

using namespace hbrp;

namespace {

constexpr std::size_t kNodes = 4;
constexpr std::size_t kReactors = 2;
constexpr double kNodeSeconds = 2.0 * 3600.0;
// Each node's stream is a playlist of kRecordSeconds records, one patient
// each: how many beats the detector finds depends on the patient's
// morphology, so many patients per run keep per-beat figures from swinging
// with the seed. Record k of node i plays rhythm (i + k) % 4, so every node
// carries the same mix and the alarms (all LBBB beats are pathological) are
// spread over every connection and reactor rather than one node's.
constexpr double kRecordSeconds = 900.0;
constexpr std::size_t kPacket = 512;               // samples per push()
constexpr std::size_t kBurst = 8;                  // pushes per node per turn
constexpr std::size_t kPendingCap = 256u << 10;    // queued bytes per node
// Samples a node may hand over past the R peak of its last verdict. The
// window keeps the gateway saturated while bounding what is in flight, so
// the closed-loop alarm latency measures the pipeline rather than how far
// the kernel happened to grow the loopback socket buffers in a given run.
constexpr std::uint64_t kWindow = std::uint64_t{1} << 17;

struct Replay {
  double wall_s = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t beats = 0;  ///< reference beats (detected)
  std::uint64_t polls = 0;
  std::uint64_t idle_polls = 0;
  double rss_mb = 0.0;
  std::vector<double> alarm_ms;
  /// Sessions, and their samples, the engine had not yet taken in when
  /// every byte was on the wire: where a plain close would race the defect.
  std::uint64_t exposed_sessions = 0;
  std::uint64_t exposed_samples = 0;
};

/// One ward replay against the running gateway: connect every node, push
/// the whole record, wait until the gateway has taken every sample in,
/// close (BYE + verdict tail).
Replay replay(const Model& model, const net::GatewayServer& gateway,
              const std::vector<std::vector<dsp::Sample>>& codes,
              const std::vector<std::vector<Verdict>>& reference,
              Trace& trace, Ledger& ledger, Result& res, std::size_t index,
              RssSampler* rss) {
  Replay out;
  if (rss != nullptr) rss->restart();
  const service::FleetEngine& engine = gateway.engine();
  // Session ids are dense and increasing, so this replay's sessions are
  // the ones opened from here on.
  const std::uint64_t opened0 = engine.telemetry().sessions_opened.load();
  std::vector<std::vector<Verdict>> got(kNodes);
  std::vector<std::vector<Clock::time_point>> arrival(kNodes);
  // The due time of a sample in a closed loop is when it was handed to the
  // node.
  std::vector<HandoffLog> pushed(kNodes);
  // Declared after the sinks' targets, so the clients go first.
  std::vector<std::unique_ptr<net::SensorNodeClient>> clients;
  for (std::size_t i = 0; i < kNodes; ++i) {
    net::NodeConfig ncfg;
    ncfg.port = gateway.port();
    ncfg.node_id = static_cast<std::uint32_t>(i);
    ncfg.policy = net::TxPolicy::StreamEverything;
    ncfg.heartbeat_interval_ms = 0;  // clean byte accounting
    auto c = std::make_unique<net::SensorNodeClient>(model.classifier, ncfg);
    got[i].reserve(reference[i].size());
    arrival[i].reserve(reference[i].size());
    pushed[i].reserve(codes[i].size() / kPacket + 1);
    c->set_verdict_sink(
        [&got, &arrival, i](std::uint64_t seq, const net::BeatVerdictMsg& v) {
          got[i].push_back(Verdict{seq, v.r_peak, v.beat_class, v.quality});
          arrival[i].push_back(Clock::now());
        });
    clients.push_back(std::move(c));
  }

  const auto t0 = Clock::now();
  std::vector<std::size_t> off(kNodes, 0);
  std::size_t pushing = kNodes;
  std::size_t idle_turn = 0;
  auto poll = [&](std::size_t i, int timeout_ms) {
    const bool moved = trace.span("net.client.poll_once", [&] {
      return clients[i]->poll_once(timeout_ms);
    });
    ++out.polls;
    if (!moved) ++out.idle_polls;
    return moved;
  };
  auto idle_wait = [&] { poll(idle_turn++ % kNodes, 1); };
  while (pushing > 0) {
    bool moved = false;
    for (std::size_t i = 0; i < kNodes; ++i) {
      const auto& lead = codes[i];
      if (off[i] >= lead.size()) continue;
      const std::uint64_t confirmed = got[i].empty() ? 0 : got[i].back().r_peak;
      for (std::size_t b = 0; b < kBurst && off[i] < lead.size() &&
                              off[i] < confirmed + kWindow &&
                              clients[i]->pending_bytes() < kPendingCap;
           ++b) {
        const std::size_t n = std::min(kPacket, lead.size() - off[i]);
        trace.span("net.client.push", [&] {
          clients[i]->push(
              std::span<const dsp::Sample>(lead.data() + off[i], n));
        });
        off[i] += n;
        pushed[i].push_back({off[i], Clock::now()});
        moved = true;
      }
      if (off[i] >= lead.size()) {
        clients[i]->finish();
        --pushing;
      }
    }
    for (std::size_t i = 0; i < kNodes; ++i) moved |= poll(i, 0);
    if (!moved) idle_wait();
  }
  for (bool busy = true; busy;) {
    busy = false;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (clients[i]->pending_bytes() == 0) continue;
      busy = true;
      if (!poll(i, 0)) poll(i, 1);
    }
  }
  // Every byte is on the wire, where a plain close would send BYE. The
  // gateway parks a chunk's samples when the session queue is full but
  // keeps dispatching that connection's frames, so a BYE read behind a
  // parked chunk closes the session without offering them and its tail
  // verdicts are lost: on about one session in ten, at random. That
  // gateway defect is still open. Count the sessions a BYE sent now would
  // expose to it, then hold every BYE until the engine has accepted every
  // sample, so a run's failure count does not vary by chance. A verdict
  // lost all the same is a failed operation.
  auto accepted = [&](bool count_exposed) {
    std::uint64_t n = 0;
    const std::uint64_t opened = engine.telemetry().sessions_opened.load();
    for (std::uint64_t id = opened0 + 1; id <= opened; ++id) {
      const auto* t = engine.session_telemetry(id);
      if (t == nullptr) continue;
      const std::uint64_t got_in = t->samples_accepted.load();
      n += got_in;
      // Every node streams the same number of samples.
      if (count_exposed && got_in < codes[0].size()) {
        ++out.exposed_sessions;
        out.exposed_samples += codes[0].size() - got_in;
      }
    }
    return n;
  };
  std::uint64_t owed_samples = 0;
  for (const auto& lead : codes) owed_samples += lead.size();
  (void)accepted(/*count_exposed=*/true);
  const auto quiesce0 = Clock::now();
  while (accepted(false) < owed_samples) {
    if (seconds_since(quiesce0) > 60.0) {
      res.fail("gateway did not take in every pushed sample within 60 s");
      break;
    }
    bool moved = false;
    for (std::size_t i = 0; i < kNodes; ++i) moved |= poll(i, 0);
    if (!moved) idle_wait();
  }
  if (rss != nullptr) rss->probe();
  for (auto& c : clients)
    trace.span("net.client.close", [&] { c->close(/*deadline_ms=*/60000); });
  out.wall_s = seconds_since(t0);
  if (rss != nullptr) out.rss_mb = rss->peak_gain_mb();

  for (std::size_t i = 0; i < kNodes; ++i) {
    const net::TxStats& s = clients[i]->stats();
    out.samples += codes[i].size();
    out.bytes_tx += s.bytes_tx;
    out.beats += reference[i].size();
    char label[64];
    std::snprintf(label, sizeof label, "replay %zu node %zu", index, i);
    ledger.check_stream(reference[i], got[i], codes[i].size(), label);
    if (s.frames_dropped || s.verdict_seq_gaps || s.reconnects ||
        s.parse_rejects || s.hello_rejects || s.verdict_dups ||
        clients[i]->state() != net::LinkState::Closed) {
      char why[160];
      std::snprintf(why, sizeof why,
                    "%s: run invariant broken (shed=%llu gaps=%llu "
                    "reconnects=%llu parse_rejects=%llu dups=%llu)",
                    label, static_cast<unsigned long long>(s.frames_dropped),
                    static_cast<unsigned long long>(s.verdict_seq_gaps),
                    static_cast<unsigned long long>(s.reconnects),
                    static_cast<unsigned long long>(s.parse_rejects),
                    static_cast<unsigned long long>(s.verdict_dups));
      res.fail(why);
    }
    closed_loop_alarms(got[i], arrival[i], pushed[i], out.alarm_ms);
  }
  return out;
}

struct Phase {
  std::vector<Replay> replays;
  double samples_per_s = 0.0;
  double p50 = 0.0, p99 = 0.0;  ///< median over replays of each percentile
  double rss_mb = 0.0;
};

}  // namespace

Result run_ward_stream(const Options& opt) {
  Result res;
  std::printf("workload ward_stream: closed loop, %zu StreamEverything nodes x "
              "%.0f s signal each in %.0f s records, 1 generator thread, %zu "
              "reactors, seed %llu\n",
              kNodes, kNodeSeconds, kRecordSeconds, kReactors,
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
  for (std::size_t i = 0; i < kNodes; ++i) {
    for (std::uint64_t k = 0; static_cast<double>(k) * kRecordSeconds <
                              kNodeSeconds;
         ++k) {
      const std::size_t rhythm = (i + k) % std::size(kProfiles);
      const auto part = synth_codes(kProfiles[rhythm], kHeartRates[rhythm],
                                    kRecordSeconds, opt.seed * 1000 + i * 100 + k);
      codes[i].insert(codes[i].end(), part.begin(), part.end());
    }
  }
  const double inputs_s = seconds_since(in0);

  const auto ref0 = Clock::now();
  std::vector<std::vector<Verdict>> reference(kNodes);
  std::uint64_t total_samples = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    reference[i] = direct_ingest(model.classifier, codes[i]);
    total_samples += codes[i].size();
  }
  const double reference_s = seconds_since(ref0);
  if (!checker_self_test(reference[0], codes[0].size()))
    res.fail("checker self-test");

  std::optional<Serving> serving(std::in_place, *gateway);
  Ledger ledger;
  auto run_phase = [&](bool traced, Trace& trace) {
    Phase p;
    if (!traced) {
      Trace off(false);
      replay(model, *gateway, codes, reference, off, ledger, res, 0, nullptr);
    }  // warm-up replay: checked, not measured
    RssSampler rss;
    const auto t0 = Clock::now();
    do {
      p.replays.push_back(replay(model, *gateway, codes, reference,
                                 trace, ledger, res, p.replays.size() + 1,
                                 &rss));
    } while (seconds_since(t0) < opt.seconds);
    std::vector<double> rates, p50, p99, rss_mb;
    for (const Replay& r : p.replays) {
      rates.push_back(static_cast<double>(r.samples) / r.wall_s);
      p50.push_back(percentile(r.alarm_ms, 0.50));
      p99.push_back(percentile(r.alarm_ms, 0.99));
      rss_mb.push_back(r.rss_mb);
      std::printf("  replay: %.3f s, %.0f samples/s, %zu alarms p50 %.1f ms "
                  "p99 %.1f ms, rss +%.2f MB\n",
                  r.wall_s, rates.back(), r.alarm_ms.size(), p50.back(),
                  p99.back(), r.rss_mb);
    }
    p.rss_mb = median(rss_mb);
    p.samples_per_s = median(rates);
    p.p50 = median(p50);
    p.p99 = median(p99);
    std::printf("%s phase: %zu replays, samples/s median %.0f (min %.0f, max "
                "%.0f), %zu alarms timed in the last replay\n",
                traced ? "traced" : "untraced", p.replays.size(),
                p.samples_per_s, *std::min_element(rates.begin(), rates.end()),
                *std::max_element(rates.begin(), rates.end()),
                p.replays.back().alarm_ms.size());
    return p;
  };

  Trace off(false);
  const net::GatewayStats& gs = gateway->stats();
  const service::FleetTelemetry& ft = gateway->engine().telemetry();
  const Phase base = run_phase(false, off);
  Phase traced;
  Trace trace(true);
  // Counter snapshots bracket the traced phase.
  const std::uint64_t wake0 = gs.wakeups.load(), idle0 = gs.idle_wakeups.load(),
                      frx0 = gs.frames_rx.load(), brx0 = gs.bytes_rx.load(),
                      srx0 = gs.samples_rx.load(), drain0 = ft.drain_ns.load(),
                      cls0 = ft.classify_ns.load(), del0 = ft.deliver_ns.load(),
                      bat0 = ft.batches.load(), bb0 = ft.batched_beats.load();
  const auto tr0 = Clock::now();
  if (opt.trace) traced = run_phase(true, trace);
  const double traced_wall = seconds_since(tr0);
  serving.reset();

  check_gateway(gs, res);

  std::uint64_t bytes = 0, beats = 0;
  for (const Replay& r : base.replays) {
    bytes += r.bytes_tx;
    beats += r.beats;
  }
  res.metric("setup_s", setup.total_s, "s");
  res.metric("samples_per_s", base.samples_per_s, "samples/s");
  res.metric("alarm_latency_p50_ms", base.p50, "ms");
  res.metric("alarm_latency_p99_ms", base.p99, "ms");
  res.metric("radio_bytes_per_beat",
             static_cast<double>(bytes) / static_cast<double>(beats), "B/beat");
  res.metric("run_rss_mb", base.rss_mb, "MB");
  std::printf("real-time equivalent: %.0f patients at 360 Hz\n",
              base.samples_per_s / 360.0);

  res.attempted = ledger.attempted;
  res.failed = ledger.failed;
  if (ledger.failed > 0)
    res.fail("gateway verdicts diverge from direct in-process ingest");
  std::printf("failed_frac: %llu / %llu owed verdicts = %.3g (%llu of %llu "
              "sessions divergent)\n",
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<double>(ledger.failed) /
                  static_cast<double>(ledger.attempted),
              static_cast<unsigned long long>(ledger.sessions_divergent),
              static_cast<unsigned long long>(ledger.sessions_checked));
  std::uint64_t exposed = 0, exposed_samples = 0, timed_sessions = 0;
  for (const Phase* p : {&base, static_cast<const Phase*>(&traced)}) {
    for (const Replay& r : p->replays) {
      exposed += r.exposed_sessions;
      exposed_samples += r.exposed_samples;
      timed_sessions += kNodes;
    }
  }
  std::printf("known gateway defect (a BYE read behind a parked SAMPLE_CHUNK "
              "closes the session without its samples, so its tail verdicts "
              "are lost): %llu of %llu timed sessions had %llu samples not "
              "yet taken in when every byte was on the wire; BYE held until "
              "the engine accepted them\n",
              static_cast<unsigned long long>(exposed),
              static_cast<unsigned long long>(timed_sessions),
              static_cast<unsigned long long>(exposed_samples));

  if (opt.trace) {
    std::uint64_t tsamples = 0, polls = 0, idle_polls = 0;
    for (const Replay& r : traced.replays) {
      tsamples += r.samples;
      polls += r.polls;
      idle_polls += r.idle_polls;
    }
    const auto push = trace.get("net.client.push");
    const double wake = static_cast<double>(gs.wakeups.load() - wake0);
    const double phased = static_cast<double>(
        (ft.drain_ns.load() - drain0) + (ft.classify_ns.load() - cls0) +
        (ft.deliver_ns.load() - del0));
    const double reactor_ns = traced_wall * 1e9 * kReactors;
    add_setup_layers(res, setup, inputs_s, reference_s, total_samples);
    res.layer_metric("net.client.push_ns_per_sample",
                     static_cast<double>(push.ns) / static_cast<double>(tsamples),
                     "ns/sample");
    res.layer_metric("net.client.poll_idle_frac",
                     static_cast<double>(idle_polls) / static_cast<double>(polls),
                     "ratio");
    res.layer_metric("net.gateway.frames_rx_per_wakeup",
                     static_cast<double>(gs.frames_rx.load() - frx0) / wake,
                     "frames");
    res.layer_metric("net.gateway.idle_wakeup_frac",
                     static_cast<double>(gs.idle_wakeups.load() - idle0) / wake,
                     "ratio");
    res.layer_metric("net.gateway.bytes_rx_per_sample",
                     static_cast<double>(gs.bytes_rx.load() - brx0) /
                         static_cast<double>(gs.samples_rx.load() - srx0),
                     "B/sample");
    res.layer_metric("service.drain_frac",
                     static_cast<double>(ft.drain_ns.load() - drain0) / reactor_ns,
                     "ratio");
    res.layer_metric("service.classify_frac",
                     static_cast<double>(ft.classify_ns.load() - cls0) / reactor_ns,
                     "ratio");
    res.layer_metric("service.deliver_frac",
                     static_cast<double>(ft.deliver_ns.load() - del0) / reactor_ns,
                     "ratio");
    res.layer_metric("service.unphased_frac", 1.0 - phased / reactor_ns, "ratio");
    res.layer_metric("service.batch_beats_mean",
                     static_cast<double>(ft.batched_beats.load() - bb0) /
                         static_cast<double>(ft.batches.load() - bat0),
                     "beats");
    res.layer_metric("trace.overhead_frac",
                     1.0 - traced.samples_per_s / base.samples_per_s, "ratio");
    trace.print();
    replay_layers(model, codes, res);
  }
  return res;
}

}  // namespace perfbench

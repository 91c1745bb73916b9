// perfbench: the repository benchmark.
//
//   perfbench --workload <ward_stream|fleet_direct|ward_selective>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see perfbench/README.md for definitions).
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

using namespace perfbench;

struct MetricDecl {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares; every run emits its whole set.
// A per-layer metric a workload does not exercise reads 0 and is marked so
// in the human-readable report.
const MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},
    {"samples_per_s", "samples/s"},
    {"alarm_latency_p50_ms", "ms"},
    {"alarm_latency_p99_ms", "ms"},
    {"radio_bytes_per_beat", "B/beat"},
    {"run_rss_mb", "MB"},
};

const MetricDecl kPerLayer[] = {
    {"setup.train_s", "s"},
    {"setup.centroids_s", "s"},
    {"setup.gateway_start_s", "s"},
    {"overhead.inputs_s", "s"},
    {"overhead.reference_s", "s"},
    {"kernels.condition_ns_per_sample", "ns/sample"},
    {"kernels.peaks_ns_per_sample", "ns/sample"},
    {"core.monitor_ns_per_sample", "ns/sample"},
    {"core.monitor_unattributed_ns_per_sample", "ns/sample"},
    {"embedded.classify_ns_per_beat", "ns/beat"},
    {"drift.observe_ns_per_beat", "ns/beat"},
    {"service.offer_ns_per_sample", "ns/sample"},
    {"service.pump_ns_per_sample", "ns/sample"},
    {"service.close_ms", "ms"},
    {"service.drain_frac", "ratio"},
    {"service.classify_frac", "ratio"},
    {"service.deliver_frac", "ratio"},
    {"service.unphased_frac", "ratio"},
    {"service.batch_beats_mean", "beats"},
    {"service.deferred_frac", "ratio"},
    {"service.serial_samples_per_s", "samples/s"},
    {"service.swaps_applied", "count"},
    {"net.client.push_ns_per_sample", "ns/sample"},
    {"net.client.poll_idle_frac", "ratio"},
    {"net.gateway.frames_rx_per_wakeup", "frames"},
    {"net.gateway.idle_wakeup_frac", "ratio"},
    {"net.gateway.bytes_rx_per_sample", "B/sample"},
    {"net.wire.encode_ns_per_sample", "ns/sample"},
    {"net.wire.parse_ns_per_sample", "ns/sample"},
    {"math.crc32_ns_per_byte", "ns/byte"},
    {"lifecycle.push_ms_p50", "ms"},
    {"lifecycle.push_ms_p99", "ms"},
    {"lifecycle.push_nacks", "count"},
    {"lifecycle.encode_bundle_us", "us"},
    {"lifecycle.decode_bundle_us", "us"},
    {"generator.lag_ms_p99", "ms"},
    {"check.failed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<ward_stream|fleet_direct|ward_selective> --seed <n> "
               "--seconds <1..60> --trace <0|1>\n",
               why);
  std::exit(2);
}

std::uint64_t parse_uint(const char* s, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
    usage((std::string("bad value for ") + flag).c_str());
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have[0] = true;
    } else if (a == "--seed") {
      o.seed = parse_uint(v, "--seed");
      have[1] = true;
    } else if (a == "--seconds") {
      const std::uint64_t s = parse_uint(v, "--seconds");
      if (s < 1 || s > 60) usage("--seconds must be in 1..60");
      o.seconds = static_cast<int>(s);
      have[2] = true;
    } else if (a == "--trace") {
      const std::uint64_t t = parse_uint(v, "--trace");
      if (t > 1) usage("--trace must be 0 or 1");
      o.trace = t == 1;
      have[3] = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  for (bool h : have)
    if (!h) usage("all four flags are required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  print_host();
  Result res;
  try {
    if (opt.workload == "ward_stream")
      res = run_ward_stream(opt);
    else if (opt.workload == "fleet_direct")
      res = run_fleet_direct(opt);
    else if (opt.workload == "ward_selective")
      res = run_ward_selective(opt);
    else
      usage("unknown workload");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (res.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation attempted\n");
    return 1;
  }
  const double failed_frac =
      static_cast<double>(res.failed) / static_cast<double>(res.attempted);
  res.layer_metric("check.failed_frac", failed_frac, "ratio");

  const auto& have = opt.trace ? res.layer : res.e2e;
  std::printf("# %s metrics\n", opt.trace ? "per-layer" : "end-to-end");
  std::string json = "{";
  bool first = true;
  auto emit = [&](const MetricDecl& m) {
    const auto it = std::find_if(have.begin(), have.end(),
                                 [&](const Metric& e) { return e.name == m.name; });
    const bool measured = it != have.end();
    const double value = measured && std::isfinite(it->value) ? it->value : 0.0;
    if (measured && it->unit != m.unit) {
      std::fprintf(stderr, "perfbench: %s measured in %s, declared in %s\n",
                   m.name, it->unit.c_str(), m.unit);
      std::exit(1);
    }
    std::printf("  %-42s %.6g %s%s\n", m.name, value, m.unit,
                measured ? "" : "  (not exercised by this workload)");
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", value);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  };
  if (opt.trace)
    for (const MetricDecl& m : kPerLayer) emit(m);
  else
    for (const MetricDecl& m : kEndToEnd) emit(m);
  json += "}";
  std::printf("result: correct=%s attempted=%llu failed=%llu failed_frac=%.6g\n",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), failed_frac);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), json.c_str());
  return 0;
}

#!/usr/bin/env bash
# Full CI sweep: tier-1 build + tests, then the sanitizer matrix.
#
#   1. default (Release) build, full ctest suite — the tier-1 gate — then
#      the DSP kernel-equivalence subset re-run under HBRP_FORCE_SCALAR=1,
#      so the scalar halves of the block kernels are gated even on AVX2
#      hosts;
#   2. ASan + UBSan build (-DENABLE_SANITIZERS=ON), full ctest suite;
#   3. TSan build (-DENABLE_TSAN=ON), executor/engine/fleet/net-focused
#      ctest subset — races in core::Executor, the parallel GA fitness
#      fan-out, the chunked metric merges, the fleet engine's producer/pump
#      concurrency and the gateway/client loopback traffic would surface
#      here;
#   4. fleet soak smoke: bench_fleet --quick --threads=0 — the
#      sessions x reactors scaling grid with its serial-vs-sharded
#      bit-identity gate (exits non-zero on any per-session sequence
#      divergence), then perf_gate.py compares its identity/speedup keys
#      against the committed BENCH_fleet.json (the full-run-only
#      fleet_widest_speedup key warn-skips on quick grids by design);
#   5. gateway loopback soak smoke: gateway_ward (8 concurrent sensor
#      clients over real loopback TCP, one with an injected flaky
#      electrode; exits non-zero on an unclean close or a verdict sequence
#      gap), bench_net --quick, whose stream runs gate wire verdicts
#      against direct in-process ingest bit-for-bit across the reactor
#      axis (plus the same perf_gate comparison vs BENCH_net.json), and
#      fleet_soak — 10k concurrent loopback sessions through a 2-reactor
#      gateway with a 1.5 GB peak-RSS ceiling;
#   6. perf gate: a quick bench_microkernels pass compared against the
#      committed BENCH_microkernels.json by scripts/perf_gate.py — fails on
#      >15% per-op CPU-time regression (tolerance doubled on virtualized
#      hosts, skipped outright when the CPU model is unknown or differs
#      from the baseline's). One retry absorbs a noisy first pass;
#   7. robustness gate: a quick bench_scenarios pass (adversarial ward
#      suite replayed direct + over chaotic loopback TCP) compared against
#      the committed BENCH_scenarios.json by scripts/robustness_gate.py —
#      fails when AAMI NDR/ARR degrade, miss/false rates rise, or a
#      wire-identity/selective-integrity flag goes false. No retry: the
#      gated accuracy and identity metrics are fully seeded, so any drift
#      is a real behavior change (the lossy-chaos byte counts are not, and
#      only warn). A tamper self-check first asserts the gate actually
#      fails on an injected regression, so a silently broken gate cannot
#      pass;
#   8. drift gate: a quick bench_drift pass (tracker cost, morphology-shift
#      detection latency, false-alarm sweep, thread/shard identity)
#      compared against the committed BENCH_drift.json by the same
#      robustness_gate.py (drift mode), with its own tamper self-check;
#   9. lifecycle gate: a quick bench_lifecycle pass (hot-swap verdict-split
#      identity across thread layouts, MODEL_PUSH throughput + corrupt-push
#      rejection, stage->apply swap latency, per-A/B-arm scenario metrics)
#      compared against the committed BENCH_lifecycle.json by the same
#      robustness_gate.py (lifecycle mode), with its own tamper self-check,
#      plus an ab_ward smoke run (the per-arm rollout report must build its
#      table and exit clean).
#
# Usage: scripts/ci.sh [--skip-sanitizers]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_SANITIZERS=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitizers) SKIP_SANITIZERS=1 ;;
    *)
      echo "usage: scripts/ci.sh [--skip-sanitizers]" >&2
      exit 2
      ;;
  esac
done

run_suite() {
  local build_dir="$1"
  shift
  local cmake_flags=("$@")
  echo "==== configure ${build_dir} (${cmake_flags[*]:-default})"
  cmake -B "${build_dir}" -S . "${cmake_flags[@]}"
  echo "==== build ${build_dir}"
  cmake --build "${build_dir}" -j
}

# --- 1. tier-1: default build + full suite --------------------------------
run_suite build
ctest --test-dir build --output-on-failure -j

# --- 1a. DSP kernel equivalence, forced-scalar dispatch -------------------
# The full suite above already ran the KernelsDsp/DetectorEquivalence/Drift
# binaries under the default once-per-process dispatch (AVX2 where the host
# has it); this re-run pins the dispatcher to the scalar kernels so both
# code paths of every block DSP kernel are gated on every CI host. The
# drift suites ride along because the tracker consumes the projections the
# kernels produce — its digests must be dispatch-independent too — and the
# Mmd/Delineate suites because MMD delineation runs on the block
# erode/dilate kernels.
echo "==== DSP kernel equivalence under HBRP_FORCE_SCALAR=1"
HBRP_FORCE_SCALAR=1 ctest --test-dir build --output-on-failure \
  -R 'KernelsDsp|DetectorEquivalence|Drift|Lifecycle|Mmd|Delineate' -j

# --- 1b. fleet soak smoke: scaling grid + bit-identity gate ---------------
# Quick-run reports stay under build/ so a CI pass never dirties the tree
# (the committed BENCH_*.json are full-run baselines, written deliberately).
echo "==== fleet soak smoke (bench_fleet --quick)"
./build/bench/bench_fleet --quick --threads=0 --json=build/BENCH_fleet_quick.json
echo "==== fleet gate (identity/speedup keys vs BENCH_fleet.json)"
# The quick grid deliberately omits the full-run fleet_widest_speedup key,
# so that comparison warn-skips; identity_pass is gated hard.
python3 scripts/perf_gate.py BENCH_fleet.json build/BENCH_fleet_quick.json
echo "==== perf gate self-check (identity is gated on any host)"
python3 - <<'EOF'
import json
with open("build/BENCH_fleet_quick.json", encoding="utf-8") as f:
    report = json.load(f)
report["cpu_model"] = "a different CPU"
report["identity_pass"] = False
with open("build/BENCH_fleet_tampered.json", "w", encoding="utf-8") as f:
    json.dump(report, f)
EOF
gate_status=0
python3 scripts/perf_gate.py BENCH_fleet.json \
  build/BENCH_fleet_tampered.json >/dev/null 2>&1 || gate_status=$?
if [ "$gate_status" -ne 1 ]; then
  echo "perf gate self-check FAILED: a flipped identity key on another" \
    "host exited $gate_status, not 1" >&2
  exit 1
fi

# --- 1c. gateway loopback soak smoke --------------------------------------
echo "==== gateway soak smoke (gateway_ward: 8 clients + fault injection)"
./build/examples/gateway_ward 8 20 0
echo "==== net identity gate (bench_net --quick)"
./build/bench/bench_net --quick --threads=0 --json=build/BENCH_net_quick.json
python3 scripts/perf_gate.py BENCH_net.json build/BENCH_net_quick.json

# --- 1c2. 10k-session loopback soak smoke ---------------------------------
# Ramps 10k concurrent SensorNodeClients (2 s of signal each) against a
# 2-reactor gateway and fails on any unestablished node, unclean close,
# verdict gap, or a peak RSS above 1.5 GB. Where the host's hard fd limit
# cannot hold 2 fds per node the driver self-scales the node count down
# and says so — the pass criteria then apply to the scaled count.
echo "==== fleet soak smoke (fleet_soak: 10k sessions, RSS-capped)"
./build/examples/fleet_soak 10000 2 2 1536

# --- 1d. perf gate: microkernels vs committed baseline --------------------
echo "==== perf gate (bench_microkernels vs BENCH_microkernels.json)"
run_perf_gate() {
  ./build/bench/bench_microkernels --benchmark_min_time=0.05 \
    --json=build/BENCH_microkernels_fresh.json >/dev/null
  python3 scripts/perf_gate.py BENCH_microkernels.json \
    build/BENCH_microkernels_fresh.json
}
if ! run_perf_gate; then
  echo "==== perf gate failed; retrying once to rule out timing noise"
  run_perf_gate
fi

# --- 1e. robustness gate: adversarial scenarios vs committed baseline -----
echo "==== robustness gate self-check (gate must fail on injected regression)"
./build/bench/bench_scenarios --quick --threads=0 \
  --json=build/BENCH_scenarios_quick.json
python3 - <<'EOF'
import json
with open("build/BENCH_scenarios_quick.json", encoding="utf-8") as f:
    report = json.load(f)
report["sc_sustained_vt_arr"] -= 0.10
with open("build/BENCH_scenarios_tampered.json", "w", encoding="utf-8") as f:
    json.dump(report, f)
EOF
if python3 scripts/robustness_gate.py BENCH_scenarios.json \
    build/BENCH_scenarios_tampered.json >/dev/null 2>&1; then
  echo "robustness gate self-check FAILED: tampered report passed the gate" >&2
  exit 1
fi
echo "==== robustness gate (bench_scenarios vs BENCH_scenarios.json)"
python3 scripts/robustness_gate.py BENCH_scenarios.json \
  build/BENCH_scenarios_quick.json

# --- 1f. drift gate: morphology-drift detection vs committed baseline -----
echo "==== drift gate self-check (gate must fail on injected regression)"
./build/bench/bench_drift --quick --threads=0 \
  --json=build/BENCH_drift_quick.json
python3 - <<'EOF'
import json
with open("build/BENCH_drift_quick.json", encoding="utf-8") as f:
    report = json.load(f)
report["drift_false_alarm_rate"] = 0.5
with open("build/BENCH_drift_tampered.json", "w", encoding="utf-8") as f:
    json.dump(report, f)
EOF
if python3 scripts/robustness_gate.py BENCH_drift.json \
    build/BENCH_drift_tampered.json >/dev/null 2>&1; then
  echo "drift gate self-check FAILED: tampered report passed the gate" >&2
  exit 1
fi
echo "==== drift gate (bench_drift vs BENCH_drift.json)"
python3 scripts/robustness_gate.py BENCH_drift.json \
  build/BENCH_drift_quick.json

# --- 1g. lifecycle gate: hot-swap/push/A-B vs committed baseline ----------
echo "==== lifecycle gate self-check (gate must fail on injected regression)"
./build/bench/bench_lifecycle --quick --threads=0 \
  --json=build/BENCH_lifecycle_quick.json
python3 - <<'EOF'
import json
with open("build/BENCH_lifecycle_quick.json", encoding="utf-8") as f:
    report = json.load(f)
report["lifecycle_identity_pass"] = False
with open("build/BENCH_lifecycle_tampered.json", "w", encoding="utf-8") as f:
    json.dump(report, f)
EOF
if python3 scripts/robustness_gate.py BENCH_lifecycle.json \
    build/BENCH_lifecycle_tampered.json >/dev/null 2>&1; then
  echo "lifecycle gate self-check FAILED: tampered report passed the gate" >&2
  exit 1
fi
echo "==== lifecycle gate (bench_lifecycle vs BENCH_lifecycle.json)"
python3 scripts/robustness_gate.py BENCH_lifecycle.json \
  build/BENCH_lifecycle_quick.json
echo "==== A/B rollout report smoke (ab_ward)"
./build/examples/ab_ward 8 50 42

if [[ "${SKIP_SANITIZERS}" -eq 1 ]]; then
  echo "==== sanitizer jobs skipped"
  exit 0
fi

# --- 2. ASan + UBSan ------------------------------------------------------
run_suite build-asan -DENABLE_SANITIZERS=ON
ctest --test-dir build-asan --output-on-failure -j

# --- 3. TSan: executor + engine + fleet + net + scenario + drift tests ----
# NB: -R must precede bare -j — ctest 3.25 otherwise consumes "-R" as the
# job count and silently runs the full suite.
run_suite build-tsan -DENABLE_TSAN=ON
ctest --test-dir build-tsan --output-on-failure \
  -R 'Executor|BeatBatch|EngineFixture|Determinism|Ga\.|Fleet|Net|Reactor|Gateway|Wire|Scenario|KernelsDsp|DetectorEquivalence|Drift|Lifecycle' -j

echo "==== CI sweep complete"

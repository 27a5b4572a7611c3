#!/usr/bin/env bash
# CI entry point: builds and tests the repo in stages.
#
#   1. Release (+Werror)  — the full tier-1 suite; warnings are errors.
#      Then a forced-scalar lane: the numeric/exec/serving suites re-run
#      with D2STGNN_FORCE_BACKEND=scalar, proving the kernel-backend env
#      override reaches every layer and the scalar reference path stays
#      green on SIMD hosts.
#   1b. Serving demo     — examples/serve_forecasts, the open-loop CLI over
#      the shared load driver, runs once per mode and once in fleet mode,
#      each with a mid-run checkpoint hot reload that must land exactly
#      once.
#   2. ThreadSanitizer    — the execution-layer and tensor tests, to catch
#      data races in the thread pool and parallel kernels.
#   3. Inference suite    — the inference session and the single serving
#      core (FleetServer's dispatcher and the one-lane BatchingServer
#      facade over it) under TSan (concurrent submitters), plus the
#      overload/admission, checkpoint hot-reload and open-loop load driver
#      (producer/harvester threads) suites, then the smoke
#      serving spec through run_experiment, asserting the emitted JSON is
#      schema-versioned and well-formed.
#   3b. Chaos smoke       — the overload scenario (specs/smoke_overload.spec)
#      through the TSan run_experiment with all four serving fault points
#      scripted (server.admit, server.deadline, server.degrade,
#      infer.hot_reload). The `timeout` wrapper is the no-deadlock
#      assertion; the baseline gate asserts deterministic invariants (work
#      completed, faults fired, the mid-load hot swap landed bitwise) and
#      never wall-clock throughput, which TSan distorts.
#   3c. Fleet smoke       — the multi-model fleet scenario
#      (specs/smoke_fleet.spec) under TSan: two tenants with distinct SLO
#      classes behind one shared queue, scripted admission faults, and a
#      mid-run hot reload of one model. Gated on structural isolation
#      invariants only (both models bitwise vs standalone sessions, the
#      reload touched exactly one lane), never timing.
#   4. Plan replay        — the capture/plan/replay suite under TSan
#      (level-parallel replays, concurrent plan-serving submitters; the
#      Release run happened in stage 1, where the plan-vs-eager latency
#      floor is asserted), then the canonical repo-root artifacts:
#      `run_experiment specs/serving_sweep.spec` (BENCH_serving.json, gated
#      on bench/baselines/serving.json), `run_experiment specs/fleet.spec`
#      (BENCH_fleet.json, gated on the tenant-isolation bounds in
#      bench/baselines/fleet.json), and bench_micro_kernels
#      (BENCH_kernels.json), all shape-validated; plus the full-scale
#      `run_experiment specs/overload.spec`, gated on
#      bench/baselines/overload.json (its JSON is not tracked and lands in
#      the smoke out-dir).
#   5. Experiments        — the declarative harness end to end: the smoke
#      training spec runs gated against its checked-in baseline, --list
#      enumerates the registry, and a run against an impossible baseline
#      must exit 2 with a readable violation diff.
#   6. UBSanitizer        — the full suite under -fsanitize=undefined.
#   7. ASan+UBSan         — the fault-injection / crash-safety suite
#      (checkpoints, durable I/O, divergence recovery, death tests), where
#      torn buffers and use-after-free bugs would hide, plus the
#      kernel-backend suite: the AVX2 masked head/tail loads and stores are
#      exactly where an out-of-bounds lane read would live.
#   8. Plan verification  — tools/verify_plan under ASan+UBSan: every
#      registry model's captured plans must prove race- and lifetime-sound
#      (exit 0), and the --inject corrupted-plan fixture must be caught
#      (exit 2) — the verifier failing open fails CI loudly. The sweep runs
#      under both kernel backends: the default invocation captures under
#      the detected backend (avx2 on SIMD hosts), --backend scalar forces
#      the reference.
#   9. Corruption smoke   — end-to-end: train with checkpointing, flip one
#      byte in the newest checkpoint, assert resume rejects it.
#  10. Lint               — clang-tidy in parallel over src/, tests/, and
#      tools/ (skipped with a notice when clang-tidy is not installed).
#
# Both ctest invocations pass --no-tests=error so a filter that matches zero
# tests (e.g. after a rename) fails CI instead of silently passing.
#
# Usage: scripts/ci.sh [--release-only]

set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== Release build (+Werror) + full test suite ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DD2STGNN_WERROR=ON
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)" --no-tests=error
# Forced-scalar lane: same binaries, kernel dispatch pinned to the scalar
# reference backend. Covers the tensor/kernel suites, every plan-capture
# and serving path that records backend-qualified closures (hot-reload
# staging included), and the folded diffusion convolution against its
# unfolded oracle.
D2STGNN_FORCE_BACKEND=scalar ctest --test-dir build --output-on-failure \
  -j "$(nproc)" \
  -R 'Tensor|Backend|UlpDiff|MemoryPlanner|ZooCapture|GraphCapture|ExecSession|InferSession|InferServer|HotReload|Fleet|DiffusionBlock|LocalizedTransition|LocalizedProperty|D2StgnnModel' \
  --no-tests=error

echo "=== Serving demo: serve_forecasts eager/plan and fleet runs ==="
demo_dir="$(mktemp -d)"
demo_output="$(build/examples/serve_forecasts 100 1 2 --mode=both \
  --deadline-ms=200 --reload-dir="$demo_dir/modes")"
for mode in eager plan; do
  if ! grep -q "^\[$mode\] hot-reload: 1 session swap " <<< "$demo_output"; then
    echo "FAIL: serve_forecasts --mode=both: no '1 session swap' for $mode" >&2
    echo "$demo_output" >&2
    exit 1
  fi
done
fleet_output="$(build/examples/serve_forecasts --fleet \
  --models=a:gold,b:bronze --qps=100 --reload-dir="$demo_dir/fleet")"
if ! grep -q "1 swap on 'a'" <<< "$fleet_output"; then
  echo "FAIL: serve_forecasts --fleet: no '1 swap on 'a''" >&2
  echo "$fleet_output" >&2
  exit 1
fi
rm -rf "$demo_dir"
echo "serve_forecasts: one hot swap per eager/plan run and on fleet tenant 'a'"

if [[ "${1:-}" == "--release-only" ]]; then
  exit 0
fi

echo "=== ThreadSanitizer build + concurrency-sensitive tests ==="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DD2STGNN_SANITIZE=thread
cmake --build build-tsan -j "$(nproc)" \
  --target thread_pool_test parallel_determinism_test tensor_test
ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
  -R 'ThreadPool|ParallelDeterminism|Tensor' --no-tests=error

echo "=== Inference suite: serving core under TSan + serving smoke ==="
cmake --build build-tsan -j "$(nproc)" \
  --target infer_server_test infer_session_test overload_test \
  hot_reload_test fleet_test load_driver_test
ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
  -R 'InferServer|InferSession|RejectReason|Admission|Overload|Backoff|HotReload|Fleet|LoadDriver' \
  --no-tests=error
cmake --build build -j "$(nproc)" --target run_experiment
smoke_out="build/experiment-smoke"
rm -rf "$smoke_out"
mkdir -p "$smoke_out"
# Smoke scale: few iterations, gated only on sanity floors (the spec's
# baseline bounds throughput > 1 rps and bitwise plan/eager parity).
build/tools/run_experiment --out-dir "$smoke_out" \
  specs/smoke_serving.spec > /dev/null
python3 - "$smoke_out/BENCH_smoke_serving.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema_version"] == 1, doc["schema_version"]
assert doc["kind"] == "serving"
records = doc["records"]
assert records, "BENCH_smoke_serving.json has no records"
for r in records:
    assert r["mode"] in ("session-eager", "session-plan", "server",
                         "eager", "plan"), r
    assert r["throughput_rps"] > 0, r
    assert r["p50_ms"] <= r["p95_ms"] <= r["p99_ms"], r
summary = doc["summary"]
for key in ("eager_p50_ms", "plan_p50_ms", "plan_speedup",
            "bitwise_identical"):
    assert key in summary, key
assert summary["bitwise_identical"] == 1
print("BENCH_smoke_serving.json well-formed:", len(records), "records")
EOF

echo "=== Chaos smoke: overload scenario under TSan with scripted faults ==="
cmake --build build-tsan -j "$(nproc)" --target run_experiment
chaos_out="build-tsan/chaos-smoke"
rm -rf "$chaos_out"
mkdir -p "$chaos_out"
# The timeout is the no-deadlock assertion: a stuck dispatcher, a promise
# that never resolves, or a reloader that can't join its watcher all hang
# the run instead of failing its gates. Generous bound — TSan is ~10x slow.
timeout 900 build-tsan/tools/run_experiment --out-dir "$chaos_out" \
  specs/smoke_overload.spec > /dev/null
python3 - "$chaos_out/BENCH_smoke_overload.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1
assert doc["kind"] == "serving"
records = doc["records"]
assert records, "BENCH_smoke_overload.json has no records"
for r in records:
    assert r["mode"] == "overload", r
    assert r["completed"] + r["shed"] + r["expired"] <= r["requests"], r
    assert r["p50_ms"] <= r["p95_ms"] <= r["p99_ms"], r
summary = doc["summary"]
assert summary["overload_completed"] >= 1, summary
assert summary["hot_swaps"] >= 1, summary
assert summary["post_swap_bitwise"] == 1, summary
assert summary["faults_armed"] >= 4, summary
assert summary["faults_fired"] >= summary["faults_armed"], summary
print("chaos smoke survived:", summary["overload_completed"],
      "completed,", summary["faults_fired"], "faults fired,",
      summary["hot_swaps"], "hot swap(s)")
EOF

echo "=== Fleet smoke: multi-tenant scenario under TSan with faults ==="
fleet_out="build-tsan/fleet-smoke"
rm -rf "$fleet_out"
mkdir -p "$fleet_out"
# Same no-deadlock rationale as the chaos smoke: a stuck fleet dispatcher
# or a reloader that cannot join hangs here instead of failing a gate.
timeout 900 build-tsan/tools/run_experiment --out-dir "$fleet_out" \
  specs/smoke_fleet.spec > /dev/null
python3 - "$fleet_out/BENCH_smoke_fleet.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1
assert doc["kind"] == "serving"
records = doc["records"]
assert records, "BENCH_smoke_fleet.json has no records"
models = set()
for r in records:
    assert r["mode"] == "fleet", r
    models.add(r["model"])
    assert r["completed"] + r["shed"] + r["expired"] <= r["requests"], r
    assert r["p50_ms"] <= r["p95_ms"] <= r["p99_ms"], r
assert len(models) == 2, models
summary = doc["summary"]
assert summary["fleet_completed"] >= 1, summary
assert summary["hot_swaps"] >= 1, summary
assert summary["post_swap_bitwise"] == 1, summary
assert summary["bitwise_models"] == 2, summary
assert summary["others_session_swaps"] == 0, summary
assert summary["faults_armed"] >= 2, summary
assert summary["faults_fired"] >= summary["faults_armed"], summary
print("fleet smoke survived:", int(summary["fleet_completed"]),
      "completed across", len(models), "models,",
      int(summary["hot_swaps"]), "hot swap(s), isolation held")
EOF

echo "=== Plan replay: exec suite under TSan + canonical bench JSONs ==="
cmake --build build-tsan -j "$(nproc)" --target exec_plan_test
ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
  -R 'MemoryPlanner|ZooCapture|GraphCapture|ExecSession' --no-tests=error
# Full-scale serving sweep: regenerates the canonical repo-root
# BENCH_serving.json and gates it on bench/baselines/serving.json
# (plan-speedup floor, throughput floors, bitwise parity).
build/tools/run_experiment specs/serving_sweep.spec > /dev/null
# Full-scale fleet run: regenerates the canonical BENCH_fleet.json and
# gates it on bench/baselines/fleet.json (tenant isolation: the healthy
# gold tenant's shed rate and p99 stay bounded while the bronze tenant is
# offered 2x saturation, sheds land as typed quota rejections, every model
# is bitwise vs a standalone session, the reload touches one lane).
build/tools/run_experiment specs/fleet.spec > /dev/null
# Full-scale overload run, gated on bench/baselines/overload.json: the shed
# rate stays inside (0.02, 0.98), the degrade tier moves at least once,
# all four scripted faults fire, and the mid-run swap lands bitwise.
build/tools/run_experiment --out-dir "$smoke_out" specs/overload.spec \
  > /dev/null
cmake --build build -j "$(nproc)" --target bench_micro_kernels
# Skip the google-benchmark section (nothing matches); the hand-timed sweep
# that feeds BENCH_kernels.json still runs.
build/bench/bench_micro_kernels --benchmark_filter='^$' > /dev/null
python3 - BENCH_serving.json BENCH_kernels.json BENCH_fleet.json <<'EOF'
import json, sys
serving_doc = json.load(open(sys.argv[1]))
assert serving_doc["schema_version"] == 1
modes = {r["mode"] for r in serving_doc["records"]}
assert modes == {"session-eager", "session-plan", "server",
                 "eager", "plan", "overload"}, modes
for r in serving_doc["records"]:
    assert r["p50_ms"] <= r["p95_ms"] <= r["p99_ms"], r
summary = serving_doc["summary"]
for key in ("eager_p50_ms", "plan_p50_ms", "plan_speedup",
            "bitwise_identical"):
    assert key in summary, key
assert summary["bitwise_identical"] == 1
kernel_doc = json.load(open(sys.argv[2]))
assert kernel_doc["schema_version"] == 1
assert kernel_doc["records"], "BENCH_kernels.json has no records"
for r in kernel_doc["records"]:
    assert r["seconds_per_iter"] > 0, r
fleet_doc = json.load(open(sys.argv[3]))
assert fleet_doc["schema_version"] == 1
fleet_models = {r["model"] for r in fleet_doc["records"]}
assert len(fleet_models) == 4, fleet_models
fleet_summary = fleet_doc["summary"]
assert fleet_summary["bitwise_models"] == len(fleet_models), fleet_summary
assert fleet_summary["post_swap_bitwise"] == 1, fleet_summary
assert fleet_summary["others_session_swaps"] == 0, fleet_summary
print("canonical bench JSONs well-formed:",
      len(serving_doc["records"]), "serving records,",
      len(kernel_doc["records"]), "kernel records,",
      len(fleet_doc["records"]), "fleet records")
EOF

echo "=== Experiments: smoke spec end-to-end + regression-gate demo ==="
# The registry must enumerate cleanly, and the listing must surface the
# fleet scenario and its SLO-class axes.
list_output="$(build/tools/run_experiment --list)"
for needle in fleet gold silver bronze; do
  if ! grep -q "$needle" <<< "$list_output"; then
    echo "FAIL: run_experiment --list does not mention '$needle'" >&2
    exit 1
  fi
done
# ...and the smoke training spec must run end to end, gated against its
# checked-in baseline (bench/baselines/smoke_training.json).
build/tools/run_experiment --out-dir "$smoke_out" \
  specs/smoke_training.spec > /dev/null
python3 - "$smoke_out/BENCH_smoke_training.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1
assert doc["kind"] == "training"
models = {r["model"] for r in doc["records"]}
assert models == {"HA", "D2STGNN"}, models
for r in doc["records"]:
    assert r["h3_mae"] > 0 and r["h12_mae"] > 0, r
assert doc["summary"]["best_model"] in models
print("BENCH_smoke_training.json well-formed:", len(doc["records"]),
      "records")
EOF
# The gate must demonstrably fail: re-checking the same run against an
# impossible baseline has to exit 2 with a readable violation diff.
set +e
gate_output="$(build/tools/run_experiment --out-dir "$smoke_out" \
  --baseline bench/baselines/impossible.json specs/smoke_training.spec 2>&1)"
gate_status=$?
set -e
if [[ "$gate_status" -ne 2 ]]; then
  echo "FAIL: impossible baseline exited $gate_status, want 2" >&2
  echo "$gate_output" >&2
  exit 1
fi
if ! grep -q "regression gate FAILED" <<< "$gate_output"; then
  echo "FAIL: exit 2 without a readable gate diff" >&2
  echo "$gate_output" >&2
  exit 1
fi
echo "regression gate failed loudly as expected (exit 2)"

echo "=== UBSanitizer build + full test suite ==="
cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DD2STGNN_SANITIZE=undefined
cmake --build build-ubsan -j "$(nproc)"
ctest --test-dir build-ubsan --output-on-failure -j "$(nproc)" \
  --no-tests=error

echo "=== ASan+UBSan build + fault-injection suite ==="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DD2STGNN_SANITIZE=address,undefined
cmake --build build-asan -j "$(nproc)" \
  --target fault_injection_test checkpoint_test death_test io_test \
  kernel_backend_test
ctest --test-dir build-asan --output-on-failure -j "$(nproc)" \
  -R 'FaultInjection|CheckpointFault|CheckpointResume|DivergenceRecovery|Checkpoint|CsvLoader|DeathTest|Backend|UlpDiff' \
  --no-tests=error

echo "=== Plan verification: registry-wide verify_plan under ASan+UBSan ==="
cmake --build build-asan -j "$(nproc)" --target verify_plan
# Every captured plan across the model registry must verify clean — once
# under the detected backend (avx2 on SIMD hosts) and once forced onto the
# scalar reference, so both backends' captured closures face the verifier.
build-asan/tools/verify_plan
build-asan/tools/verify_plan --backend scalar > /dev/null
echo "verify_plan clean under --backend scalar too"
# ...and each injected corruption class must be detected (exit 2; a missed
# corruption exits 0, failing this assertion).
set +e
build-asan/tools/verify_plan --inject
inject_status=$?
set -e
if [[ "$inject_status" -ne 2 ]]; then
  echo "FAIL: verify_plan --inject exited $inject_status, want 2" >&2
  echo "      (a corrupted plan slipped past the static verifier)" >&2
  exit 1
fi
echo "corrupted plans rejected as expected (exit 2)"

echo "=== Checkpoint corruption smoke (save -> corrupt -> resume rejects) ==="
smoke_dir="build/ckpt-smoke"
rm -rf "$smoke_dir"
mkdir -p "$smoke_dir"
build/examples/quickstart --checkpoint-dir "$smoke_dir" \
  --checkpoint-every 4 > /dev/null
latest="$(ls "$smoke_dir"/ckpt-*.d2ck | sort | tail -n 1)"
# An intact checkpoint resumes cleanly...
build/examples/quickstart --resume "$latest" > /dev/null
# ...and a single flipped byte must be detected and rejected.
printf '\x5a' | dd of="$latest" bs=1 seek=100 conv=notrunc status=none
if build/examples/quickstart --resume "$latest" > /dev/null 2>&1; then
  echo "FAIL: corrupt checkpoint was accepted on resume" >&2
  exit 1
fi
echo "corrupt checkpoint rejected as expected"

echo "=== Lint (clang-tidy) ==="
scripts/lint.sh build

echo "CI OK"

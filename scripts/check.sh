#!/usr/bin/env bash
# Full static + dynamic gate for the repository:
#   1. Release build, all tests          (build-release), then the
#      dispatch-sensitive suites again under PUMP_FORCE_SCALAR=1 so the
#      interleaved fallback paths stay covered on AVX2 hosts
#   2. ASan+UBSan build, all tests       (build-asan,  PUMP_SANITIZE=address)
#   3. TSan build, concurrency tests     (build-tsan,  PUMP_SANITIZE=thread)
#      and the parallel dimension-table build tests repeated 10 times,
#      plus the servebench --quick --soak fault sweep (concurrent
#      queries, poison, deadlines, cancels; zero hung/lost queries),
#      the deterministic concurrency verifier (build-verify,
#      PUMP_VERIFY=ON: verify_test + verifydump --quick with a >= 1000
#      schedule floor, 100% mutant kills, acyclic lock order), and the
#      shim lint (no raw std:: primitives in verifier-migrated files)
#   4. micro_parallel + micro_engine --quick smoke runs (probe-variant
#      agreement; every plan-IR run checked against the brute-force
#      oracle)
#   5. modelcheck: both testbed profiles must pass, the broken fixture
#      must fail with named violations; modelcheck --mesh must accept
#      every N-GPU mesh topology profile (ring/crossbar/SLI/P2P/
#      host-bounce) and reject the broken mesh fixture
#   6. plandump over the SSB suite + Q6: every compiled plan must be
#      well-formed JSON that passes structural checks (dense dimensions
#      must select the perfect hash table), and the emitted plans must
#      be byte-identical under PUMP_FORCE_SCALAR=1 (plan choice must not
#      depend on SIMD dispatch)
#   7. tracedump over SSB Q3 with tracing on: the Chrome trace JSON must
#      parse with every B matched by an E, the metrics snapshot must
#      carry the core counter families, the residual report must have a
#      row per pipeline, and span coverage must be >= 95% of wall time;
#      modelcheck --residuals must accept the report
#   7b. tracedump --concurrent: queries racing through the serving engine
#      must each reassemble to >= 95% coverage from their query-id stamps
#      alone, and the --query-id filtered export must carry exactly that
#      query's balanced timeline
#   7c. pumpstat: the introspection snapshot must carry every family
#      (stats, queries, cache+contents, window, routes, incidents, slo)
#      in both JSON and Prometheus text exposition
#   7d. bench_check.py synthetic smoke: a fabricated regression must exit
#      nonzero, the clean case zero (the --check watchdog's own test)
#   7e. perfbench smoke (python3 perfbench/test_perfbench.py): builds the
#      served-query benchmark, runs every workload at quick size untraced
#      and traced (every answer checked against the brute-force oracle,
#      fidelity checks on), and requires --corrupt-expected to fail
#   8. disabled-tracing overhead guard: the whole tree builds with
#      -DPUMP_TRACE=OFF (build-notrace), and micro_engine's plan IR with
#      spans compiled in but the recorder off must average <= 5% over
#      that uninstrumented build, in interleaved pairs
#   9. clang-tidy over src/tests/bench/tools (skipped when not installed)
#
# Usage: scripts/check.sh [-j N]
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
while getopts "j:" opt; do
  case "$opt" in
    j) JOBS="$OPTARG" ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
  esac
done

say() { printf '\n==> %s\n' "$*"; }

configure_and_test() {
  local dir="$1" sanitize="$2" test_regex="$3"
  say "configure $dir (PUMP_SANITIZE='$sanitize')"
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release \
        -DPUMP_SANITIZE="$sanitize" >/dev/null
  say "build $dir"
  cmake --build "$dir" -j "$JOBS"
  say "test $dir${test_regex:+ (filter: $test_regex)}"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
        ${test_regex:+-R "$test_regex"}
}

# 1. Release: everything, warnings-as-errors enforced by the build itself.
configure_and_test build-release "" ""

# 1b. Forced-scalar lane: the same binaries with PUMP_FORCE_SCALAR=1, so
#     the interleaved fallback paths stay exercised on AVX2 hosts (where
#     the auto-dispatch run above took the vector kernels). Scoped to the
#     suites that touch the dispatched probe/partition paths.
say "test build-release (PUMP_FORCE_SCALAR=1: scalar-dispatch fallback)"
PUMP_FORCE_SCALAR=1 ctest --test-dir build-release --output-on-failure \
      -j "$JOBS" -R "hash_test|simd_test|join_test|star_test|plan_test"

# 2. ASan+UBSan: everything, happens-before assertions forced on.
configure_and_test build-asan "address" ""

# 3. TSan: the concurrent scheduler / executor / failover / integration
#    paths, plus the plan-IR golden equivalence suite (its probe
#    pipelines run multi-worker) and the observability layer (per-thread
#    trace rings + counters hammered from all executor workers).
configure_and_test build-tsan "thread" \
  "exec_test|executor_test|engine_test|fault_test|failure_test|integration_test|obs_test|plan_test|server_test|simd_test"

# 3a. The parallel dimension-table build (per-worker private bitsets
#     merged after the join, concurrent linear-probing CAS inserts, a
#     duplicate key split across workers) and the tables' memoized key
#     ranges under concurrent first compiles, repeated so TSan sees many
#     interleavings.
say "TSan: DimensionTableBuildTest + KeyRangeTest x10"
./build-tsan/tests/plan_test \
    --gtest_filter='DimensionTableBuildTest.*:KeyRangeTest.*' \
    --gtest_repeat=10

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

# 3b. Server soak under TSan: >= 8 concurrent queries against the serving
#     engine across workers x fault-probability cells, with poisoned
#     queries, deadlines, client cancels and admission faults in the mix.
#     servebench exits non-zero on any hung/lost query, any completed
#     result that differs from solo execution, any accounting invariant
#     violation (submitted == admitted + shed + rejected), or any
#     abnormal resolution without a matching flight-recorder artifact.
say "servebench soak smoke (TSan, --quick): zero hung/lost queries"
./build-tsan/tools/servebench --quick --soak \
    --incidents-out="$TMP_DIR/soak_incidents.json"

say "soak incident artifacts: parseable and self-contained"
python3 - "$TMP_DIR/soak_incidents.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    incidents = json.load(f)
assert incidents, "soak produced no incident artifacts (it injects " \
    "poison, deadlines and cancels every cell — that cannot be clean)"
kinds = {}
for incident in incidents:
    for key in ("query_id", "kind", "status", "plan", "report",
                "metrics_delta", "trace_tail"):
        assert key in incident, f"incident missing {key}: {incident}"
    assert incident["query_id"] > 0, incident
    assert incident["kind"] in ("fault_ladder_exhausted", "cancelled",
                                "deadline_expired"), incident["kind"]
    assert incident["plan"] is not None, "incident without its plan dump"
    assert incident["report"] is not None, "incident without report rows"
    assert incident["trace_tail"], (
        "incident without a trace tail (soak runs with tracing on)")
    kinds[incident["kind"]] = kinds.get(incident["kind"], 0) + 1
assert "fault_ladder_exhausted" in kinds, kinds
print(f"{len(incidents)} incident artifacts, all self-contained: "
      + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
PY

say "servebench soak smoke (TSan, --quick, PUMP_FORCE_SCALAR=1)"
PUMP_FORCE_SCALAR=1 ./build-tsan/tools/servebench --quick --soak

# 3c. Deterministic concurrency verifier (PUMP_VERIFY=ON): the explorer
#     tests, then verifydump --quick. verifydump exits non-zero when any
#     model fails, any seeded mutant survives, or the lock-order graph
#     has a cycle; the python gate additionally enforces the schedule
#     floor so a silently shrunken suite cannot pass.
say "configure build-verify (PUMP_VERIFY=ON)"
cmake -B build-verify -S . -DCMAKE_BUILD_TYPE=Release \
      -DPUMP_VERIFY=ON >/dev/null
say "build build-verify"
cmake --build build-verify -j "$JOBS"
say "test build-verify (verify_test: explorer, replay, lock order)"
ctest --test-dir build-verify --output-on-failure -R "verify_test"

say "verifydump --quick: models clean, 100% mutant kills, acyclic locks"
./build-verify/tools/verifydump --quick > "$TMP_DIR/verify.json"
python3 - "$TMP_DIR/verify.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["verify"], "verifydump was built without PUMP_VERIFY"
assert report["clean_pass"], "a clean model run failed"
assert report["schedules_explored"] >= 1000, (
    f"explored only {report['schedules_explored']} distinct schedules; "
    "the quick lane must cover >= 1000")
assert report["mutants_total"] >= 10, report["mutants_total"]
assert report["mutants_killed"] == report["mutants_total"], (
    "surviving mutants: " + ", ".join(
        m["mutation"] for m in report["mutants"] if not m["killed"]))
assert report["lock_order"]["acyclic"], report["lock_order"]
print(f"{report['schedules_explored']} schedules explored, "
      f"{report['mutants_killed']}/{report['mutants_total']} mutants "
      f"killed, lock order acyclic over "
      f"{len(report['lock_order']['nodes'])} classes")
PY

# 3d. Shim lint: the migrated structures must declare their concurrency
#     primitives through the verify:: shims; a raw std:: primitive there
#     is invisible to the model checker. Deliberate exceptions carry a
#     `verify-exempt` comment on the same line.
say "verify shim lint (raw std:: primitives in migrated files)"
MIGRATED_FILES=(
  src/plan/build_cache.h src/plan/build_cache.cc
  src/engine/table.h
  src/common/cancel.h
  src/server/query_engine.h src/server/query_engine.cc
  src/exec/executor.h src/exec/executor.cc
  src/exec/morsel.h
  src/exec/work_stealing.h
  src/obs/trace.h src/obs/trace.cc
)
if grep -nE 'std::(mutex|condition_variable|atomic|thread)\b' \
     "${MIGRATED_FILES[@]}" |
   grep -vE 'verify-exempt' |
   grep -vE '^[^:]+:[0-9]+:\s*(//|/?\*)' ; then
  echo "FAIL: raw std:: concurrency primitive in a verifier-migrated" \
       "file (use verify::Mutex/CondVar/Atomic/Thread, or annotate" \
       "the line with 'verify-exempt' and a reason)" >&2
  exit 1
fi
echo "migrated files use verify:: shims only"

# 4. Executor/dispatcher/probe micro bench smoke run (Release, shrunken
#    sizes): the bench self-checks that the probe variants agree and
#    exercises the persistent executor end to end. micro_engine checks
#    every plan-IR run against the brute-force oracle.

say "micro_parallel smoke run (--quick)"
./build-release/bench/micro_parallel --quick >/dev/null

say "micro_engine smoke run (--quick)"
./build-release/bench/micro_engine --quick >/dev/null

# 5. Model linter: the testbeds must be clean, the broken fixture must not.
say "modelcheck: testbed profiles"
./build-release/tools/modelcheck >/dev/null

say "modelcheck: broken fixture must fail"
if ./build-release/tools/modelcheck --profile broken-fixture >/dev/null; then
  echo "FAIL: modelcheck accepted the deliberately broken fixture" >&2
  exit 1
fi
echo "broken fixture rejected, as expected"

# 5b. Mesh lint: every N-GPU topology profile the exchange planner can
#     route over must pass the structural + peering checks; the broken
#     mesh fixture (orphaned GPU, over-electrical host link) must not.
say "modelcheck --mesh: all mesh topology profiles"
./build-release/tools/modelcheck --mesh >/dev/null

say "modelcheck --mesh: broken mesh fixture must fail"
if ./build-release/tools/modelcheck --mesh \
    --profile broken-mesh-fixture >/dev/null; then
  echo "FAIL: modelcheck accepted the deliberately broken mesh fixture" >&2
  exit 1
fi
echo "broken mesh fixture rejected, as expected"

# 6. Plan gate: compile the SSB suite + Q6 to physical plans (plandump
#    already re-checks each plan with plan::ValidatePlan; a malformed
#    plan exits non-zero) and structurally validate the emitted JSON.
say "plandump: SSB suite + Q6 plans must be well-formed"
PLANS_JSON="$TMP_DIR/plans.json"
./build-release/tools/plandump --query all --rows 50000 --policy gpu \
    --json "$PLANS_JSON"
python3 - "$PLANS_JSON" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    plans = json.load(f)

assert len(plans) == 4, f"expected 4 plans, got {len(plans)}"
names = [p["query"] for p in plans]
assert names == ["ssb-q1", "ssb-q2", "ssb-q3", "q6"], names
for p in plans:
    pipes = p["pipelines"]
    assert pipes, f"{p['query']}: no pipelines"
    probe = pipes[-1]
    assert probe["type"] == "probe", f"{p['query']}: no probe pipeline"
    ops = probe["operators"]
    assert ops and ops[-1]["op"] == "aggregate", (
        f"{p['query']}: probe pipeline must end in an aggregate")
    builds = [q for q in pipes if q["type"] == "build"]
    assert len(builds) == p["shape"]["joins"], (
        f"{p['query']}: build pipelines != joins")
    for b in builds:
        # Acceptance: dense key domains must select the perfect table
        # (or hybrid past the GPU budget — not exercised at this size).
        if b["key_density"] >= 0.5:
            assert b["hash_table"] == "perfect", (
                f"{p['query']}: dense dimension picked {b['hash_table']}")
        else:
            assert b["hash_table"] == "linear_probing", (
                f"{p['query']}: sparse dimension picked {b['hash_table']}")
print(f"{len(plans)} plans well-formed "
      f"({sum(len(p['pipelines']) for p in plans)} pipelines)")
PY

# 6b. Dispatch-independence guard: plan choice must not depend on the
#     host's SIMD dispatch — the cost model's constants are deliberately
#     static (the probe_simd residual class tracks the real difference),
#     so the compiled plans must be byte-identical under forced scalar.
say "plandump: plans must be bit-identical across dispatch modes"
PUMP_FORCE_SCALAR=1 ./build-release/tools/plandump --query all \
    --rows 50000 --policy gpu --json "$TMP_DIR/plans_scalar.json"
if ! cmp -s "$PLANS_JSON" "$TMP_DIR/plans_scalar.json"; then
  echo "FAIL: compiled plans differ between auto and forced-scalar" \
       "dispatch (the cost model must stay dispatch-independent)" >&2
  diff "$PLANS_JSON" "$TMP_DIR/plans_scalar.json" | head -20 >&2 || true
  exit 1
fi
echo "plans identical under PUMP_FORCE_SCALAR=1"

# 7. Trace gate: run SSB Q3 through the plan IR with the recorder on and
#    validate all three artifacts. Malformed events (unbalanced B/E),
#    missing counter families, an empty residual report, or span coverage
#    below 95% of wall time all fail the gate.
say "tracedump: SSB Q3 trace/metrics/residuals must be well-formed"
./build-release/tools/tracedump --query ssb-q3 --rows 50000 --policy cost \
    --trace-out "$TMP_DIR/trace.json" \
    --metrics-out "$TMP_DIR/metrics.json" \
    --residuals "$TMP_DIR/residuals.json" > "$TMP_DIR/summary.json"
python3 - "$TMP_DIR/summary.json" "$TMP_DIR/trace.json" \
          "$TMP_DIR/metrics.json" "$TMP_DIR/residuals.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    summary = json.load(f)
assert summary["workers"] >= 2, summary
assert summary["trace_events"] > 0, summary
assert summary["span_coverage"] >= 0.95, (
    f"trace spans cover {summary['span_coverage']:.3f} of wall time, "
    "want >= 0.95")

with open(sys.argv[2]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "trace has no events"
depth = {}
for e in events:
    key = (e["pid"], e["tid"])
    assert e["ph"] in ("B", "E", "i", "M"), f"malformed phase: {e}"
    if e["ph"] in ("B", "E", "i"):
        assert isinstance(e["ts"], (int, float)) and "name" in e, e
    if e["ph"] == "B":
        depth[key] = depth.get(key, 0) + 1
    elif e["ph"] == "E":
        depth[key] = depth.get(key, 0) - 1
        assert depth[key] >= 0, f"E without B on thread {key}"
unbalanced = {k: d for k, d in depth.items() if d != 0}
assert not unbalanced, f"unbalanced B/E per thread: {unbalanced}"

with open(sys.argv[3]) as f:
    metrics = json.load(f)
counters = metrics["counters"]
for family in ("exec.tasks_run", "exec.ws.chunk_claims", "fault.checks",
               "transfer.chunks", "plan.queries", "plan.morsels"):
    assert family in counters, f"metrics snapshot missing {family}"
assert counters["plan.queries"] >= 1, counters["plan.queries"]
assert counters["exec.tasks_run"] > 0, counters["exec.tasks_run"]
assert "plan.pipeline_us" in metrics["histograms"], "missing histogram"

with open(sys.argv[4]) as f:
    report = json.load(f)
rows = report["model_residuals"]
assert rows, "residual report has no pipeline rows"
for row in rows:
    for key in ("pipeline", "class", "predicted_s", "measured_s", "ratio"):
        assert key in row, f"residual row missing {key}: {row}"
    assert row["measured_s"] > 0.0, row
print(f"trace OK: {len(events)} events balanced across "
      f"{len(depth)} threads, {len(counters)} counters, "
      f"{len(rows)} residual rows")
PY

say "tracedump: CPU placement must trace spans from >= 2 worker threads"
./build-release/tools/tracedump --query ssb-q3 --rows 50000 --policy cpu \
    > "$TMP_DIR/summary_cpu.json"
python3 - "$TMP_DIR/summary_cpu.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    summary = json.load(f)
assert summary["trace_threads"] >= 2, (
    f"CPU probe traced {summary['trace_threads']} thread(s); the "
    "work-stealing workers should record into their own rings")
assert summary["span_coverage"] >= 0.95, summary
print(f"{summary['trace_threads']} threads traced, "
      f"coverage {summary['span_coverage']:.4f}")
PY

say "modelcheck: residual report must lint clean (permissive band)"
./build-release/tools/modelcheck --residuals "$TMP_DIR/residuals.json" \
    --residual-band 0:1e9 >/dev/null

# 7b. Trace correlation gate: concurrent queries through the serving
#     engine, per-query timelines reassembled from the query-id stamps
#     across all worker rings. Coverage below 95% means spans lost their
#     attribution somewhere between Submit and the morsel loops.
say "tracedump --concurrent: per-query coverage >= 0.95 from id stamps"
./build-release/tools/tracedump --concurrent 8 --workers 2 --rows 50000 \
    --trace-out "$TMP_DIR/trace_concurrent.json" \
    > "$TMP_DIR/summary_concurrent.json"
./build-release/tools/tracedump --concurrent 8 --workers 2 --rows 50000 \
    --query-id 3 --trace-out "$TMP_DIR/trace_q3only.json" >/dev/null
python3 - "$TMP_DIR/summary_concurrent.json" \
          "$TMP_DIR/trace_concurrent.json" \
          "$TMP_DIR/trace_q3only.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    summary = json.load(f)
assert summary["workers"] >= 2, summary
assert len(summary["queries"]) == 8, summary
assert not summary["coverage_unreliable"], (
    f"ring wrapped ({summary['dropped_events']} dropped); coverage "
    "cannot be trusted at this size — the gate itself is misconfigured")
for q in summary["queries"]:
    assert q["coverage"] >= 0.95, (
        f"query {q['id']}: plan.execute covers {q['coverage']:.3f} of its "
        "server.query span; want >= 0.95")

with open(sys.argv[2]) as f:
    full = json.load(f)["traceEvents"]
tagged = [e for e in full if "qid" in e]
assert tagged, "concurrent trace has no query-id stamps"
assert {e["qid"] for e in tagged} == set(range(1, 9)), (
    sorted({e["qid"] for e in tagged}))

with open(sys.argv[3]) as f:
    filtered = json.load(f)["traceEvents"]
assert filtered, "filtered trace is empty"
assert all(e.get("qid") == 3 for e in filtered), (
    "--query-id 3 export contains foreign events")
depth = {}
for e in filtered:
    key = (e["pid"], e["tid"])
    if e["ph"] == "B":
        depth[key] = depth.get(key, 0) + 1
    elif e["ph"] == "E":
        depth[key] = depth.get(key, 0) - 1
        assert depth[key] >= 0, f"E without B on thread {key}"
assert not any(depth.values()), f"unbalanced filtered B/E: {depth}"
print(f"8 queries reassembled, min coverage "
      f"{summary['min_coverage']:.4f}; filtered export: "
      f"{len(filtered)} events, all qid=3, balanced")
PY

# 7c. Introspection gate: pumpstat's snapshot must carry every family in
#     both exposition formats, and the --incidents run must leave one
#     artifact per induced abnormal resolution.
say "pumpstat: snapshot families in JSON and Prometheus expositions"
./build-release/tools/pumpstat --queries 8 --rows 20000 --incidents \
    --out "$TMP_DIR/pumpstat.json" \
    --incidents-out "$TMP_DIR/pumpstat_incidents.json"
./build-release/tools/pumpstat --queries 4 --rows 20000 --prom \
    --out "$TMP_DIR/pumpstat.prom"
python3 - "$TMP_DIR/pumpstat.json" "$TMP_DIR/pumpstat_incidents.json" \
          "$TMP_DIR/pumpstat.prom" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    snap = json.load(f)
for family in ("stats", "queries", "cache", "window", "exchange_routes",
               "incidents", "slo"):
    assert family in snap, f"snapshot missing {family}"
assert snap["stats"]["completed"] >= 8, snap["stats"]
assert snap["cache"]["contents"], "cache contents empty after SSB mix"
assert 0.0 < snap["cache"]["hit_ratio"] <= 1.0, snap["cache"]
assert snap["window"]["count"] > 0, snap["window"]
assert snap["window"]["p99_us"] >= snap["window"]["p50_us"], snap["window"]
# The poisoned build and the microsecond deadline are deterministic;
# the client-side cancel can lose its race to a fast query, so it is
# allowed (not required) here. Soak's invariants pin the exact
# stats<->incidents correspondence.
by_kind = snap["incidents"]["by_kind"]
assert by_kind.get("fault_ladder_exhausted") == 1, snap["incidents"]
assert by_kind.get("deadline_expired") == 1, snap["incidents"]
assert snap["incidents"]["captured"] == sum(by_kind.values()), (
    snap["incidents"])
assert snap["slo"]["ok"] and not snap["slo"]["configured"], snap["slo"]

with open(sys.argv[2]) as f:
    ring = json.load(f)
assert len(ring["incidents"]) == snap["incidents"]["captured"], ring

with open(sys.argv[3]) as f:
    prom = f.read()
for family in ("pump_server_submitted", "pump_server_queue_depth",
               "pump_cache_hit_ratio", "pump_window_latency_p99_us",
               "pump_window_qps", "pump_incidents_captured",
               "pump_slo_ok"):
    assert f"\n{family} " in prom or prom.startswith(f"{family} "), (
        f"prometheus exposition missing {family}")
assert "# TYPE pump_server_submitted counter" in prom, "missing # TYPE"
print(f"snapshot families present; {len(ring['incidents'])} induced "
      f"incidents captured; prometheus exposition complete")
PY

# 7d. Watchdog self-test: bench_check.py must fail a fabricated
#     regression and pass the clean case — deterministic synthetic
#     records, no bench noise involved.
say "bench_check.py: synthetic regression must fail, clean must pass"
python3 - "$TMP_DIR" <<'PY'
import json
import os
import subprocess
import sys

tmp = sys.argv[1]
base = [
    {"experiment": "servebench_qps", "config": "c", "mean": 100.0,
     "stderr": 0.0, "runs": 3},
    {"experiment": "servebench_p99_us", "config": "c", "mean": 500.0,
     "stderr": 0.0, "runs": 3, "median": 500.0, "mad": 10.0,
     "has_distribution": True},
]
clean = [
    {"experiment": "servebench_qps", "config": "c", "mean": 96.0,
     "stderr": 0.0, "runs": 1},
    {"experiment": "servebench_p99_us", "config": "c", "mean": 540.0,
     "stderr": 0.0, "runs": 1},
]
bad = [
    {"experiment": "servebench_qps", "config": "c", "mean": 50.0,
     "stderr": 0.0, "runs": 1},
    {"experiment": "servebench_p99_us", "config": "c", "mean": 900.0,
     "stderr": 0.0, "runs": 1},
]
for name, records in (("base", base), ("clean", clean), ("bad", bad)):
    with open(os.path.join(tmp, f"bc_{name}.json"), "w") as f:
        json.dump(records, f)

def run(fresh):
    return subprocess.run(
        [sys.executable, "scripts/bench_check.py",
         "--baseline", os.path.join(tmp, "bc_base.json"),
         os.path.join(tmp, f"bc_{fresh}.json")],
        capture_output=True, text=True).returncode

assert run("clean") == 0, "bench_check failed the in-band case"
assert run("bad") != 0, "bench_check passed a 2x regression"
print("watchdog self-test OK: clean -> 0, regression -> nonzero")
PY

# 7e. Served-query benchmark smoke: every workload at quick size in both
#     modes, compared with the brute-force oracle, plus the oracle's own
#     self-test (a corrupted expected answer must fail the run). Builds
#     into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
say "perfbench: quick runs of every workload + oracle self-test"
python3 perfbench/test_perfbench.py

# 8. Overhead guard: with the recorder off, the compiled-in span
#    instrumentation must cost <= 5% over the same code built with
#    -DPUMP_TRACE=OFF. micro_engine times one worker (a disabled span
#    costs per morsel per worker; more workers only add scheduler noise).
#    The two builds run full-size in interleaved pairs, alternating which
#    goes first; a query's overhead is the median over the pairs of its
#    plan_ir median-latency ratio, and the gate is on the mean across
#    queries. Building the whole tree also keeps the documented
#    PUMP_TRACE=OFF configuration compiling under -Werror. 32 pairs
#    (~2 min): on a shared 4-vCPU host one pair's per-query ratio spreads
#    by +-10-30%, and 8 pairs failed an unchanged tree in 3 of 10 repeats.
OVERHEAD_PAIRS=32
say "configure build-notrace (PUMP_TRACE=OFF)"
cmake -B build-notrace -S . -DCMAKE_BUILD_TYPE=Release \
      -DPUMP_TRACE=OFF >/dev/null
say "build build-notrace"
cmake --build build-notrace -j "$JOBS"

say "disabled-tracing overhead guard ($OVERHEAD_PAIRS pairs, mean <= 5%)"
for pair in $(seq 1 "$OVERHEAD_PAIRS"); do
  if (( pair % 2 )); then order="release notrace"; else order="notrace release"; fi
  for side in $order; do
    "./build-$side/bench/micro_engine" \
        --json="$TMP_DIR/overhead_${side}_${pair}.json" >/dev/null
  done
done
python3 - "$TMP_DIR" "$OVERHEAD_PAIRS" <<'PY'
import json
import statistics
import sys

tmp, pairs = sys.argv[1], int(sys.argv[2])

def plan_ir_medians(side, pair):
    with open(f"{tmp}/overhead_{side}_{pair}.json") as f:
        records = json.load(f)
    return {r["config"][len("plan_ir "):]: r["median"] for r in records
            if r["experiment"] == "engine_query_us"
            and r["config"].startswith("plan_ir ")}

ratios = {}
for pair in range(1, pairs + 1):
    traced = plan_ir_medians("release", pair)
    untraced = plan_ir_medians("notrace", pair)
    assert traced and traced.keys() == untraced.keys(), (traced, untraced)
    for query, us in traced.items():
        ratios.setdefault(query, []).append(
            (us / untraced[query] - 1.0) * 100.0)
overheads = {q: statistics.median(r) for q, r in ratios.items()}
mean = sum(overheads.values()) / len(overheads)
per_query = ", ".join(f"{q} {o:+.1f}%" for q, o in overheads.items())
assert mean <= 5.0, (
    f"instrumented-but-disabled plan IR is {mean:+.2f}% over the "
    f"PUMP_TRACE=OFF build on average ({per_query}); ceiling is +5%")
print(f"disabled-tracing overhead: {mean:+.2f}% mean over "
      f"{len(overheads)} queries, {pairs} pairs ({per_query}; "
      f"ceiling +5%)")
PY

# 9. clang-tidy, when available. The container image may not ship it; the
#    .clang-tidy profile is still enforced wherever the tool exists.
if command -v clang-tidy >/dev/null 2>&1; then
  say "clang-tidy"
  cmake -B build-release -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  git ls-files 'src/*.cc' 'src/**/*.cc' 'tests/*.cc' 'bench/*.cc' \
               'tools/**/*.cc' |
    xargs -P "$JOBS" -n 1 clang-tidy -p build-release --quiet
else
  say "clang-tidy not installed; skipping lint pass"
fi

say "all checks passed"

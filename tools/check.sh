#!/usr/bin/env bash
# One-command static-analysis + test gate.
#
# Runs, in sequence:
#   release   configure + build + full ctest (includes the lumos_lint
#             cases and one bench_smoke.<name> case per harness)
#   sanitize  ASan+UBSan build + `ctest -L sanitize` invariant suite,
#             including bench_runner's command-line tests
#   tsan      ThreadSanitizer build + `ctest -L tsan` concurrency suite
#   failpoints Debug build with -DLUMOS_FAILPOINTS=ON + `ctest -L
#             failpoints` fault-injection suite (typed-error propagation)
#   lint      the lumos_lint ctest cases (lumos_lint token rules,
#             lint_layers include-graph/layer DAG, lint_hotpath
#             LUMOS_HOT_PATH discipline, lint_signals LUMOS_SIGNAL_HANDLER
#             async-signal-safety) with --output-on-failure so a
#             break prints file:line diagnostics, plus a direct --ratchet
#             run that prints per-rule finding counts
#             (clang-tidy additionally gates compiles when configured with
#              -DLUMOS_LINT=ON and a clang-tidy binary is on PATH)
#   docs      the docs_check ctest: every tools/lint/layers.txt module
#             must appear in docs/ARCHITECTURE.md, and the docs/FIGURES.md
#             rows must be exactly the harnesses `bench_runner --list`
#             prints
#   bench:smoke  bench_runner --smoke --verify: every harness on capped
#             workloads in one process, JSON self-check + same-seed
#             determinism of each whole harness entry (metrics, counters,
#             gauges)
#   serve:chaos  the ext_serve_chaos drill on its own
#             (`bench_runner --only ext_serve_chaos`): lumos_serve killed
#             (SIGKILL) at seeded points mid-stream and SIGTERM'd once,
#             restarted, and required to replay only the gap since its
#             last checkpoint and reproduce the uninterrupted report
#             bit-identically (same-seed determinism via --verify is
#             covered by the bench:smoke stage, which runs it in-process)
#   perf:gate  tools/perf_gate.py: every perfbench workload at its
#             default seed and run_seconds; fails when an output digest
#             or check no longer matches (perfbench/references.json), when
#             an end-to-end metric of a BENCHMARK.json workload is missing,
#             or when one is worse than tools/perf_baseline.json by more
#             than its BENCHMARK.json bound
#
# Continues past failures and prints a single PASS/FAIL summary; exit
# status is non-zero if any stage failed. Run from the repo root:
#   ./tools/check.sh [--quick]
# --quick skips the sanitize, tsan and failpoints presets; every other
# stage, perf:gate included, still runs.
set -u

cd "$(dirname "$0")/.." || exit 2

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "usage: tools/check.sh [--quick]" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"
declare -a STAGES RESULTS
overall=0

run_stage() {
  local name="$1"; shift
  local log
  log="$(mktemp -t lumos-check-"$name".XXXXXX.log)"
  echo "==> $name"
  if "$@" >"$log" 2>&1; then
    STAGES+=("$name"); RESULTS+=("PASS")
  else
    STAGES+=("$name"); RESULTS+=("FAIL ($log)")
    overall=1
    tail -n 20 "$log" | sed 's/^/    /'
  fi
}

preset_stage() {
  local preset="$1" label="$2"
  run_stage "$preset:configure" cmake --preset "$preset"
  run_stage "$preset:build" cmake --build --preset "$preset" -j "$JOBS"
  if [ -n "$label" ]; then
    run_stage "$preset:test" ctest --preset "$preset" -j "$JOBS" \
      --output-on-failure
  else
    run_stage "$preset:test" ctest --test-dir build -j "$JOBS" \
      --output-on-failure
  fi
}

preset_stage release ""
if [ "$QUICK" -eq 0 ]; then
  preset_stage sanitize sanitize
  preset_stage tsan tsan
  preset_stage failpoints failpoints
fi
# Structural lint: the three registered ctest cases fail with file:line
# diagnostics; the direct run prints per-rule counts and exercises the
# committed baseline exactly as CI does.
run_stage "lint:ctest" ctest --test-dir build \
  -R '^(lumos_lint|lint_layers|lint_hotpath|lint_signals)$' \
  --output-on-failure
run_stage "lint:ratchet" ./build/tools/lumos_lint --ratchet \
  --layers tools/lint/layers.txt --baseline tools/lint/baseline.json \
  src bench
# Docs-rot gate: layers.txt modules ↔ ARCHITECTURE.md, FIGURES.md rows ↔
# bench_runner --list (tools/docs_check.cpp).
run_stage "docs:check" ctest --test-dir build \
  -R '^docs_check$' --output-on-failure
run_stage "bench:smoke" ./build/bench/bench_runner --smoke --verify \
  --out build/BENCH_check.json
# Crash-consistency drill: kill -9 the serve daemon at seeded points,
# restart, and require gap-only replay plus a bit-identical final report
# (DESIGN.md §4g; the harness throws on any divergence).
run_stage "serve:chaos" ./build/bench/bench_runner --only ext_serve_chaos \
  --smoke --out build/BENCH_chaos.json
# The one throughput gate: perfbench's repeated, output-checked runs
# against the committed baseline, with each metric's tolerance taken from
# its BENCHMARK.json bound (the benchmark's recorded spread).
run_stage "perf:gate" python3 tools/perf_gate.py

echo
echo "================ check.sh summary ================"
for i in "${!STAGES[@]}"; do
  printf '  %-22s %s\n' "${STAGES[$i]}" "${RESULTS[$i]}"
done
if [ "$overall" -eq 0 ]; then
  echo "ALL STAGES PASSED"
else
  echo "SOME STAGES FAILED"
fi
exit "$overall"

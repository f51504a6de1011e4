#!/usr/bin/env python3
"""End-to-end benchmark of lumos: builds the library from source, runs one
workload, checks its outputs, and prints one JSON result line.

Usage (from the repository root):

  python3 perfbench/run.py --workload serve --seed 42 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all          # all four workloads, a table
  python3 perfbench/run.py --list                  # every metric and unit

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 also
runs the traced decomposition once and reports every per-layer metric
(spans go to .bench_out/). perfbench/README.md describes the workloads,
the metrics and the baseline.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the benchmark; logs go to stderr."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # The generated Makefile, not the cache, marks a configure that worked.
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "lumos_perfbench"])
    for cmd in steps:
        code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if code != 0:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "lumos_perfbench"


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its raw JSON result."""
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", str(workdir)]
    if trace:
        spans = ROOT / ".bench_out" / f"spans-{workload}-{seed}.json"
        cmd += ["--spans-out", str(spans)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {workload} exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {workload} printed no result")
    return json.loads(lines[-1])


def check_reference(raw, references):
    """Compares the run's digests with the ones recorded for the seed its
    inputs came from. Returns (attempted, failed, messages)."""
    seed = str(raw["input_seed"])
    recorded = references.get(raw["workload"], {}).get(seed)
    if recorded is None:
        return 0, 0, [f"no reference recorded for input seed {seed}: "
                      "only run-to-run agreement was checked"]
    attempted = failed = 0
    messages = []
    for key, want in sorted(recorded.items()):
        attempted += 1
        got = raw["digests"].get(key)
        if got != want:
            failed += 1
            messages.append(f"digest '{key}' is {got}, reference {want}")
    return attempted, failed, messages


def result_line(raw, bench, references, trace):
    """Maps a raw result onto the metric list of BENCHMARK.json."""
    ref_attempted, ref_failed, ref_messages = check_reference(raw, references)
    attempted = raw["attempted"] + ref_attempted + raw["units"]
    failed = raw["failed"] + ref_failed + raw["failed_units"]
    metrics = {}
    if trace:
        for m in bench["per_layer"]:
            # Layers a workload does not call read 0 (see the catalogue's
            # "workloads" list per metric).
            metrics[m["name"]] = {"value": raw["layers"].get(m["name"], 0.0),
                                  "unit": m["unit"]}
    else:
        for m in bench["end_to_end"]:
            metrics[m["name"]] = {"value": raw["end_to_end"][m["name"]],
                                  "unit": m["unit"]}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, raw["failures"] + ref_messages


def summary(raw, result, messages):
    lines = [f"{raw['workload']}  seed {raw['seed']}  "
             f"{raw['reps']} timed runs (median {median(raw['rep_walls_s']):.3f} s "
             f"wall, {median(raw['rep_cpu_s']):.3f} s CPU)  "
             f"{'correct' if result['correct'] else 'FAILED'}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    lines.append(f"  {'failed_ratio':32s} {ratio:>16.6g} "
                 f"({result['failed']} of {result['attempted']})")
    if raw.get("notes"):
        lines.append(f"  note: {raw['notes']}")
    lines += [f"  check: {m}" for m in messages]
    return "\n".join(lines)


def list_metrics(bench, catalogue):
    print(f"{'metric':32s} {'unit':10s} {'kind':11s} {'module':10s} workloads")
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            c = catalogue["metrics"][m["name"]]
            print(f"{m['name']:32s} {m['unit']:10s} {kind:11s} "
                  f"{c['module']:10s} {','.join(c['workloads'])}")
            for move in c["moves"]:
                effect = f" ({move['effect']})" if "effect" in move else ""
                print(f"{'':34s}moves {move['metric']} on "
                      f"{','.join(move['workloads'])}{effect}")


def run_all(binary, bench, catalogue, references, args):
    """Runs every workload and prints the end-to-end table."""
    header = (f"{'workload':14s} {'jobs_per_s':>14s} {'events_per_s':>14s} "
              f"{'setup_s':>9s} {'peak_rss_mb':>12s} {'failed_ratio':>13s}")
    rows = [header, " " * 15 + f"{'jobs/s':>14s} {'events/s':>14s} "
            f"{'s':>9s} {'MiB':>12s} {'ratio':>13s}"]
    ok = True
    for name in catalogue["workloads"]:
        raw = run_binary(binary, name, args.seed, args.seconds, False)
        result, messages = result_line(raw, bench, references, False)
        print(summary(raw, result, messages), flush=True)
        ok = ok and result["correct"]
        m = result["metrics"]
        rows.append(f"{name:14s} {m['jobs_per_s']['value']:>14.1f} "
                    f"{m['events_per_s']['value']:>14.1f} "
                    f"{m['setup_s']['value']:>9.3f} "
                    f"{m['peak_rss_mb']['value']:>12.1f} "
                    f"{result['failed'] / result['attempted']:>13.3g}")
    print("\n".join(rows))
    return 0 if ok else 1


def main():
    bench = load_json(ROOT / "BENCHMARK.json")
    catalogue = load_json(HERE / "catalogue.json")
    # The catalogue's workloads: BENCHMARK.json's plus table2, which runs
    # on request but is not gated (README "Workloads").
    names = list(catalogue["workloads"])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names + ["all"])
    p.add_argument("--seed", type=int, default=catalogue["seeds"]["default"])
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--list", action="store_true",
                   help="print every metric by name, unit and module")
    p.add_argument("--record-reference", action="store_true",
                   help="store a clean run's digests as the reference of a "
                   "seed that has none")
    args = p.parse_args()
    if args.list:
        list_metrics(bench, catalogue)
        return 0
    if args.workload is None:
        p.error("--workload is required")

    binary = build()
    references_path = HERE / "references.json"
    references = load_json(references_path)
    if args.workload == "all":
        return run_all(binary, bench, catalogue, references, args)

    raw = run_binary(binary, args.workload, args.seed, args.seconds,
                     args.trace == 1)
    result, messages = result_line(raw, bench, references, args.trace == 1)
    seed = str(raw["input_seed"])
    per_seed = references.setdefault(args.workload, {})
    if args.record_reference and result["correct"] and seed not in per_seed:
        # Only a clean run records, and never over an existing reference:
        # after an intended output change, delete the seed's entry first.
        per_seed[seed] = raw["digests"]
        references_path.write_text(
            json.dumps(references, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
    print(summary(raw, result, messages))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    # A terminated benchmark stops its child (run_binary's finally) first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())

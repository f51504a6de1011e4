#!/usr/bin/env python3
"""Throughput gate over perfbench: python3 tools/perf_gate.py [--write-baseline]

Runs each workload of perfbench/catalogue.json once (perfbench/run.py, default
seed and run_seconds) and fails on "correct": false. For the workloads of
BENCHMARK.json, each end_to_end metric must be present and within its bound of
tools/perf_baseline.json in its "better" direction. --write-baseline re-records
that file from a clean run. BENCHMARK.json and perfbench/ are only read.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "tools" / "perf_baseline.json"


def load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def run_workload(name):
    """One perfbench run; returns its result line, or None if it failed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           name], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    print(proc.stdout, end="", flush=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def check(name, metric, value, base):
    """Returns a failure message, or None when `value` is within bound."""
    if base is None:
        return f"{name}: no baseline for {metric['name']}"
    sign = 1.0 if metric["better"] == "higher" else -1.0
    loss = sign * (base - value) / base
    ok = loss <= metric["bound"]
    print(f"perf_gate: {name} {metric['name']} {value:.6g} vs baseline "
          f"{base:.6g}: {'worse' if loss > 0 else 'better'} by "
          f"{abs(loss):.1%}, bound {metric['bound']:.0%} "
          f"{'ok' if ok else 'REGRESSION'}")
    return None if ok else f"{name}: {metric['name']} worse by {loss:.1%}"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write-baseline", action="store_true")
    write = p.parse_args().write_baseline
    bench = load(ROOT / "BENCHMARK.json")
    gated = {w["name"] for w in bench["workloads"]}
    baseline = {} if write else load(BASELINE)
    failures, recorded = [], {}
    for name in load(ROOT / "perfbench" / "catalogue.json")["workloads"]:
        result = run_workload(name)
        if result is None or not result["correct"]:
            failures.append(f"{name}: run failed or reported correct: false")
            continue
        for metric in bench["end_to_end"] if name in gated else []:
            got = result["metrics"].get(metric["name"])
            if got is None:
                failures.append(f"{name}: {metric['name']} missing")
                continue
            recorded.setdefault(name, {})[metric["name"]] = got["value"]
            base = baseline.get(name, {}).get(metric["name"])
            if not write and (message := check(name, metric, got["value"],
                                               base)):
                failures.append(message)
    for message in failures:
        print(f"perf_gate: FAIL {message}")
    if write and not failures:
        BASELINE.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                            + "\n", encoding="utf-8")
        print(f"perf_gate: wrote {BASELINE.relative_to(ROOT)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

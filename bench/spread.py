#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median,
quartiles and spread (the distance between the quartiles as a share of the
median), the way a regression check compares two commits.

    python3 bench/spread.py --workloads fig1-sweep parity --seeds 1 2 3 4 5 \\
        --seconds 20 --trace 0 [--out FILE]

Runs are sequential, one process at a time, so they do not disturb each
other's timings. With --out, every run's result and the summary are written
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"report": lines[:-1], "result": json.loads(lines[-1])}


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    doc = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", flush=True)
        summary = summarize([r["result"] for r in runs])
        for name, m in summary.items():
            spread = "-" if m["spread"] is None else f"{100 * m['spread']:.1f}%"
            print(f"  {name:40s} median {m['median']:12.6g} {m['unit']:6s} spread {spread}")
        doc["workloads"][workload] = {"summary": summary, "runs": runs}
        if args.out:
            Path(args.out).write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

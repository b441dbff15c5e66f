#!/usr/bin/env python3
"""Solve/check benchmark for carefulsynth.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload as a closed loop with a single client: it
solves each instance through the in-process CLI entry `carefulsynth.cli.run`,
checks every certificate it gets with `check`, and only then moves on. It
checks every verdict against the instance's reference, prints a report and,
as its last line, one JSON object with the metrics.

`--seconds` sets how much work a run measures: the number of whole rounds
over the instance set that take about that long, in reference seconds (see
below), at the commit that defined the benchmark. The number is fixed rather
than timed, so that both sides of a comparison time the same calls and a
median or tail falls on the same instance.

With `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
alternates untraced and traced rounds: the traced rounds give per-layer
times and counts from spans recorded around the calls into each layer (see
tracer.py), the pairs of rounds give the tracing overhead, and the spans
are written to `.bench_work/` at exit.

Times are in reference seconds. The speed of a shared machine drifts by
20% and more over tens of seconds, which no amount of repetition inside one
run averages out. So every timed call is bracketed by a fixed pure-Python
calibration loop, and its wall time is scaled by CAL_REF_S over the mean
time of the two loops: a reference second is a wall second on a machine that
runs the loop in CAL_REF_S. The loop does not touch carefulsynth, so a
change to the package moves reference times as it moves wall times. The
report also prints the unscaled wall-time medians.

The package is imported from `src/` beside this directory; the benchmark
fails without a result when it is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing
import workloads

ROOT = workloads.ROOT
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 5  # setup_s is the median of this many set-ups
CALL_BUDGET_S = 60.0  # a solve or check call that takes longer (wall time) has failed
CAL_ITERATIONS = 40_000
CAL_REF_S = 0.004  # about the calibration loop's time on a 2-core x86 VM, Python 3.11
MODULES = ("cli", "synthesis", "zerosum", "ltl", "reduction")  # the ones traced or used


def calibration_loop() -> float:
    """Wall seconds that a fixed pure-Python loop takes right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def import_package() -> dict:
    """Import carefulsynth afresh from src/, so that every set-up pays the
    import, and return its modules by short name."""
    for name in [m for m in sys.modules if m == "carefulsynth" or m.startswith("carefulsynth.")]:
        del sys.modules[name]
    pkg = importlib.import_module("carefulsynth")
    if Path(pkg.__file__).resolve().parent != SRC / "carefulsynth":
        raise RuntimeError(f"imported carefulsynth from {pkg.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"carefulsynth.{name}") for name in MODULES}


@dataclass
class Run:
    """Everything one measurement loop observed. Times are reference
    seconds unless named `raw`."""

    solve_s: list[float] = field(default_factory=list)
    check_s: list[float] = field(default_factory=list)
    solve_raw_s: list[float] = field(default_factory=list)
    check_raw_s: list[float] = field(default_factory=list)
    completed: int = 0  # instances done (solve, plus check when solved)
    attempted: int = 0  # solve and check calls
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    certificates: dict[str, str] = field(default_factory=dict)
    # per instance and round: (traced, solve + check seconds)
    instance_s: list[tuple[bool, float]] = field(default_factory=list)
    traced_rounds: list[tuple[int, int]] = field(default_factory=list)  # span index ranges
    span_scale: dict[int, float] = field(default_factory=dict)  # root span -> reference scale


def solve_problems(inst: workloads.Instance, code: int, out: str) -> list[str]:
    """Differences between a solve result and the instance's reference."""
    expected_code = 0 if inst.status == "solution" else 1
    if code != expected_code:
        return [f"exit code {code}, expected {expected_code}: {out.strip()[:200]}"]
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return ["output is not a JSON document"]
    problems = []
    if doc.get("status") != inst.status:
        problems.append(f"status {doc.get('status')}, expected {inst.status} ({inst.reference})")
    for key in ("winners", "stem", "loop"):
        want = getattr(inst, key)
        got = doc.get("winners") if key == "winners" else doc.get("outcome", {}).get(key)
        if want is not None and tuple(got or ()) != want:
            problems.append(f"{key} {got}, expected {list(want)} ({inst.reference})")
    return problems


def run_instance(pkg, inst, run: Run, workdir: Path, tr) -> float:
    """Solve one instance and check its certificate; returns the reference
    seconds both calls took."""

    def call(kind, argv, judge):
        run.attempted += 1
        before = calibration_loop()
        root = tr.begin() if tr is not None else None
        t0 = time.perf_counter()
        try:
            code, out = workloads.call_cli(pkg["cli"], argv)
            problems = []
        except Exception as e:  # a call that raises has failed; the loop goes on
            code, out = None, ""
            problems = [f"raised {type(e).__name__}: {e}"]
        raw = time.perf_counter() - t0
        if tr is not None:
            tr.end(f"cli.run.{kind}")
        scale = 2 * CAL_REF_S / (before + calibration_loop())
        if root is not None:
            run.span_scale[root] = scale
        if code is not None:
            problems += judge(code, out)
        if raw > CALL_BUDGET_S:
            problems.append(f"took {raw:.1f} s, over the budget of {CALL_BUDGET_S} s")
        if problems:
            run.failed += 1
            run.failures += [f"{inst.id}: {kind}: {p}" for p in problems]
        return code, out, raw, raw * scale

    def judge_solve(code, out):
        problems = solve_problems(inst, code, out)
        if out != run.certificates.setdefault(inst.id, out):
            problems.append("certificate bytes differ from the first repetition")
        return problems

    def judge_check(code, out):
        return [] if code == 0 else [f"exit code {code}: {out.strip()[:200]}"]

    code, out, raw, solve_s = call("solve", inst.solve_argv(), judge_solve)
    run.solve_raw_s.append(raw)
    run.solve_s.append(solve_s)
    run.completed += 1
    if code != 0:
        return solve_s
    certificate = workdir / "certificate.json"
    certificate.write_text(out, encoding="utf-8")
    _, _, raw, check_s = call("check", inst.check_argv(str(certificate)), judge_check)
    run.check_raw_s.append(raw)
    run.check_s.append(check_s)
    return solve_s + check_s


def measure(pkg, instances, rounds: int, workdir: Path, tr) -> Run:
    """Closed loop over the instance set for `rounds` rounds. With a tracer
    the rounds come in pairs of one untraced and one traced round, in
    alternating order."""
    run = Run()
    for k in range(rounds):
        traced = tr is not None and (k // 2 + k) % 2 == 1
        if traced:
            tr.install(pkg)
            first_span = len(tr.spans)
        for inst in instances:
            if tr is not None:
                tr.instance = inst.id
            dt = run_instance(pkg, inst, run, workdir, tr if traced else None)
            run.instance_s.append((traced, dt))
        if traced:
            tr.uninstall()
            run.traced_rounds.append((first_span, len(tr.spans)))
    return run


# ---------------------------------------------------------------------------
# Metrics


def tail(samples: list[float]) -> tuple[float, int, int]:
    """The highest whole percentile with at least 10 samples above it
    (nearest rank), with that percentile and the sample count. Below 20
    samples no percentile from the median up qualifies; the median is
    reported then."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return xs[rank - 1], p, n
    return statistics.median(xs), 50, n


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def end_to_end(run: Run, setup_s: list[float]) -> tuple[dict, list[str]]:
    tail_s, tail_p, n = tail(run.solve_s)
    metrics = {
        "solve_s_p50": (_median(run.solve_s), "s"),
        "solve_s_tail": (tail_s, "s"),
        "check_s_p50": (_median(run.check_s), "s"),
        "instances_per_s": (run.completed / (sum(run.solve_s) + sum(run.check_s)), "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"solve_s_tail is p{tail_p} of {n} solve samples"
        + (" (too few samples for a tail above the median)" if tail_p == 50 else ""),
        f"check samples: {len(run.check_s)}",
        f"failed_frac: {run.failed / run.attempted:.4f} ({run.failed} of {run.attempted} calls)",
        f"wall-time medians: solve {_median(run.solve_raw_s):.6f} s, "
        f"check {_median(run.check_raw_s):.6f} s",
    ]
    return metrics, notes


# per-layer time metric -> span names it sums (inclusive time)
LAYER_TIMES = {
    "arena.parse_arena_s": ["cli.parse_arena"],
    "unfolding.unfold_s": ["cli.unfold", "synthesis.unfold"],
    "cli.saturation_caveat_s": ["cli._saturation_caveat"],
    "synthesis.solve_s": ["synthesis.solve"],
    "zerosum.punish_region_s": ["synthesis.punish_region"],
    "zerosum.solve_parity_s": ["zerosum.solve_parity"],
    "synthesis.find_witness_lasso_s": ["synthesis.find_witness_lasso"],
    "graphs.scc_s": ["synthesis.strongly_connected_components"],
    "graphs.shortest_path_s": ["synthesis.shortest_path"],
    "ltl.to_nba_s": ["ltl.to_nba"],
    "synthesis.check_certificate_s": ["synthesis.check_certificate"],
}
# layers whose self time (minus the wrapped calls inside) is reported too
LAYER_SELF_TIMES = {
    "cli.self_s": ["cli.run.solve", "cli.run.check"],
    "synthesis.find_witness_lasso.self_s": ["synthesis.find_witness_lasso"],
    "synthesis.check_certificate.self_s": ["synthesis.check_certificate"],
}
# per-instance count metric -> (span names, "calls" or "sizes")
LAYER_COUNTS = {
    "unfolding.unfold_calls.cli": (["cli.unfold"], "calls"),
    "unfolding.unfold_calls.synthesis": (["synthesis.unfold"], "calls"),
    "synthesis.winner_sets_tried": (["synthesis.find_witness_lasso"], "calls"),
    "synthesis.product_nodes": (["synthesis.strongly_connected_components"], "sizes"),
    "ltl.to_nba_calls": (["ltl.to_nba"], "calls"),
    "ltl.nba_states": (["ltl.to_nba"], "sizes"),
    "zerosum.punish_region_calls": (["synthesis.punish_region"], "calls"),
    "zerosum.win_states": (["synthesis.punish_region"], "sizes"),
    "zerosum.parity_game_states": (["zerosum.solve_parity"], "sizes"),
}
# the layers whose share of solve and check time the report prints; nested
# layers overlap (to_nba runs inside find_witness_lasso)
SHARES = {
    "cli.run.solve": ["cli.parse_arena", "cli._saturation_caveat", "synthesis.unfold",
                      "synthesis.punish_region", "zerosum.solve_parity",
                      "synthesis.find_witness_lasso", "ltl.to_nba"],
    "cli.run.check": ["cli.parse_arena", "synthesis.unfold", "synthesis.punish_region",
                      "zerosum.solve_parity", "synthesis.check_certificate"],
}


def per_layer(run: Run, spans: list, setup_spans: list, setup_scale: float,
              n_instances: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced rounds. Times are reference seconds
    per instance over all traced rounds, each span scaled like the call it
    ran in; counts are per instance over the first traced round, so they
    repeat exactly for a seed."""
    own = tracing.self_times(spans)
    roots = _roots(spans)
    n_traced = n_instances * len(run.traced_rounds)

    inclusive, self_total = defaultdict(float), defaultdict(float)
    under = defaultdict(float)  # (root name, span name) -> inclusive seconds
    check_regions = 0.0
    for a, b in run.traced_rounds:
        for i in range(a, b):
            s = spans[i]
            scale = run.span_scale[roots[i]]
            inclusive[s.name] += (s.end - s.start) * scale
            self_total[s.name] += own[i] * scale
            under[(spans[roots[i]].name, s.name)] += (s.end - s.start) * scale
            if s.name == "synthesis.punish_region" and (
                "synthesis.check_certificate" in tracing.ancestors(spans, i)
            ):
                check_regions += (s.end - s.start) * scale

    metrics = {}
    for name, sources in LAYER_TIMES.items():
        metrics[name] = (sum(inclusive[x] for x in sources) / n_traced, "s")
    metrics["zerosum.punish_region_in_check_s"] = (check_regions / n_traced, "s")
    for name, sources in LAYER_SELF_TIMES.items():
        metrics[name] = (sum(self_total[x] for x in sources) / n_traced, "s")
    build = sum(s.end - s.start for s in setup_spans if s.name == "reduction.build_game")
    metrics["reduction.build_game_s"] = (build * setup_scale / n_instances, "s")

    a, b = run.traced_rounds[0]
    calls, sizes = defaultdict(int), defaultdict(float)
    for s in spans[a:b]:
        calls[s.name] += 1
        sizes[s.name] += s.size or 0
    for name, (sources, kind) in LAYER_COUNTS.items():
        table = calls if kind == "calls" else sizes
        metrics[name] = (sum(table[x] for x in sources) / n_instances, "count")
    states = sum(
        s.size for s in spans[a:b]
        if s.name == "synthesis.unfold" and spans[s.parent].name == "synthesis.solve"
    )
    metrics["unfolding.states"] = (states / n_instances, "count")
    tried = calls["synthesis.find_witness_lasso"]
    found = sizes["synthesis.find_witness_lasso"]
    metrics["synthesis.witness_found_ratio"] = (found / tried if tried else 0.0, "ratio")

    plain = sum(dt for traced, dt in run.instance_s if not traced)
    with_trace = sum(dt for traced, dt in run.instance_s if traced)
    metrics["trace.overhead"] = (with_trace / plain - 1, "ratio")

    notes = [f"traced rounds: {len(run.traced_rounds)} of {n_instances} instances"]
    for root, parts in SHARES.items():
        total = inclusive[root]
        if total:
            shares = ", ".join(
                f"{p} {100 * under[(root, p)] / total:.1f}%" for p in parts if under[(root, p)]
            )
            notes.append(f"share of {root}: {shares}, "
                         f"cli self {100 * self_total[root] / total:.1f}%")
    return metrics, notes


def _roots(spans: list) -> list[int]:
    """Index of each span's outermost enclosing span."""
    roots: list[int] = []
    for i, s in enumerate(spans):
        roots.append(roots[s.parent] if s.parent >= 0 else i)
    return roots


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "carefulsynth" / "__init__.py").is_file():
        print(f"error: no carefulsynth package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    tr = tracing.Tracer() if args.trace else None
    setup_s = []
    for rep in range(SETUP_REPS):
        shutil.rmtree(workdir / "instances", ignore_errors=True)
        before = calibration_loop()
        t0 = time.perf_counter()
        pkg = import_package()
        if tr is not None and rep == SETUP_REPS - 1:
            tr.instance = "setup"
            tr.install(pkg)  # build_game runs at set-up, in gen-reduction
        instances = workloads.setup(args.workload, args.seed, workdir / "instances", pkg)
        raw = time.perf_counter() - t0
        setup_scale = 2 * CAL_REF_S / (before + calibration_loop())
        setup_s.append(raw * setup_scale)
    setup_spans = []
    if tr is not None:
        tr.uninstall()
        setup_spans, tr.spans = tr.spans, []

    # whole rounds, at least two, and pairs of rounds when tracing
    rounds = max(2, round(args.seconds / workloads.WORKLOADS[args.workload].round_s))
    if tr is not None:
        rounds += rounds % 2
    start = time.perf_counter()
    run = measure(pkg, instances, rounds, workdir, tr)
    wall = time.perf_counter() - start
    shutil.rmtree(workdir / "instances", ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {len(instances)} instances, "
          f"{run.completed} completed in {wall:.1f} s")
    if tr is not None:
        metrics, notes = per_layer(run, tr.spans, setup_spans, setup_scale, len(instances))
        tr.spans = setup_spans + tr.spans
        tr.write(workdir / "spans.json")
        notes.append(f"spans written to {(workdir / 'spans.json').relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(run, setup_s)
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

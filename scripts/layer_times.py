#!/usr/bin/env python3
"""Time the solver's graph passes on one benchmark workload and seed:

    python3 scripts/layer_times.py --workload fig1-sweep --seed 1 --repeat 5

Each instance of `bench/workloads.setup` (read only) is solved `--repeat`
times in this process. One line per instance, then their mean, gives in
milliseconds the fastest untimed `solve`, and, from the timed runs, the
fastest time of each call to `unfold`, `witness_product`,
`tracker_product`, `solve_parity` and `find_witness_lasso`, summed over
the calls of one solve (the calls come in the same order every run). The
benchmark's tracer does not wrap `witness_product` or `tracker_product`;
this script shows their share.
"""

import argparse
import importlib
import pathlib
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # bench/workloads.py, read only

from carefulsynth import synthesis, zerosum
from carefulsynth.arena import parse_arena
from carefulsynth.zerosum import parse_dpa

# (module, the name its caller looks up)
LAYERS = [(synthesis, "unfold"), (synthesis, "witness_product"), (zerosum, "tracker_product"),
          (zerosum, "solve_parity"), (synthesis, "find_witness_lasso")]


def timed_solve(a, bounds, dpas) -> list[tuple[str, float]]:
    """One solve with every layer wrapped: each call's name and seconds."""
    calls = []

    def wrap(name, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((name, time.perf_counter() - start))
        return call

    saved = [(module, name, getattr(module, name)) for module, name in LAYERS]
    for module, name, fn in saved:
        setattr(module, name, wrap(name, fn))
    try:
        synthesis.solve(a, bounds, dpas)
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
    return calls


def instance_times(inst, repeat: int) -> dict[str, float]:
    """Milliseconds per layer and for the whole solve, each the fastest of
    `repeat` runs."""
    a = parse_arena(pathlib.Path(inst.arena).read_text(encoding="utf-8"))
    dpas = {i: parse_dpa(pathlib.Path(p).read_text(encoding="utf-8")) for i, p in inst.dpas}
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        synthesis.solve(a, inst.bounds, dpas)
        best = min(best, time.perf_counter() - start)
    runs = [timed_solve(a, inst.bounds, dpas) for _ in range(repeat)]
    out = {"solve": best * 1000} | {name: 0.0 for _, name in LAYERS}
    for column in zip(*runs):
        out[column[0][0]] += min(dt for _, dt in column) * 1000
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="fig1-sweep", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    pkg = {name: importlib.import_module(f"carefulsynth.{name}") for name in ("cli", "reduction")}
    columns = ["solve"] + [name for _, name in LAYERS]
    print(" ".join(["instance", *columns, "(ms)"]))
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for inst in workloads.setup(args.workload, args.seed, pathlib.Path(tmp), pkg):
            rows.append(instance_times(inst, args.repeat))
            print(" ".join([inst.id, *(f"{rows[-1][c]:.2f}" for c in columns)]), flush=True)
    print(" ".join(["mean", *(f"{sum(r[c] for r in rows) / len(rows):.2f}" for c in columns)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time the solver's graph passes on one benchmark workload and seed:

    python3 scripts/layer_times.py --workload fig1-sweep --seed 1 --repeat 5

Each instance of `bench/workloads.setup` (read only) is solved `--repeat`
times in this process. One line per instance, then their mean, gives in
milliseconds the fastest untimed `solve`, and, from the timed runs, the
fastest time of each call to `unfold`, `witness_product`,
`punish_region`, `tracker_product`, `solve_parity` and
`find_witness_lasso`, summed over the calls of one solve (the calls come
in the same order every run). `punish_region` is inclusive: it holds its
`tracker_product` and `solve_parity` calls, and the attractor that solves
a reachability game without `solve_parity`. The benchmark's tracer does
not wrap `witness_product` or `tracker_product`; this script shows their
share. The line ends with the path each of those builds took in one more
solve: `product=closed` when every tracker is closed on the arena's edges
and the product is the sink-free unfolding, `regionI=closed` when player
I's punishment game is the unfolding itself, and `=general` where the
build searched the product node by node, each region followed by the
solver of its game, `/attractor` or `/zielonka`; then `attractors=N`, the
number of attractors computed in that solve, a size that does not depend
on the machine.
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
LAYERS = [(synthesis, "unfold"), (synthesis, "witness_product"), (synthesis, "punish_region"),
          (zerosum, "tracker_product"), (zerosum, "solve_parity"),
          (synthesis, "find_witness_lasso")]


def patched_solve(a, bounds, dpas, wrappers) -> None:
    """One solve with each (module, name) in `wrappers` replaced by its
    wrapper of the original function."""
    saved = [(module, name, getattr(module, name)) for module, name in wrappers]
    for module, name, fn in saved:
        setattr(module, name, wrappers[module, name](name, fn))
    try:
        synthesis.solve(a, bounds, dpas)
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


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

    patched_solve(a, bounds, dpas, {layer: wrap for layer in LAYERS})
    return calls


def build_paths(a, bounds, dpas) -> list[str]:
    """Which path the witness product and each region game took in one
    solve, closed when every closure test its build ran passed, the solver
    of each region game, and the number of attractors computed in it."""
    verdicts, paths, calls = [], [], []

    def test(name, fn):
        def call(*args):
            verdicts.append(fn(*args))
            return verdicts[-1]
        return call

    def build(name, fn):
        def call(*args, **kwargs):
            mark = len(verdicts)
            result = fn(*args, **kwargs)
            took = len(verdicts) > mark and all(verdicts[mark:])
            label = "product" if name == "witness_product" else f"region{args[1]}"
            paths.append(f"{label}={'closed' if took else 'general'}")
            return result
        return call

    def solver(name, fn):
        def call(*args, **kwargs):
            mark = calls.count("solve_parity")
            result = fn(*args, **kwargs)
            zielonka = calls.count("solve_parity") > mark
            paths[-1] += "/zielonka" if zielonka else "/attractor"
            return result
        return call

    def count(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    patched_solve(a, bounds, dpas, {(synthesis, "closed"): test, (zerosum, "closed"): test,
                                    (synthesis, "witness_product"): build,
                                    (zerosum, "tracker_product"): build,
                                    (synthesis, "punish_region"): solver,
                                    (zerosum, "attractor"): count,
                                    (zerosum, "solve_parity"): count})
    return paths + [f"attractors={calls.count('attractor')}"]


def instance_times(inst, repeat: int) -> tuple[dict[str, float], list[str]]:
    """Milliseconds per layer and for the whole solve, each the fastest of
    `repeat` runs, and the builds' paths."""
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
    return out, build_paths(a, inst.bounds, dpas)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="fig1-sweep", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    pkg = {name: importlib.import_module(f"carefulsynth.{name}") for name in ("cli", "reduction")}
    columns = ["solve"] + [name for _, name in LAYERS]
    print(" ".join(["instance", *columns, "(ms)", "paths"]))
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for inst in workloads.setup(args.workload, args.seed, pathlib.Path(tmp), pkg):
            times, paths = instance_times(inst, args.repeat)
            rows.append(times)
            print(" ".join([inst.id, *(f"{times[c]:.2f}" for c in columns), *paths]), flush=True)
    print(" ".join(["mean", *(f"{sum(r[c] for r in rows) / len(rows):.2f}" for c in columns)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

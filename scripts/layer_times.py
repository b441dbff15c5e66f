#!/usr/bin/env python3
"""Time the solver's graph passes on one benchmark workload and seed:

    python3 scripts/layer_times.py --workload fig1-sweep --seed 1 --repeat 5

Each instance of `bench/workloads.setup` (read only) is solved `--repeat`
times in this process. One line per instance, then their mean, gives in
milliseconds the fastest untimed `solve`, and, from the timed runs, the
fastest time of each call to `product`, `unfold`, `witness_product`,
`punish_region`, `solve_parity` and `find_witness_lasso`, summed over the
calls of one solve (the calls come in the same order every run).
`punish_region` is inclusive: it holds its `solve_parity` calls, and the
attractor that solves a reachability game without `solve_parity`. The
benchmark's tracer does not wrap `product` or `witness_product`; this
script shows their share. The line ends with sizes from one more solve,
which do not depend on the machine: `product=N`, the witness product's
nodes; `regionI=N`, the nodes of player I's punishment game, followed by
its solver, `/attractor` or `/zielonka`; `unfolds=N`, the number of
`unfold` calls; and `attractors=N`, the number of attractors computed.
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
LAYERS = [(synthesis, "product"), (synthesis, "unfold"), (synthesis, "witness_product"),
          (synthesis, "punish_region"), (zerosum, "solve_parity"),
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


def solve_sizes(a, bounds, dpas) -> list[str]:
    """The sizes of one solve: the witness product's nodes, each region
    game's nodes and its solver, and the numbers of `unfold` calls and of
    attractors computed."""
    sizes, calls = [], []

    def witness(name, fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            sizes.append(f"product={len(result.priority)}")
            return result
        return call

    def solver(name, fn):
        def call(g, player, *args, **kwargs):
            mark = calls.count("solve_parity")
            result = fn(g, player, *args, **kwargs)
            zielonka = calls.count("solve_parity") > mark
            sizes.append(f"region{player}={len(g.succ)}/{'zielonka' if zielonka else 'attractor'}")
            return result
        return call

    def count(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    patched_solve(a, bounds, dpas, {(synthesis, "witness_product"): witness,
                                    (synthesis, "punish_region"): solver,
                                    (synthesis, "unfold"): count,
                                    (zerosum, "attractor"): count,
                                    (zerosum, "solve_parity"): count})
    return sizes + [f"unfolds={calls.count('unfold')}", f"attractors={calls.count('attractor')}"]


def instance_times(inst, repeat: int) -> tuple[dict[str, float], list[str]]:
    """Milliseconds per layer and for the whole solve, each the fastest of
    `repeat` runs, and the solve's sizes."""
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
    return out, solve_sizes(a, inst.bounds, dpas)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="fig1-sweep", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    pkg = {name: importlib.import_module(f"carefulsynth.{name}") for name in ("cli", "reduction")}
    columns = ["solve"] + [name for _, name in LAYERS]
    print(" ".join(["instance", *columns, "(ms)", "sizes"]))
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for inst in workloads.setup(args.workload, args.seed, pathlib.Path(tmp), pkg):
            times, sizes = instance_times(inst, args.repeat)
            rows.append(times)
            print(" ".join([inst.id, *(f"{times[c]:.2f}" for c in columns), *sizes]), flush=True)
    print(" ".join(["mean", *(f"{sum(r[c] for r in rows) / len(rows):.2f}" for c in columns)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time the solver's graph passes, or the certificate check's parts, on one
workload and seed:

    python3 scripts/layer_times.py --workload fig1-sweep --seed 1 --repeat 5
    python3 scripts/layer_times.py --workload reduction --seed 1 --check
    python3 scripts/layer_times.py --workload many-resources --seed 2

A workload is one of the benchmark's (`bench/workloads.setup`, read only)
or a seeded scaling family of 40-state candidates of its random-fgf
generator (`bench/generators._fgf_candidate`, read only), with objectives
drawn again from `F a`, `G F a`, `G !a` and `F G !a` and the system
objective `G !a`, so that some players lose: `many-players` has 8, 10 and
16 players at (3,3), as in `many-players/16/1` (players, seed);
`many-resources` has 4 players and costs extended by draws in [-1, 2] to
2, 3, 4 and 5 resources ([0, 2] on an edge whose first two components are
nonnegative, so the planted lasso never underflows), at capacity 4 in
each, as in `many-resources/5/2` (resources, seed); `many-capacities` has
the `many-resources` arenas of the same seed with only the capacities
raised: 3 resources at 6, 8 and 12, 4 at 6 and 8, and 5 at 6, as in
`many-capacities/3/12/1` (resources, capacity, seed).

Each instance is solved `--repeat` times in this process. One line per
instance, then their mean, gives in milliseconds the fastest untimed
`solve`, and, from the timed runs, the fastest time of each call to
`product`, `unfold`, `witness_product`, `punish_region`, `solve_parity`
and `find_witness_lasso`, summed over the calls of one solve (the calls
come in the same order every run). `punish_region` holds its
`solve_parity` calls and the fixpoint on credit sets that solves a
reachability game without it. The benchmark's tracer does not wrap
`product` or `witness_product`. `rest` is the fastest solve minus those
layers summed (`solve_parity` counted once): the work of `solve` outside
them, such as forbidding each loser's won nodes and cutting the tables to
the certificate; it can read slightly below zero, as the layers' times and
the solve's come from different runs. The solves run with Python's cyclic
collector on, as a library caller of `synthesis.solve` has it, so these
times include collector pauses that a CLI command, and so the benchmark,
does not pay: `cli.run` pauses the collector while a command runs.

The line ends with sizes from one more solve, which do not depend on the
machine: the verdict; `unfold=C/N/R` for the solve's one `unfold` call,
the arena's distinct costs, the nodes of the witness product it unfolds
and the credits its unfolding reaches (`unfold` keeps one pair of column
sums per credit);
`ids=N` and `edges=N`, the unfolding's ids, the sink's included, and edges
(the `unfold` column divided by `edges` is the time per unfolded edge);
`scc=N`, the ids the witness product's Tarjan passes on the unfolding
cover: those whose product node lies in a product SCC where the system can
accept, and, when no SCC is found there and no id is its own successor,
every id, in the pass that sets `cyclic` (the pass over the product's own
nodes that finds those SCCs is not counted); `regionI=N`, one per
region solved, the nodes of player I's punishment game and its solver,
`/credits` (`zerosum.credit_region`) or `/zielonka`; `pre_images=N`, the credit-set
pre-images computed (`unfolding.pre_image`); and `searched=N` and
`pruned=N`, the winner sets searched by `find_witness_lasso` and those
enumerated but not searched.

With `--check`, each instance that has a solution is solved once through
the in-process CLI, and its certificate is then checked `--repeat` times
the same way, with the collector paused. The line gives the fastest untimed `check` command, and from
the timed runs the fastest time of each of its parts, summed over one
check as above: `arena`, reading the arena (`parse_arena`); `certificate`,
reading the certificate (`parse_profile`); `dpas`, `cli._load_dpas`;
`replay`, `certificate._replay`; `winners`, the winner clauses (the calls of
`eval_on_lasso` and `tracker_accepts`, the system objective's included);
and `deviations`, `certificate._deviation_faults`. The benchmark's tracer
counts the first three in `cli.self_s`. File reads and the verdict's output
are only in `check`.
"""

import argparse
import collections
import math
import pathlib
import random
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import generators  # bench/generators.py, read only
import workloads  # bench/workloads.py, read only

from carefulsynth import certificate, cli, ltl, reduction, synthesis, zerosum
from carefulsynth.arena import parse_arena
from carefulsynth.certificate import parse_dpa

# (module, the name its caller looks up)
LAYERS = [(synthesis, "product"), (synthesis, "unfold"), (synthesis, "witness_product"),
          (synthesis, "punish_region"), (zerosum, "solve_parity"),
          (synthesis, "find_witness_lasso")]

# the same for the parts of `check`, each with the column it is summed in
CHECK_LAYERS = {(cli, "parse_arena"): "arena", (cli, "parse_profile"): "certificate",
                (cli, "_load_dpas"): "dpas", (certificate, "_replay"): "replay",
                (ltl, "eval_on_lasso"): "winners", (certificate, "tracker_accepts"): "winners",
                (certificate, "_deviation_faults"): "deviations"}


def with_objectives(rng: random.Random, doc: dict) -> dict:
    """`doc` with its objectives drawn again, as the module docstring says."""
    shapes = ("F {}", "G F {}", "G !{}", "F G !{}")
    doc["objectives"] = {
        "system": f"G !{rng.choice(generators.ATOMS)}",
        "players": {str(i): rng.choice(shapes).format(rng.choice(generators.ATOMS))
                    for i in range(1, doc["players"] + 1)},
    }
    return doc


def many_players(players: int, seed: int) -> tuple[dict, tuple[int, ...]]:
    rng = random.Random(f"many-players/{players}/{seed}")
    return with_objectives(rng, generators._fgf_candidate(rng, players=players)), (3, 3)


def many_resources(dims: int, seed: int) -> tuple[dict, tuple[int, ...]]:
    rng = random.Random(f"many-resources/{dims}/{seed}")
    doc = generators._fgf_candidate(rng)
    for edge in doc["edges"]:
        low = 0 if min(edge["cost"]) >= 0 else -1
        edge["cost"] += [rng.randint(low, 2) for _ in range(dims - 2)]
    doc["dimensions"] = dims
    return with_objectives(rng, doc), (4,) * dims


def many_capacities(dims: int, capacity: int, seed: int) -> tuple[dict, tuple[int, ...]]:
    return many_resources(dims, seed)[0], (capacity,) * dims


# each family's arena generator and the sizes it is drawn at
FAMILIES = {"many-players": (many_players, [(8,), (10,), (16,)]),
            "many-resources": (many_resources, [(2,), (3,), (4,), (5,)]),
            "many-capacities": (many_capacities, [(3, 6), (3, 8), (3, 12), (4, 6), (4, 8), (5, 6)])}


def instances(name: str, seed: int, tmp: pathlib.Path) -> list[workloads.Instance]:
    """The instances of workload or family `name` at `seed`, their files
    written under `tmp`."""
    if name not in FAMILIES:
        return workloads.setup(name, seed, tmp, {"cli": cli, "reduction": reduction})
    generate, sizes = FAMILIES[name]
    out = []
    for size in sizes:
        doc, bounds = generate(*size, seed)
        label = "/".join(map(str, size))
        arena = workloads._write(tmp / f"{name}-{label.replace('/', '-')}.json", doc)
        out.append(workloads.Instance(f"{name}/{label}/{seed}", arena, bounds))
    return out


def patched(run, wrappers) -> None:
    """One `run()` with each (module, name) in `wrappers` replaced by its
    wrapper of the original function."""
    saved = [(module, name, getattr(module, name)) for module, name in wrappers]
    for module, name, fn in saved:
        setattr(module, name, wrappers[module, name](name, fn))
    try:
        run()
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def timed(run, layers) -> list[tuple[str, float]]:
    """One `run()` with each (module, name) in `layers` wrapped: the column
    `layers` gives each call, and its seconds."""
    calls, column = [], {name: col for (_, name), col in layers.items()}

    def wrap(name, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((column[name], time.perf_counter() - start))
        return call

    patched(run, {layer: wrap for layer in layers})
    return calls


def solve_sizes(a, bounds, dpas) -> list[str]:
    """The verdict and the sizes of one solve, as the module docstring
    lists them."""
    sizes, covered, results = [], [], []  # covered: the ids of each Tarjan pass on `u`
    unfolded = []  # the solve's one unfolding, `u`
    calls = collections.Counter()

    def witness(name, fn):
        def call(*args, **kwargs):
            mark = len(covered)
            result = fn(*args, **kwargs)
            sizes.append(f"scc={sum(covered[mark:])}")
            return result
        return call

    def tarjan(name, fn):
        def call(nodes, succ, *args, **kwargs):
            if succ is unfolded[0].succ:  # not the pass on the product's own nodes
                covered.append(len(nodes))
            return fn(nodes, succ, *args, **kwargs)
        return call

    def solver(name, fn):
        def call(g, player, *args, **kwargs):
            mark = calls["solve_parity"]
            result = fn(g, player, *args, **kwargs)
            zielonka = calls["solve_parity"] > mark
            sizes.append(f"region{player}={len(g.succ)}/{'zielonka' if zielonka else 'credits'}")
            return result
        return call

    def count(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    def count_each(name, fn):
        def call(*args):
            for item in fn(*args):
                calls[name] += 1
                yield item
        return call

    def unfold(name, fn):
        def call(g, *args, **kwargs):
            u = fn(g, *args, **kwargs)
            unfolded.append(u)
            width = math.prod(v + 1 for v in u.bounds)
            credits = len({k % width for k in u.keys})
            sizes.extend([f"unfold={len(set(a.edges.values()))}/{len(u.graph.state)}/{credits}",
                          f"ids={len(u.states)}", f"edges={sum(map(len, u.succ))}"])
            return u
        return call

    patched(lambda: results.append(synthesis.solve(a, bounds, dpas)),
            {(synthesis, "witness_product"): witness, (synthesis, "punish_region"): solver,
             (synthesis, "unfold"): unfold, (zerosum, "pre_image"): count,
             (zerosum, "solve_parity"): count, (synthesis, "find_witness_lasso"): count,
             (synthesis, "_winner_sets"): count_each,
             (synthesis, "strongly_connected_components"): tarjan})
    searched = calls["find_witness_lasso"]
    return [results[0].status, *sizes, f"pre_images={calls['pre_image']}",
            f"searched={searched}", f"pruned={calls['_winner_sets'] - searched}"]


def fastest(run, repeat: int) -> float:
    """Milliseconds of the fastest of `repeat` calls of `run()`."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best * 1000


def column_times(first: str, best: float, columns, runs) -> dict[str, float]:
    """`first` at `best`, and each of `columns` at the sum over one run's
    calls of each call's fastest time, in milliseconds."""
    out = {first: best} | {name: 0.0 for name in columns}
    for calls in zip(*runs):
        out[calls[0][0]] += min(dt for _, dt in calls) * 1000
    return out


def solve_times(a, bounds, dpas, repeat: int) -> dict[str, float]:
    """Milliseconds per layer and for the whole solve, each the fastest of
    `repeat` runs, and the rest."""

    def solve():
        synthesis.solve(a, bounds, dpas)

    runs = [timed(solve, {layer: layer[1] for layer in LAYERS}) for _ in range(repeat)]
    out = column_times("solve", fastest(solve, repeat), [name for _, name in LAYERS], runs)
    out["rest"] = out["solve"] - sum(out[name] for _, name in LAYERS if name != "solve_parity")
    return out


def instance_times(inst, repeat: int) -> tuple[dict[str, float], list[str]]:
    """The times of `solve_times` for one instance, and the solve's sizes."""
    a = parse_arena(pathlib.Path(inst.arena).read_text(encoding="utf-8"))
    dpas = {i: parse_dpa(pathlib.Path(p).read_text(encoding="utf-8")) for i, p in inst.dpas}
    return solve_times(a, inst.bounds, dpas, repeat), solve_sizes(a, inst.bounds, dpas)


def check_times(inst, repeat: int, tmp: pathlib.Path) -> dict[str, float] | None:
    """Milliseconds per part of `check` and for the whole command, each the
    fastest of `repeat` runs; None when the instance has no solution."""
    code, certificate = workloads.call_cli(cli, inst.solve_argv())
    if code != 0:
        return None
    path = tmp / f"{inst.id.replace('/', '-')}.certificate.json"
    path.write_text(certificate, encoding="utf-8")

    def check():
        if workloads.call_cli(cli, inst.check_argv(str(path)))[0] != 0:
            raise RuntimeError(f"{inst.id}: check refuses the certificate")

    runs = [timed(check, CHECK_LAYERS) for _ in range(repeat)]
    return column_times("check", fastest(check, repeat), CHECK_LAYERS.values(), runs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="fig1-sweep",
                        choices=[*workloads.WORKLOADS, *FAMILIES])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--check", action="store_true",
                        help="time the parts of the certificate check instead of the solve")
    args = parser.parse_args()
    if args.check:
        columns = ["check", *dict.fromkeys(CHECK_LAYERS.values())]
    else:
        columns = ["solve"] + [name for _, name in LAYERS] + ["rest"]
    print(" ".join(["instance", *columns, "(ms)", *([] if args.check else ["sizes"])]))
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for inst in instances(args.workload, args.seed, pathlib.Path(tmp)):
            if args.check:
                times, sizes = check_times(inst, args.repeat, pathlib.Path(tmp)), []
                if times is None:
                    continue
            else:
                times, sizes = instance_times(inst, args.repeat)
            rows.append(times)
            print(" ".join([inst.id, *(f"{times[c]:.2f}" for c in columns), *sizes]), flush=True)
    if rows:
        print(" ".join(["mean", *(f"{sum(r[c] for r in rows) / len(rows):.2f}" for c in columns)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Print one digest line per benchmark workload and seed, to compare the
outputs of two commits:

    python3 scripts/output_digest.py --workloads fig1-sweep reduction --seeds 1 2 3

Each line gives the instance count and two sha256 digests over every
instance in order. `certificates` covers the `solve` stdout and the `check`
stdout of its certificate (when it has one). `regions` covers every
player's punishment region, with its won nodes and its table each sorted.
The instances come from `bench/workloads.setup`, written to a temporary
directory; the CLI runs in this process. Equal `certificates` on two
commits mean equal certificates and verdicts. A region's table breaks ties
by node id where a player has several winning moves, so a change of
numbering can move `regions` alone.
"""

import argparse
import hashlib
import importlib
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # bench/workloads.py, read only

from carefulsynth.arena import RESERVED_ATOM, parse_arena
from carefulsynth.unfolding import product, render_ustate, unfold
from carefulsynth.zerosum import objective_tracker, parse_dpa, punish_region


def region_lines(inst: workloads.Instance) -> list[str]:
    """Every player's region at the instance's bounds: its won nodes, then
    its table's move at every coalition node outside them, read through
    the table (a reachability region's finds a move at its first lookup),
    each from the region's game ids, rendered as in certificates and
    sorted. The sink, which has no tracker state, is rendered with the
    tracker's state after the sink's letter alone."""
    a = parse_arena(pathlib.Path(inst.arena).read_text(encoding="utf-8"))
    dpas = {i: parse_dpa(pathlib.Path(p).read_text(encoding="utf-8")) for i, p in inst.dpas}
    out = []
    for i in range(1, a.players + 1):
        tracker = objective_tracker(a.objective_of(i), dpas.get(i))
        g = unfold(product(a, [tracker]), inst.bounds)
        r = punish_region(g, i, 0)
        at_sink = tracker.step(tracker.initial, frozenset({RESERVED_ATOM}))

        def node(j):  # a game id -> its node (unfolded state, tracker state), rendered
            q = g.graph.qs[g.at[j]][0] if j < len(g.at) else at_sink
            return f"{render_ustate(g.states[j])}|{q}"

        win = sorted(map(node, r.win))
        table = sorted(f"{node(j)} -> {render_ustate(g.states[r.punishment[j]])}"
                       for j, o in enumerate(g.owner) if o != i and j not in r.win)
        out.append(f"player {i} win {win} table {table}")
    return out


def digest(name: str, seed: int, pkg: dict) -> str:
    certificates, regions = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        instances = workloads.setup(name, seed, workdir / "instances", pkg)
        for inst in instances:
            code, out = workloads.call_cli(pkg["cli"], inst.solve_argv())
            certificates.update(f"{inst.id} solve {code}\n{out}".encode())
            if code == 0:
                certificate = workdir / "certificate.json"
                certificate.write_text(out, encoding="utf-8")
                code, out = workloads.call_cli(pkg["cli"], inst.check_argv(str(certificate)))
                certificates.update(f"{inst.id} check {code}\n{out}".encode())
            regions.update("\n".join([inst.id, *region_lines(inst)]).encode())
    return (f"{name} seed {seed}: {len(instances)} instances, "
            f"certificates {certificates.hexdigest()}, regions {regions.hexdigest()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    args = parser.parse_args()
    pkg = {name: importlib.import_module(f"carefulsynth.{name}") for name in ("cli", "reduction")}
    for name in args.workloads:
        for seed in args.seeds:
            print(digest(name, seed, pkg), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

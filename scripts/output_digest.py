#!/usr/bin/env python3
"""Print one digest line per benchmark workload and seed, to compare the
outputs of two commits:

    python3 scripts/output_digest.py --workloads fig1-sweep reduction --seeds 1 2 3

Each line gives the instance count and three sha256 digests over every
instance in order. `certificates` covers the `solve` stdout and the `check`
stdout of its certificate (when it has one). `regions` covers every
player's punishment region on the unfolding of the arena's product with
that player's tracker alone, with its won nodes and its table each sorted.
`witness regions` covers the same for the regions `solve` plays: every
player's region on the unfolding of the witness product, the arena's
product with the system's component and every player's tracker, the
player's tracker its component. The instances come from
`bench/workloads.setup`, written to a temporary directory; the CLI runs in
this process. Equal `certificates` on two commits mean equal certificates
and verdicts. A region's table breaks ties by node id where a player has
several winning moves, so a change of numbering can move the region
digests alone.
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
from carefulsynth.synthesis import system_component
from carefulsynth.unfolding import product, render_ustate, unfold
from carefulsynth.zerosum import objective_tracker, parse_dpa, punish_region


def region_line(g, player: int, component: int) -> str:
    """The region of `player` on `g`, its tracker component `component`:
    its won nodes, then its table's move at every coalition node outside
    them, read through the table (a reachability region's finds a move at
    its first lookup), each from the region's game ids, rendered as in
    certificates and sorted. The sink, which has no tracker state, is
    rendered with the tracker's state after the sink's letter alone."""
    tracker = g.graph.components[component]
    r = punish_region(g, player, component)
    at_sink = tracker.step(tracker.initial, frozenset({RESERVED_ATOM}))

    def node(j):  # a game id -> its node (unfolded state, tracker state), rendered
        q = g.graph.qs[g.at[j]][component] if j < len(g.at) else at_sink
        return f"{render_ustate(g.states[j])}|{q}"

    win = sorted(map(node, r.win))
    table = sorted(f"{node(j)} -> {render_ustate(g.states[r.punishment[j]])}"
                   for j, o in enumerate(g.owner) if o != player and j not in r.win)
    return f"player {player} win {win} table {table}"


def region_lines(inst: workloads.Instance) -> tuple[list[str], list[str]]:
    """Every player's region at the instance's bounds, on its one-tracker
    game and on the witness product's unfolding."""
    a = parse_arena(pathlib.Path(inst.arena).read_text(encoding="utf-8"))
    dpas = {i: parse_dpa(pathlib.Path(p).read_text(encoding="utf-8")) for i, p in inst.dpas}
    players = range(1, a.players + 1)
    trackers = [objective_tracker(a.objective_of(i), dpas.get(i)) for i in players]
    alone = [region_line(unfold(product(a, [t]), inst.bounds), i, 0)
             for i, t in zip(players, trackers)]
    u = unfold(product(a, trackers, system_component(a.system_objective)), inst.bounds)
    return alone, [region_line(u, i, i) for i in players]


def digest(name: str, seed: int, pkg: dict) -> str:
    certificates, regions, witness = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
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
            alone, played = region_lines(inst)
            regions.update("\n".join([inst.id, *alone]).encode())
            witness.update("\n".join([inst.id, *played]).encode())
    return (f"{name} seed {seed}: {len(instances)} instances, "
            f"certificates {certificates.hexdigest()}, regions {regions.hexdigest()}, "
            f"witness regions {witness.hexdigest()}")


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

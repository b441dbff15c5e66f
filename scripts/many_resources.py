#!/usr/bin/env python3
"""Solve seeded arenas with more resources and show where the time goes:

    python3 scripts/many_resources.py --dims 2 3 4 5 --seeds 1 2 3

Each arena is a 40-state, 4-player candidate of the benchmark's random-fgf
generator (`bench/generators._fgf_candidate`, read only), whose two cost
components are extended by seeded draws in [-1, 2] to the given number of
resources; an edge whose first two components are nonnegative, the planted
lasso's among them, draws in [0, 2], so the planted lasso never underflows.
Its objectives are then drawn again from the seeded mix of
`scripts/many_players.py` (`F a`, `G F a`, `G !a`, `F G !a`, with the
system objective `G !a`), so that some players lose, and it is solved at
capacity 4 in each resource. One line per instance gives the verdict; the
states and edges of the solve's one unfolding, the witness product's; the
milliseconds of the solve and of the layers that
`scripts/layer_times.py` times, each the fastest of `--repeat` runs and
summed over one solve's calls, and the rest of the solve; and `unfold`'s
nanoseconds per unfolded edge. All are measured in this process.
"""

import argparse
import json
import random
import sys

import layer_times  # scripts/layer_times.py: it puts src/ and bench/ on the path
import many_players

import generators  # bench/generators.py, read only

from carefulsynth import synthesis
from carefulsynth.arena import parse_arena

CAPACITY = 4


def arena_document(dims: int, seed: int) -> dict:
    rng = random.Random(f"many-resources/{dims}/{seed}")
    doc = generators._fgf_candidate(rng)
    for edge in doc["edges"]:
        low = 0 if min(edge["cost"]) >= 0 else -1
        edge["cost"] += [rng.randint(low, 2) for _ in range(dims - 2)]
    doc["dimensions"] = dims
    doc["objectives"] = {
        "system": f"G !{rng.choice(generators.ATOMS)}",
        "players": {str(i): rng.choice(many_players.SHAPES).format(rng.choice(generators.ATOMS))
                    for i in range(1, doc["players"] + 1)},
    }
    return doc


def solve_line(a, repeat: int) -> str:
    """Solve `a` at CAPACITY and describe the run in one line."""
    bounds = (CAPACITY,) * a.dimensions
    results, unfolded = [], []

    def kept(name, fn):
        def call(*args, **kwargs):
            unfolded.append(fn(*args, **kwargs))
            return unfolded[-1]
        return call

    layer_times.patched(lambda: results.append(synthesis.solve(a, bounds)),
                        {(synthesis, "unfold"): kept})
    [u] = unfolded
    edges = sum(map(len, u.succ))
    ms = layer_times.solve_times(a, bounds, None, repeat)
    return (f"{results[0].status}, {len(u.states)} states, {edges} edges, "
            f"{' '.join(f'{k} {v:.1f}' for k, v in ms.items())} ms, "
            f"unfold {ms['unfold'] * 1e6 / edges:.0f} ns/edge")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--dims", nargs="+", type=int, default=[2, 3, 4, 5])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if min(args.dims) < 2:
        parser.error("--dims takes numbers of resources from 2 on")
    for dims in args.dims:
        for seed in args.seeds:
            a = parse_arena(json.dumps(arena_document(dims, seed)))
            print(f"d={dims} seed {seed}: {solve_line(a, args.repeat)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

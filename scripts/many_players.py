#!/usr/bin/env python3
"""Solve seeded many-player arenas and show how many winner sets `solve`
searches:

    python3 scripts/many_players.py --players 8 10 --seeds 1 2 3

Each arena is a 40-state, 2-resource candidate of the benchmark's random-fgf
generator (`bench/generators._fgf_candidate`, read only) with the given
number of players, solved at (3,3). Its objectives are then drawn again from
a seeded mix of `F a`, `G F a`, `G !a` and `F G !a`, with the system
objective `G !a`, so that most winner sets fail. One line per instance gives
the verdict, the winner sets searched by `find_witness_lasso`, the sets
enumerated but not searched, the punishment regions solved and the solve
time in milliseconds, all measured in this process.
"""

import argparse
import collections
import json
import random
import sys

import layer_times  # scripts/layer_times.py: it puts src/ and bench/ on the path

import generators  # bench/generators.py, read only

from carefulsynth import synthesis
from carefulsynth.arena import parse_arena

BOUNDS = (3, 3)
SHAPES = ("F {}", "G F {}", "G !{}", "F G !{}")


def arena_document(players: int, seed: int) -> dict:
    rng = random.Random(f"many-players/{players}/{seed}")
    doc = generators._fgf_candidate(rng, players=players)
    doc["objectives"] = {
        "system": f"G !{rng.choice(generators.ATOMS)}",
        "players": {str(i): rng.choice(SHAPES).format(rng.choice(generators.ATOMS))
                    for i in range(1, players + 1)},
    }
    return doc


def solve_counted(a) -> str:
    """Solve `a` at BOUNDS and describe the run in one line."""
    counts, results = collections.Counter(), []

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    def each_counted(name, fn):
        def call(*args):
            for item in fn(*args):
                counts[name] += 1
                yield item
        return call

    def run():
        results.append(synthesis.solve(a, BOUNDS))

    wrappers = {(synthesis, "_winner_sets"): each_counted,
                (synthesis, "find_witness_lasso"): counted, (synthesis, "punish_region"): counted}
    ms = layer_times.fastest(lambda: layer_times.patched(run, wrappers), 1)
    searched = counts["find_witness_lasso"]
    return (f"{results[0].status}, {searched} searched, "
            f"{counts['_winner_sets'] - searched} pruned, "
            f"{counts['punish_region']} regions, {ms:.0f} ms")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--players", nargs="+", type=int, default=[8, 10])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = parser.parse_args()
    for players in args.players:
        for seed in args.seeds:
            a = parse_arena(json.dumps(arena_document(players, seed)))
            print(f"{players} players seed {seed}: {solve_counted(a)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

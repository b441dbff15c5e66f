#!/usr/bin/env python3
"""Measure how the reachable bounded unfolding grows with capacity on a
fixed 10-state arena, against the |S| * prod(B_i + 1) + 1 envelope."""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from carefulsynth import ltl
from carefulsynth.arena import build_arena
from carefulsynth.unfolding import unfold


def ring_arena(n: int = 10):
    states = [f"s{i}" for i in range(n)]
    edges = {}
    for i in range(n):
        edges[(f"s{i}", f"s{(i + 1) % n}")] = (1, -1) if i % 2 == 0 else (-1, 1)
        edges[(f"s{i}", f"s{i}")] = (1, 1) if i % 3 == 0 else (0, 0)
    return build_arena(
        players=2,
        dimensions=2,
        states=states,
        owner={s: 1 + (i % 2) for i, s in enumerate(states)},
        initial="s0",
        edges=edges,
        atoms=["goal"],
        labels={s: (["goal"] if s == "s5" else []) for s in states},
        system_objective=ltl.parse_ltl("F goal"),
        player_objectives=(ltl.TRUE, ltl.TRUE),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--capacities", nargs="*", type=int, default=[2, 4, 8],
        help="uniform capacities B to unfold at (one unfolding per value)",
    )
    args = parser.parse_args()
    a = ring_arena()
    n = len(a.states)
    print(f"{'B':>8} {'states':>8} {'edges':>8} {'envelope':>9} {'time':>9}")
    ok = True
    for b in args.capacities:
        t0 = time.perf_counter()
        u = unfold(a, (b, b))
        dt = time.perf_counter() - t0
        envelope = n * (b + 1) ** 2 + 1
        edges = sum(map(len, u.succ))
        ok = ok and len(u.states) <= envelope
        print(
            f"{b:>8} {len(u.states):>8} {edges:>8} {envelope:>9} {dt * 1000:>7.1f}ms"
        )
    print("within envelope:", "yes" if ok else "NO")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Solve the bundled 2-resource 3-player example at several capacity vectors
and print the verdict, outcome, and timing for each."""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from carefulsynth.arena import parse_arena
from carefulsynth.synthesis import SolveResult, check_certificate, solve
from carefulsynth.unfolding import render_ustate

DATA = pathlib.Path(__file__).resolve().parents[1] / "data" / "fig1.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bounds",
        nargs="*",
        default=["3,3", "4,4", "6,6", "10,10"],
        help="capacity vectors to try, e.g. 3,3 10,10",
    )
    args = parser.parse_args()
    arena = parse_arena(DATA.read_text())
    for text in args.bounds:
        bounds = tuple(int(v) for v in text.split(","))
        t0 = time.perf_counter()
        result = solve(arena, bounds)
        dt = time.perf_counter() - t0
        if result.status == SolveResult.SOLUTION:
            p = result.profile
            o = p.outcome
            ustates = [render_ustate(us) for us in zip(o.stem + o.loop, o.trace)]
            stem = " ".join(ustates[: len(o.stem)])
            loop = " ".join(ustates[len(o.stem):])
            issues = check_certificate(arena, bounds, p)
            print(f"B={bounds}: solution in {dt * 1000:.1f} ms")
            print(f"  stem: {stem}")
            print(f"  loop: ({loop})^omega")
            print(f"  winners: {sorted(p.winners)}")
            print(f"  certificate check: {'ok' if not issues else issues}")
        else:
            print(f"B={bounds}: {result.status} in {dt * 1000:.1f} ms")
            for winners, reason in result.diagnostics:
                print(f"  winners {list(winners)}: {reason}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

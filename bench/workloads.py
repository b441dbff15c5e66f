"""The benchmark's workloads: which instances each one solves, why, and the
verdict each instance must get.

`setup` writes a workload's instance files for one seed and returns the
instances with their expected verdicts. Every instance is then solved and
its certificate checked through the in-process CLI entry `cli.run`.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import generators

ROOT = Path(__file__).resolve().parents[1]
FIG1 = ROOT / "data" / "fig1.json"


class Workload(NamedTuple):
    instances: int
    # reference seconds one round over the instances takes at the commit
    # that defined the benchmark; it turns --seconds into a number of rounds
    round_s: float


# Instance counts and round counts are fixed, so the samples of a seed never
# depend on the speed of the machine or of the program: both sides of a
# comparison time the same calls, and a median or tail falls on the same
# instance. Each workload runs at least two rounds (every certificate is
# produced twice and compared).
WORKLOADS = {
    # data/fig1.json at five capacities. The no-solution path: every
    # capacity from (10,10) on tries all 8 winner sets over small products.
    # The only workload with verdicts the README states; the verdicts at
    # (20,20) and above are pinned. (20,20) puts the median of the five
    # groups of samples inside one group. The seed does not change the inputs.
    "fig1-sweep": Workload(5, 2.5),
    # Seeded arenas with 40 states, 4 players, 2 resources and F / G F
    # objectives over 4 atoms, at (3,3). One large product (about 40k
    # nodes), solved at the first winner set: the witness search dominates.
    # (3,3) rather than (4,4) halves the solve time, so a run holds more
    # instances.
    "random-fgf": Workload(8, 10.5),
    # The same arenas with system objective `true`, and every player's
    # objective also given as a 2-state parity automaton. The only path
    # through Zielonka's algorithm, which runs at solve and again at check
    # time; compare with random-fgf, where the fragment solvers run.
    "parity": Workload(16, 10.0),
    # Seeded two-counter automata with a planted zero-ending run, encoded
    # with `gen-reduction` and solved at `recommended_bounds`. The reference
    # verdict comes from the planted run and `simulate_reachability`, not
    # from the solver. Unfold and the CLI take their largest share here.
    "reduction": Workload(24, 10.0),
}


@dataclass(frozen=True)
class Instance:
    id: str
    arena: str
    bounds: tuple[int, ...]
    dpas: tuple[tuple[int, str], ...] = ()
    # expected verdict, and where it comes from: "readme", "planted" (built
    # into the generated instance) or "pinned" (the verdict of this commit)
    status: str = "solution"
    reference: str = "planted"
    winners: Optional[tuple[int, ...]] = None
    stem: Optional[tuple[str, ...]] = None
    loop: Optional[tuple[str, ...]] = None

    def solve_argv(self) -> list[str]:
        return ["solve", self.arena, *self._common()]

    def check_argv(self, certificate: str) -> list[str]:
        return ["check", self.arena, certificate, *self._common()]

    def _common(self) -> list[str]:
        argv = ["--bounds", ",".join(map(str, self.bounds))]
        for player, path in self.dpas:
            argv += ["--dpa", f"{player}={path}"]
        return argv


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run the CLI in this process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def setup(name: str, seed: int, workdir: Path, pkg: dict) -> list[Instance]:
    """Write the instance files of workload `name` for `seed` under
    `workdir` and return the instances. `pkg` maps module names to the
    imported `carefulsynth` modules."""
    workdir.mkdir(parents=True, exist_ok=True)
    count = WORKLOADS[name].instances
    if name == "fig1-sweep":
        arena = str(FIG1)
        return [
            Instance("fig1@3,3", arena, (3, 3), reference="readme", winners=(1, 2),
                     stem=("a", "a", "a", "a", "b", "c"), loop=("circbox",)),
            Instance("fig1@10,10", arena, (10, 10), status="no-solution", reference="readme"),
            Instance("fig1@20,20", arena, (20, 20), status="no-solution", reference="pinned"),
            Instance("fig1@40,40", arena, (40, 40), status="no-solution", reference="pinned"),
            Instance("fig1@80,80", arena, (80, 80), status="no-solution", reference="pinned"),
        ]
    if name in ("random-fgf", "parity"):
        instances = []
        for k in range(count):
            doc = generators.random_fgf_arena(seed, k)
            dpas = ()
            if name == "parity":
                doc, dpa_docs = generators.parity_variant(doc)
                dpas = tuple(
                    (i, _write(workdir / f"{k:02d}-dpa{i}.json", d))
                    for i, d in sorted(dpa_docs.items())
                )
            arena = _write(workdir / f"{k:02d}-arena.json", doc)
            instances.append(
                Instance(f"{name}/{seed}/{k}", arena, generators.FGF_BOUNDS, dpas,
                         winners=tuple(range(1, doc["players"] + 1)))
            )
        return instances
    if name == "reduction":
        return [_reduction_instance(seed, k, workdir, pkg) for k in range(count)]
    raise KeyError(name)


def _reduction_instance(seed: int, k: int, workdir: Path, pkg: dict) -> Instance:
    reduction = pkg["reduction"]
    doc, run = generators.counter_automaton(seed, k)
    if not generators.replay_counter_run(doc, run):
        raise RuntimeError(f"reduction/{seed}/{k}: the planted run does not replay")
    automaton = _write(workdir / f"{k:02d}-automaton.json", doc)
    code, arena_text = call_cli(pkg["cli"], ["gen-reduction", automaton])
    if code != 0:
        raise RuntimeError(f"reduction/{seed}/{k}: gen-reduction exited {code}")
    arena = workdir / f"{k:02d}-arena.json"
    arena.write_text(arena_text, encoding="utf-8")
    ca = reduction.parse_counter_automaton(json.dumps(doc))
    if reduction.simulate_reachability(ca, budget=10**5) is None:
        raise RuntimeError(f"reduction/{seed}/{k}: simulation misses the planted run")
    planted = reduction.CounterRun(
        locations=tuple(loc for loc, _ in run), counters=tuple(c for _, c in run)
    )
    # the target is reachable with zero counters, so player 1 wins by
    # reaching its sink, which the outcome then loops on
    return Instance(f"reduction/{seed}/{k}", str(arena),
                    reduction.recommended_bounds(ca, planted),
                    winners=(1,), loop=("win1",))

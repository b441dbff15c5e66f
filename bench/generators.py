"""Seeded instance generators for the benchmark (standard library only).

Every generator takes the seed and an instance index and returns plain JSON
documents in the formats the `carefulsynth` CLI reads. The same arguments
always give the same documents. Each generator plants a solution, so the
benchmark has a reference verdict that does not come from the solver.

Formulas avoid `->`: the LTL parser does not accept it.
"""

from __future__ import annotations

import random

ATOMS = ("p0", "p1", "p2", "p3")
OMEGA = "omega"
OUT_DEGREE = 3


def _rng(kind: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{kind}/{seed}/{index}")


# ---------------------------------------------------------------------------
# random-fgf and parity: random 4-player, 2-resource arenas


# random-fgf and parity solve at these capacities. Of a fixed number of
# candidate arenas, the generator keeps the one whose bounded unfolding there
# is closest to a target size (the median size of candidates): the witness
# search's product, and so the solve time, grows with it, so the median over
# a few instances stays steady from seed to seed, and a fixed number of
# candidates keeps the set-up time steady too.
FGF_BOUNDS = (3, 3)
FGF_TARGET_SIZE = 417
FGF_CANDIDATES = 5


def random_fgf_arena(seed: int, index: int) -> dict:
    """An arena with 40 states, 4 players, 2 resources and `F p` / `G F p`
    objectives over four atoms, whose unfolding at FGF_BOUNDS has about
    FGF_TARGET_SIZE states.

    A lasso whose edges cost nothing negative and whose loop carries every
    atom is planted from the initial state. It satisfies every objective and
    never underflows, so the winner set of all players succeeds: the
    reference verdict is a solution in which every player wins."""
    rng = _rng("random-fgf", seed, index)
    candidates = [_fgf_candidate(rng) for _ in range(FGF_CANDIDATES)]
    return min(
        candidates, key=lambda doc: abs(unfolded_size(doc, FGF_BOUNDS) - FGF_TARGET_SIZE)
    )


def _fgf_candidate(rng: random.Random, n_states: int = 40, players: int = 4) -> dict:
    names = [f"s{k:02d}" for k in range(n_states)]
    # balanced owners, a fixed number of states per atom and a fixed
    # out-degree keep the unfolding and product sizes similar across seeds
    owners = [1 + k % players for k in range(n_states)]
    rng.shuffle(owners)
    owner = dict(zip(names, owners))
    labels: dict[str, set[str]] = {s: set() for s in names}
    for a in ATOMS:
        for s in rng.sample(names, n_states // 5):
            labels[s].add(a)
    edges: dict[tuple[str, str], list[int]] = {}

    # planted lasso: a short stem from s00, then a loop through every atom
    path = [names[0]] + rng.sample(names[1:], 9)
    stem_len = rng.randrange(2, 5)
    loop = path[stem_len:]
    for a in ATOMS:
        labels[rng.choice(loop)].add(a)
    for x, y in zip(path, path[1:] + [loop[0]]):
        edges[(x, y)] = [rng.randrange(0, 2), rng.randrange(0, 2)]

    for s in names:
        planted = sum(1 for x, _ in edges if x == s)
        others = [t for t in names if (s, t) not in edges]
        for t in rng.sample(others, OUT_DEGREE - planted):
            edges[(s, t)] = [rng.randrange(-2, 3), rng.randrange(-2, 3)]

    # a fixed mix of objective kinds keeps the product size, and so the
    # solve time, similar across seeds; only the atoms and the order vary
    kinds = ["F", "G F"] * (players // 2) + ["F"] * (players % 2)
    rng.shuffle(kinds)
    system = f"F {rng.choice(ATOMS)}"
    player_objectives = {
        str(i): f"{kind} {rng.choice(ATOMS)}" for i, kind in enumerate(kinds, 1)
    }
    return {
        "players": players,
        "dimensions": 2,
        "atoms": list(ATOMS),
        "states": [
            {"id": s, "owner": owner[s], "labels": sorted(labels[s])} for s in names
        ],
        "initial": names[0],
        "edges": [
            {"src": x, "dst": y, "cost": c} for (x, y), c in sorted(edges.items())
        ],
        "objectives": {"system": system, "players": player_objectives},
    }


def parity_variant(arena_doc: dict) -> tuple[dict, dict[int, dict]]:
    """The same arena with system objective `true`, plus one 2-state parity
    automaton per player that accepts exactly that player's `F q` or `G F q`
    objective. The planted lasso still satisfies every objective."""
    doc = dict(arena_doc)
    doc["objectives"] = {
        "system": "true",
        "players": dict(arena_doc["objectives"]["players"]),
    }
    dpas = {
        int(i): objective_dpa(text) for i, text in doc["objectives"]["players"].items()
    }
    return doc, dpas


def objective_dpa(text: str) -> dict:
    """Deterministic parity automaton (max-even acceptance) for `F q` or
    `G F q`. The automaton reads the label of the current state; its state
    records whether that label carried q."""
    *ops, q = text.split()
    if ops == ["F"]:
        # "wait" until q is seen, then "done" forever
        return {
            "states": ["wait", "done"],
            "initial": "wait",
            "priorities": {"wait": 1, "done": 2},
            "transitions": [
                {"src": "wait", "pos": [q], "dst": "done"},
                {"src": "wait", "neg": [q], "dst": "wait"},
                {"src": "done", "dst": "done"},
            ],
        }
    if ops == ["G", "F"]:
        # "seen" when the last label carried q; accepting when seen infinitely often
        return {
            "states": ["miss", "seen"],
            "initial": "miss",
            "priorities": {"miss": 1, "seen": 2},
            "transitions": [
                {"src": src, "pos": [q], "dst": "seen"} for src in ("miss", "seen")
            ]
            + [{"src": src, "neg": [q], "dst": "miss"} for src in ("miss", "seen")],
        }
    raise ValueError(f"no parity automaton for objective {text!r}")


def unfolded_size(arena_doc: dict, bounds: tuple[int, ...]) -> int:
    """Number of (state, resource vector) pairs reachable from the initial
    state with both resources saturating at `bounds` and never below zero:
    the size of the bounded unfolding without its sink."""
    succ: dict[str, list[tuple[str, list[int]]]] = {}
    for e in arena_doc["edges"]:
        succ.setdefault(e["src"], []).append((e["dst"], e["cost"]))
    start = (arena_doc["initial"], (0,) * len(bounds))
    seen = {start}
    stack = [start]
    while stack:
        s, c = stack.pop()
        for t, w in succ.get(s, ()):
            c2 = tuple(min(ci + wi, bi) for ci, wi, bi in zip(c, w, bounds))
            if min(c2) >= 0 and (t, c2) not in seen:
                seen.add((t, c2))
                stack.append((t, c2))
    return len(seen)


# ---------------------------------------------------------------------------
# reduction: two-counter automata with a planted zero-ending run


def counter_automaton(
    seed: int,
    index: int,
    n_locations: int = 6,
    run_length: int = 6,
    distractors: int = 4,
    peak: int = 3,
) -> tuple[dict, list[tuple[str, tuple[int, int]]]]:
    """A two-counter automaton and a planted run that reaches the target
    with both counters at zero.

    Returns the automaton document and the planted run as a list of
    (location, counters) pairs. The run reaches the counter value `peak`
    and some guard constant equals `peak`, so `recommended_bounds` of the
    run is (2 * peak + 1, 2 * peak + 1) for every seed. Two pumping loops at
    the initial location make every counter vector reachable there, so the
    size of the bounded unfolding, and with it the solve time, varies
    little between seeds."""
    rng = _rng("reduction", seed, index)
    locations = [f"l{k}" for k in range(n_locations)] + ["t"]
    # counter values after each planted step; the last is (0, 0)
    values = [(0, 0)]
    for _ in range(run_length - 1):
        c1, c2 = values[-1]
        values.append(
            (
                min(peak, max(0, c1 + rng.randrange(-2, 3))),
                min(peak, max(0, c2 + rng.randrange(-2, 3))),
            )
        )
    top = rng.randrange(1, run_length)
    values[top] = (peak, values[top][1]) if rng.random() < 0.5 else (values[top][0], peak)
    values.append((0, 0))
    locs = [locations[0]] + [
        rng.choice(locations[:-1]) for _ in range(run_length - 1)
    ] + ["t"]

    def guard(value: int) -> list:
        lo = rng.randrange(0, value + 1) if rng.random() < 0.5 else 0
        up = OMEGA if rng.random() < 0.6 else min(peak, value + rng.randrange(0, 3))
        return [lo, up]

    transitions = []
    for (src, c), (dst, c_next) in zip(zip(locs, values), zip(locs[1:], values[1:])):
        transitions.append(
            {
                "src": src,
                "dst": dst,
                "weights": [c_next[0] - c[0], c_next[1] - c[1]],
                "guards": [guard(c[0]), guard(c[1])],
            }
        )
    for pump in ([1, 0], [0, 1]):
        transitions.append(
            {
                "src": locations[0],
                "dst": locations[0],
                "weights": pump,
                "guards": [[0, OMEGA], [0, OMEGA]],
            }
        )
    for _ in range(distractors):
        transitions.append(
            {
                "src": rng.choice(locations[:-1]),
                "dst": rng.choice(locations),
                "weights": [rng.randrange(-2, 3), rng.randrange(-2, 3)],
                "guards": [guard(rng.randrange(0, peak + 1)) for _ in range(2)],
            }
        )
    transitions[-1]["guards"][0] = [0, peak]
    doc = {
        "counters": 2,
        "locations": locations,
        "initial": locations[0],
        "target": "t",
        "transitions": transitions,
    }
    return doc, list(zip(locs, values))


def replay_counter_run(doc: dict, run: list[tuple[str, tuple[int, int]]]) -> bool:
    """Check a run against the automaton with the automaton semantics: each
    step uses a transition whose guards hold before it and whose weights
    give the next counter values, counters stay nonnegative, and the run
    ends at the target with both counters at zero."""
    if run[0] != (doc["initial"], (0, 0)) or run[-1] != (doc["target"], (0, 0)):
        return False
    for (src, c), (dst, c_next) in zip(run, run[1:]):
        if min(c_next) < 0:
            return False
        if not any(
            t["src"] == src
            and t["dst"] == dst
            and all(
                c[k] + t["weights"][k] == c_next[k]
                and t["guards"][k][0] <= c[k]
                and (t["guards"][k][1] == OMEGA or c[k] <= t["guards"][k][1])
                for k in range(2)
            )
            for t in doc["transitions"]
        ):
            return False
    return True

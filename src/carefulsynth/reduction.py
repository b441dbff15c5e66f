"""Hardness construction: two-counter automata with lower/upper guards
encode into two-player careful-synthesis instances.

A transition guarded by [lo_k, up_k] on counter k is simulated by a gadget
of weighted edges: player 2 first gets escape moves that are profitable
exactly when an upper guard is violated, then the lower guards are checked
by subtraction (underflow hits the sink), and finally the net weight is
restored. Reaching the automaton's target lets player 1 win while player 2
is offered losing escapes, so the synthesis instance has a solution iff the
target is reachable.
"""

from collections import deque
from typing import NamedTuple, Optional, Union

from . import ltl
from ._graphs import path_to
from .arena import Arena, build_arena
from .errors import DocumentSemanticError, expect, is_int, load_json, member

OMEGA = "omega"

Guard = tuple[int, Union[int, str]]  # (lower, upper or OMEGA)


class CounterTransition(NamedTuple):
    src: str
    dst: str
    weights: tuple[int, int]
    guards: tuple[Guard, Guard]


class CounterAutomaton(NamedTuple):
    locations: tuple[str, ...]
    initial: str
    target: str
    transitions: tuple[CounterTransition, ...]


class CounterRun(NamedTuple):
    """Witness for zero-ending reachability: the location visited and the
    counter vector held at each step."""

    locations: tuple[str, ...]
    counters: tuple[tuple[int, int], ...]


def parse_counter_automaton(text: str) -> CounterAutomaton:
    doc = expect(load_json(text), dict, "counter automaton document")
    if member(doc, "counters", int, "counters") != 2:
        raise DocumentSemanticError("only two-counter automata are supported")
    locations = member(doc, "locations", [str], "locations")
    if len(set(locations)) != len(locations):
        raise DocumentSemanticError("duplicate location names")
    locset = set(locations)
    initial = member(doc, "initial", str, "initial location")
    target = member(doc, "target", str, "target location")
    for name in (initial, target):
        if name not in locset:
            raise DocumentSemanticError(f"unknown location {name!r}")
    transitions = []
    for t in member(doc, "transitions", [dict], "transitions"):
        src = member(t, "src", str, "transition source")
        dst = member(t, "dst", str, "transition target")
        if src not in locset or dst not in locset:
            raise DocumentSemanticError(f"transition endpoint not a location: {t!r}")
        weights = tuple(member(t, "weights", [int], "weights"))
        if len(weights) != 2:
            raise DocumentSemanticError(f"weights must be two integers: {t!r}")
        guards = []
        for g in member(t, "guards", [list], "guards"):
            if len(g) != 2:
                raise DocumentSemanticError(f"a guard must be [lower, upper]: {t!r}")
            lo, up = g
            if not is_int(lo) or lo < 0:
                raise DocumentSemanticError(f"lower guard must be a natural: {t!r}")
            if up != OMEGA and (not is_int(up) or up < lo):
                raise DocumentSemanticError(
                    f"upper guard must be {OMEGA!r} or an integer >= lower: {t!r}"
                )
            guards.append((lo, up))
        if len(guards) != 2:
            raise DocumentSemanticError(f"expected one guard per counter: {t!r}")
        transitions.append(
            CounterTransition(src=src, dst=dst, weights=weights, guards=tuple(guards))
        )
    return CounterAutomaton(
        locations=tuple(locations),
        initial=initial,
        target=target,
        transitions=tuple(transitions),
    )


def _enabled(tr: CounterTransition, c: tuple[int, int]) -> bool:
    for k in range(2):
        lo, up = tr.guards[k]
        if c[k] < lo:
            return False
        if up != OMEGA and c[k] > up:
            return False
    return True


def simulate_reachability(ca: CounterAutomaton, budget: int = 10**6) -> Optional[CounterRun]:
    """Breadth-first exploration of configurations (location, counters >= 0).
    Returns a shortest witness run reaching (ca.target, (0, 0)), or None when
    no witness was found within budget. None never means a definitive "no":
    the configuration space is infinite in general and the underlying problem
    is undecidable, so absence of a witness is only "unknown"."""
    if budget < 1:
        raise DocumentSemanticError("budget must be at least 1")
    start = (ca.initial, (0, 0))
    parent: dict = {start: None}
    queue = deque([start])
    while queue:
        loc, c = queue.popleft()
        if loc == ca.target and c == (0, 0):
            return CounterRun(*zip(*path_to(parent, (loc, c))))
        for tr in ca.transitions:
            if tr.src != loc or not _enabled(tr, c):
                continue
            c2 = (c[0] + tr.weights[0], c[1] + tr.weights[1])
            if c2[0] < 0 or c2[1] < 0:
                continue
            node = (tr.dst, c2)
            if node not in parent:
                if len(parent) >= budget:
                    return None
                parent[node] = (loc, c)
                queue.append(node)
    return None


W1, W2A, W2B = "win1", "win2a", "win2b"


def build_game(ca: CounterAutomaton) -> Arena:
    """Encode counter reachability as a two-player instance over two
    resources. Counters live in the resource vector; guards become escape
    moves for player 2 (upper guards) and forced subtractions (lower
    guards). The instance has a careful solution, under bounds at least the
    largest counter values of a witness run, iff (target, (0, 0)) is
    reachable."""
    own = {W1, W2A, W2B, f"{ca.target}_done"}  # the states the encoding adds
    own.update(f"t{k}_{end}" for k in range(len(ca.transitions)) for end in ("hi", "lo"))
    for loc in ca.locations:
        if loc in own:
            raise DocumentSemanticError(f"location {loc!r} clashes with a state the encoding adds")
    states: list[str] = []
    owner: dict[str, int] = {}
    labels: dict[str, list[str]] = {}
    edges: dict[tuple[str, str], tuple[int, int]] = {}

    def add_state(name, who, labs=()):
        states.append(name)
        owner[name] = who
        labels[name] = list(labs)

    for loc in ca.locations:
        add_state(loc, 1)
    add_state(W1, 1, ["w1"])
    add_state(W2A, 1, ["w2"])
    add_state(W2B, 1, ["w2"])
    for sink in (W1, W2A, W2B):
        edges[(sink, sink)] = (0, 0)

    for idx, tr in enumerate(ca.transitions):
        hi = f"t{idx}_hi"  # player 2 checks the upper guards here
        lo = f"t{idx}_lo"  # lower guards already paid; restore and continue
        add_state(hi, 2)
        add_state(lo, 2)
        edges[(tr.src, hi)] = (0, 0)
        (lo1, up1), (lo2, up2) = tr.guards
        if up1 != OMEGA:
            # profitable for player 2 exactly when counter 1 > up1
            edges[(hi, W2A)] = (-(up1 + 1), 0)
        if up2 != OMEGA:
            edges[(hi, W2B)] = (0, -(up2 + 1))
        edges[(hi, lo)] = (-lo1, -lo2)
        edges[(lo, tr.dst)] = (lo1 + tr.weights[0], lo2 + tr.weights[1])

    # target gadget: player 1 wins; player 2's escapes double as zero tests
    # (careful for player 2 exactly when a counter is still positive)
    t_choice = f"{ca.target}_done"
    add_state(t_choice, 2)
    edges[(ca.target, t_choice)] = (0, 0)
    edges[(t_choice, W1)] = (0, 0)
    edges[(t_choice, W2A)] = (-1, 0)
    edges[(t_choice, W2B)] = (0, -1)

    # totality: dead locations idle harmlessly
    srcs = {x for (x, _) in edges}
    for loc in ca.locations:
        if loc not in srcs:
            edges[(loc, loc)] = (0, 0)

    return build_arena(
        players=2,
        dimensions=2,
        states=states,
        owner=owner,
        initial=ca.initial,
        edges=edges,
        atoms=["w1", "w2"],
        labels=labels,
        system_objective=ltl.Eventually(ltl.Atom("w1")),
        player_objectives=(
            ltl.Eventually(ltl.Atom("w1")),
            ltl.Eventually(ltl.Atom("w2")),
        ),
        bounds=None,
    )


def recommended_bounds(ca: CounterAutomaton, run: CounterRun) -> tuple[int, int]:
    """Capacities large enough that saturation never clips a value along the
    encoded witness run or any relevant deviation check: M + maxguard + 1,
    where M bounds the run's counter values and maxguard is the largest
    finite guard constant."""
    m = max(max(c[0] for c in run.counters), max(c[1] for c in run.counters))
    maxguard = 0
    for tr in ca.transitions:
        for lo, up in tr.guards:
            maxguard = max(maxguard, lo, up if up != OMEGA else 0)
    b = m + maxguard + 1
    return (b, b)

"""Two-player zero-sum solving on numbered parity games: attractors,
Zielonka's parity algorithm, objective trackers, and the per-player
punishment regions used by the equilibrium characterization. Every objective
becomes a deterministic parity tracker (a flag for `F`, `G`, `G F` and
`F G`, or a supplied parity automaton); a punishment game is played on an
unfolded product of the arena with that tracker as one of its components
(`unfolding.product`): in `solve`, the witness product's. A
reachability game is solved on credit sets, one int per product node
whose bit k is set when credit key k is won (`credit_region`, after
symbolic model checking, Burch, Clarke, McMillan, Dill and Hwang, LICS
1990, and energy games on credit vectors, Bouyer et al., FORMATS 2008);
every other game by Zielonka's algorithm on its ids.

The deviating player is the protagonist; everyone else is merged into one
adversarial coalition. Underflow sinks are absorbing and losing for the
protagonist: carefulness is imposed structurally, not as a side condition.
"""

from functools import partial, reduce
from itertools import compress
from math import prod
from operator import and_, or_
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Optional

from . import ltl
from .errors import (
    DocumentSemanticError, UnsupportedObjectiveError, expect, is_int, load_json, member,
)
from .ltl import FragmentClass
from .unfolding import UnfoldedArena, pre_image, pre_image_steps

# The largest priority a parity game or automaton may use: Zielonka's
# recursion depth grows with it.
MAX_PRIORITY = 16


class ZeroSumGame(NamedTuple):
    """A parity game on the ids 0..n-1, lists indexed by id: the protagonist
    wins a play iff its top priority seen infinitely often is even. The
    lists `succ` and `pred` are read-only: a punishment game shares them
    with its unfolding and the games on it."""

    succ: list[list[int]]
    is_protagonist: list[bool]
    priority: list[int]
    pred: list[list[int]]  # the predecessor lists of `succ`

    @property
    def states(self) -> range:
        return range(len(self.succ))


def predecessors(succ: list[list[int]]) -> list[list[int]]:
    """The predecessor lists of the successor lists `succ`."""
    pred: list[list[int]] = [[] for _ in succ]
    for s, out in enumerate(succ):
        for t in out:
            pred[t].append(s)
    return pred


class WinningRegions(NamedTuple):
    protagonist: frozenset[int]
    antagonist: frozenset[int]
    protagonist_strategy: dict[int, int]  # protagonist-owned states in its region
    antagonist_strategy: dict[int, int]  # coalition-owned states in its region


# ---------------------------------------------------------------------------
# Attractor


def attractor(
    g: ZeroSumGame,
    target: Iterable[int],
    *,
    for_protagonist: bool,
    within: set[int],
) -> tuple[set[int], dict[int, int]]:
    """Least fixpoint inside `within` containing `target`: the attracting
    side's states with one successor inside, the other side's states with
    all their successors in `within` inside. The strategy picks a
    rank-decreasing edge. The frontier is seeded in id order, so ties
    between targets do not depend on hashing."""
    attr = within.intersection(target)
    succ, pred, mine = g.succ, g.pred, g.is_protagonist
    strategy: dict[int, int] = {}
    degree: dict[int, int] = {}  # successors in `within` not yet attracted
    frontier = sorted(attr)
    while frontier:
        new_frontier = []
        for t in frontier:
            for s in pred[t]:
                if s in attr or s not in within:
                    continue
                if mine[s] == for_protagonist:
                    attr.add(s)
                    strategy[s] = t
                    new_frontier.append(s)
                    continue
                left = degree.get(s)
                if left is None:
                    left = 0
                    for x in succ[s]:
                        if x in within:
                            left += 1
                degree[s] = left - 1
                if left == 1:
                    attr.add(s)
                    new_frontier.append(s)
        frontier = new_frontier
    return attr, strategy


# ---------------------------------------------------------------------------
# Parity (Zielonka)


def solve_parity(g: ZeroSumGame) -> WinningRegions:
    """Zielonka's algorithm on the whole game."""
    top = max(g.priority, default=0)
    if top > MAX_PRIORITY:
        raise DocumentSemanticError(
            f"priority {top} exceeds the configured bound {MAX_PRIORITY}"
        )
    w0, s0, w1, s1 = _zielonka(g, set(g.states))
    return WinningRegions(frozenset(w0), frozenset(w1), s0, s1)


def _zielonka(g: ZeroSumGame, domain: set[int]):
    """Solve the subgame on `domain`, a set of states that each keep a
    successor inside. Returns (protagonist region, its strategy, coalition
    region, its strategy). Recursion drops the top priority each time, so
    its depth stays at most MAX_PRIORITY + 1; the regions the opponent of
    the top priority's owner wins are peeled off in a loop."""
    if not domain:
        return set(), {}, set(), {}
    priority = g.priority
    present = {priority[s] for s in domain}
    p = max(present)
    j_is_pro = p % 2 == 0
    if all(q % 2 == p % 2 for q in present):
        # every play inside is won by the owner of p's parity
        wj, sj, wo, so = domain, {}, set(), {}
    else:
        wo, so = set(), {}
        while True:
            top = {s for s in domain if priority[s] == p}
            a_region, tau = attractor(g, top, for_protagonist=j_is_pro, within=domain)
            w0p, s0p, w1p, s1p = _zielonka(g, domain - a_region)
            sjp, wop, sop = (s0p, w1p, s1p) if j_is_pro else (s1p, w0p, s0p)
            if not wop:
                break
            b_region, tau2 = attractor(g, wop, for_protagonist=not j_is_pro, within=domain)
            wo |= b_region
            so.update(sop)
            so.update(tau2)
            domain = domain - b_region
        wj, sj = domain, {**sjp, **tau}
    for s in wj:  # the winner's states without a move stay inside
        if g.is_protagonist[s] == j_is_pro and s not in sj:
            sj[s] = next(t for t in g.succ[s] if t in wj)
    if j_is_pro:
        return wj, sj, wo, so
    return wo, so, wj, sj


# ---------------------------------------------------------------------------
# Deterministic parity automata (user-supplied, for general-LTL objectives)


class DpaTransition(NamedTuple):
    src: str
    pos: frozenset[str]
    neg: frozenset[str]
    dst: str


class ParityAutomaton(NamedTuple):
    states: tuple[str, ...]
    initial: str
    priority: Mapping[str, int]
    transitions: tuple[DpaTransition, ...]


def parse_dpa(text: str) -> ParityAutomaton:
    doc = expect(load_json(text), dict, "parity automaton document")
    states = tuple(member(doc, "states", [str], "states"))
    initial = member(doc, "initial", str, "initial state")
    priority = member(doc, "priorities", dict, "priorities")
    transitions = tuple(
        DpaTransition(
            member(t, "src", str, "transition source"),
            frozenset(member(t, "pos", [str], "pos", [])),
            frozenset(member(t, "neg", [str], "neg", [])),
            member(t, "dst", str, "transition target"),
        )
        for t in member(doc, "transitions", [dict], "transitions")
    )
    if len(set(states)) != len(states):
        raise DocumentSemanticError("duplicate state names")
    if initial not in states:
        raise DocumentSemanticError(f"initial state {initial!r} unknown")
    if any("|" in q for q in states):
        # a punishment-table key ends in |q; the checker splits at the last |
        raise DocumentSemanticError(f"state names must not contain '|', got {states!r}")
    if not all(is_int(p) and 0 <= p <= MAX_PRIORITY for p in priority.values()):
        raise DocumentSemanticError(
            f"priorities must be integers from 0 to {MAX_PRIORITY}, got {priority!r}"
        )
    if set(priority) != set(states):
        raise DocumentSemanticError("priority map must cover exactly the states")
    for t in transitions:
        if t.src not in states or t.dst not in states:
            raise DocumentSemanticError(f"dangling transition {t}")
    return ParityAutomaton(states, initial, priority, transitions)


def dpa_step(dpa: ParityAutomaton, q: str, letter: frozenset[str]) -> str:
    matches = [
        t.dst
        for t in dpa.transitions
        if t.src == q and t.pos <= letter and not (t.neg & letter)
    ]
    if not matches:
        raise DocumentSemanticError(
            f"parity automaton has no transition from {q!r} on {sorted(letter)}"
        )
    if len(set(matches)) > 1:
        raise DocumentSemanticError(
            f"parity automaton is nondeterministic at {q!r} on {sorted(letter)}"
        )
    return matches[0]


# ---------------------------------------------------------------------------
# Objective trackers


class Tracker(NamedTuple):
    """A deterministic parity automaton over letters: a run reads a word
    from `initial` through `step(q, letter)` and is won iff the maximum
    `priority` of its states seen infinitely often is even. Pairing each
    position with the state before its letter or after it shifts the run by
    one and does not change that maximum. A supplied automaton need only be
    complete over the letters its runs meet (see `unfolding.Product`)."""

    initial: Hashable
    step: Callable[[Hashable, frozenset], Hashable]
    priority: Callable[[Hashable], int]


def objective_tracker(
    objective: ltl.Formula, dpa: Optional[ParityAutomaton] = None
) -> Tracker:
    """A supplied parity automaton as given. A fragment objective's state is
    one flag about beta: seen (F), failed (G), held at the last letter (G F,
    F G)."""
    if dpa is not None:
        return Tracker(dpa.initial, partial(dpa_step, dpa), dpa.priority.__getitem__)
    frag = ltl.classify_fragment(objective)
    if frag.kind == FragmentClass.GENERAL:
        raise UnsupportedObjectiveError(
            f"objective {objective} is outside the solvable fragments; "
            "supply a deterministic parity automaton"
        )
    holds = _Filled(partial(ltl.eval_bool, frag.beta))  # letter -> whether beta holds
    if frag.kind == FragmentClass.REACH:
        step, priority = (lambda seen, x: seen or holds[x]), (lambda seen: 2 if seen else 1)
    elif frag.kind == FragmentClass.SAFE:
        step, priority = (lambda bad, x: bad or not holds[x]), (lambda bad: 1 if bad else 2)
    else:
        good = 2 if frag.kind == FragmentClass.BUCHI else 0
        step, priority = (lambda _, x: holds[x]), (lambda held: good if held else 1)
    return Tracker(False, step, priority)


class _Filled(dict):
    """A map whose value at a key is `fill(key)`, computed and stored at the
    key's first lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


# ---------------------------------------------------------------------------
# Punishment regions


class PunishRegions(NamedTuple):
    """A player's punishment game, solved on its ids: `win` holds the nodes
    from which the player, alone, carefully meets its objective, and
    `punishment` maps each coalition node the coalition wins to its move;
    a reachability region's map finds a move at its first lookup."""

    win: frozenset[int]
    punishment: dict[int, int]


def punishment_game(g: UnfoldedArena, player: int, component: int,
                    pred: Optional[list] = None) -> ZeroSumGame:
    """`player`'s game on `g`, an unfolded product of the arena whose
    component `component` is the player's tracker: `g.succ`, the player the
    protagonist at its states, that tracker's priorities, and the sink at
    priority 1, so carefulness stays losing. Its predecessor lists are
    `pred`, a list the caller keeps for `g.succ`, filled here if empty, so
    that games on one unfolding share it, or else a fresh list."""
    priority = g.graph.components[component].priority
    prio = [priority(qs[component]) for qs in g.graph.qs]
    if pred is None:
        pred = predecessors(g.succ)
    elif not pred:
        pred += predecessors(g.succ)
    return ZeroSumGame(
        g.succ, [o == player for o in g.owner],
        [prio[p] for p in g.at] + [1] * (len(g.succ) - len(g.at)), pred,
    )


def punish_region(
    g: UnfoldedArena, player: int, component: int, pred: Optional[list] = None,
    steps: Optional[dict] = None,
) -> PunishRegions:
    """Where can `player`, alone against the coalition, carefully achieve
    the objective of its tracker, component `component` of `g`, from the
    tracker state its history has reached? A losing outcome must not visit
    a node the player owns in this region of `punishment_game(g, player,
    component, pred)`; the other components only refine that game. A
    reachability game is solved on credit sets (`credit_region`, with
    `steps`, a dict the caller may keep for the games of one capacity
    vector), the coalition moving from each of its nodes outside to its
    first successor outside, which is Zielonka's answer there, found only
    where the table is read; Zielonka's algorithm solves every other game."""
    priority = g.graph.components[component].priority
    won = credit_region(g, player, [priority(qs[component]) for qs in g.graph.qs],
                        {} if steps is None else steps)
    if won is None:
        regions = solve_parity(punishment_game(g, player, component, pred))
        return PunishRegions(regions.protagonist, regions.antagonist_strategy)
    succ = g.succ
    # a coalition node outside has a successor outside, or `won` would hold it
    return PunishRegions(won, _Filled(lambda s: next(t for t in succ[s] if t not in won)))


# Credit sets are used while their bits, the product's nodes times the
# credits, are at most this many times the unfolding's ids counted as at
# least 1,024 (65,536 bits): a few bytes per id, whatever the capacities.
CREDIT_SET_ROOM = 64


def credit_region(
    g: UnfoldedArena, player: int, priority: list[int], steps: dict
) -> Optional[frozenset[int]]:
    """The ids of `g` from which `player` forces a target, a node of
    priority 2, where its product node p has `priority[p]`, if the game is
    a reachability game on its ids and its credit sets fit
    `CREDIT_SET_ROOM`, else None. It is one when every priority its ids
    reach is 1 or 2, and every successor of a target is a target, never the
    sink (at priority 1): a play that meets a target then keeps to targets,
    and every other play sees only priority 1. An `F` game is one once its
    targets are absorbing and none has an edge into the underflow sink.

    The region is the least fixpoint over the product nodes of `g.graph`:
    node p holds an int whose bit c is set when the player forces a target
    from p at credit key c (`UnfoldedArena.keys`). A target holds the
    credits at which none of its edges goes below zero, and a target id
    at another credit, found before the fixpoint, makes the game no
    reachability game. A node of the
    player's ORs the pre-images of its edges (`pre_image`), a coalition
    node ANDs them, and a failed step counts as no credit; a pre-image
    keeps only the credits an edge leaves without going below zero, so the
    sink is never won. A worklist recomputes the predecessors of each node
    that grows. The ids are read back in one pass over their keys. `steps`
    maps each cost to its `pre_image_steps`, which it gains."""
    graph, a, width = g.graph, g.base, prod(v + 1 for v in g.bounds)
    n, reached, target = len(graph.state), set(g.at), [p == 2 for p in priority]
    if width * n > CREDIT_SET_ROOM * max(len(g.keys), 1024) or not {1, 2}.issuperset(
            map(priority.__getitem__, reached)) or not all(
            x >= 0 and target[x] for p in reached if target[p] for x in graph.succ[p]):
        return None
    for w in set(a.edges.values()).difference(steps):
        steps[w] = pre_image_steps(w, g.bounds)
    state, everything = graph.state, (1 << width) - 1
    # node -> (successor, its cost's steps); a failed step goes to node n, which holds no credit
    edges = [[(x, steps[a.edges[s, state[x]]]) if x >= 0 else (n, ()) for x in out]
             for s, out in zip(state, graph.succ)]
    join = [or_ if a.owner[s] == player else and_ for s in state]
    won = [reduce(and_, [pre_image(everything, st) for _, st in out]) if t else 0
           for out, t in zip(edges, target)] + [0]
    if everything != reduce(and_, compress(won, target), everything) and 0 in compress(
            map(_bytes(won[:n], width).__getitem__, g.keys), map(target.__getitem__, g.at)):
        return None  # a target id at a credit where an edge goes below zero
    pred = predecessors([[] if t else [x for x, _ in out] for out, t in zip(edges, target)] + [[]])
    work = [p for p in range(n) if not target[p]]  # never a target
    waiting = [True] * n  # in `work`
    while work:
        p = work.pop()
        waiting[p] = False
        new = reduce(join[p], [pre_image(won[x], st) for x, st in edges[p]])
        if new != won[p]:  # it only grows
            won[p] = new
            for q in pred[p]:
                if not waiting[q]:
                    waiting[q] = True
                    work.append(q)
    return frozenset(compress(range(len(g.keys)), map(_bytes(won[:n], width).__getitem__, g.keys)))


# The characters "0" and "1" as the bytes 0 and 1
_BITS = bytes.maketrans(b"01", b"\0\1")


def _bytes(sets: list[int], width: int) -> bytes:
    """The credit sets `sets` of `width` bits, one per product node, as one
    byte per key, 1 where its credit is in its node's set."""
    return "".join([format(x, "b").zfill(width)[::-1] for x in sets]).encode().translate(_BITS)

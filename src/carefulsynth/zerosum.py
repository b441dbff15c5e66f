"""Two-player zero-sum solving on numbered parity games: attractors,
Zielonka's parity algorithm, objective trackers, and the per-player
punishment regions used by the equilibrium characterization. Every objective
becomes a deterministic parity tracker (a flag for `F`, `G`, `G F` and
`F G`, or a supplied parity automaton); a punishment game is the unfolded
product of the arena with that tracker (`unfolding.product`), solved on its
ids by Zielonka's algorithm, or by one attractor when it is a reachability
game (see `_reachability_targets`).

The deviating player is the protagonist; everyone else is merged into one
adversarial coalition. Underflow sinks are absorbing and losing for the
protagonist: carefulness is imposed structurally, not as a side condition.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import chain
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Optional

from . import ltl
from .errors import (
    DocumentSemanticError, UnsupportedObjectiveError, expect, is_int, load_json, member,
)
from .ltl import FragmentClass
from .unfolding import UnfoldedArena

# The largest priority a parity game or automaton may use: Zielonka's
# recursion depth grows with it.
MAX_PRIORITY = 16


class ZeroSumGame:
    """A parity game on the ids 0..n-1, lists indexed by id: the protagonist
    wins a play iff its top priority seen infinitely often is even. The
    lists `succ`, and `pred` if given, are read-only: a punishment game
    shares them with its unfolding and the games on it."""

    def __init__(
        self,
        succ: list[list[int]],
        is_protagonist: list[bool],
        priority: list[int],
        pred: Optional[list[list[int]]] = None,
    ):
        self.succ = succ
        self.is_protagonist = is_protagonist
        self.priority = priority
        if pred is not None:
            self.pred = pred

    @property
    def states(self) -> range:
        return range(len(self.succ))

    @cached_property
    def pred(self) -> list[list[int]]:  # built when an attractor first needs it
        return predecessors(self.succ)


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
    within: Optional[set[int]] = None,
) -> tuple[set[int], dict[int, int]]:
    """Least fixpoint inside `within` containing `target`: the attracting
    side's states with one successor inside, the other side's states with
    all their successors in `within` inside. The strategy picks a
    rank-decreasing edge. The frontier is seeded in id order, so ties
    between targets do not depend on hashing. Without `within` the fixpoint
    is over the whole game: no state is tested for membership, and the
    other side's state counts down from its number of successors."""
    attr = set(target) if within is None else within.intersection(target)
    succ, pred, mine = g.succ, g.pred, g.is_protagonist
    strategy: dict[int, int] = {}
    degree: dict[int, int] = {}  # successors in `within` not yet attracted
    frontier = sorted(attr)
    while frontier:
        new_frontier = []
        for t in frontier:
            for s in pred[t]:
                if s in attr or within is not None and s not in within:
                    continue
                if mine[s] == for_protagonist:
                    attr.add(s)
                    strategy[s] = t
                    new_frontier.append(s)
                    continue
                left = degree.get(s)
                if left is None:
                    if within is None:
                        left = len(succ[s])
                    else:
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


def _escape_strategy(g, region, owned_side):
    """For `owned_side`-owned states inside `region` (which is closed for
    that side), pick a successor staying in `region`."""
    succ, mine, out = g.succ, g.is_protagonist, {}
    for s in region:
        if mine[s] == owned_side:
            for t in succ[s]:
                if t in region:
                    out[s] = t
                    break
    return out


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
    the top priority's owner wins are peeled off in a loop. The loop stops
    once a peel leaves exactly the attractor `a_region` of the top: the next
    round would compute the same attractor and strategy there and solve an
    empty subgame, so the regions and strategies are those it would
    return, with no strategy from that subgame."""
    if not domain:
        return set(), {}, set(), {}
    priority = g.priority
    present = {priority[s] for s in domain}
    p = max(present)
    j_is_pro = p % 2 == 0
    if all(q % 2 == p % 2 for q in present):
        # every play inside is won by the owner of p's parity
        wj, sj, wo, so = domain, _escape_strategy(g, domain, j_is_pro), set(), {}
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
            if domain == a_region:  # the next round would repeat this one's attractor
                sjp = {}
                break
        wj = domain
        sj = dict(sjp)
        sj.update(tau)
        for s in top:
            if g.is_protagonist[s] == j_is_pro and s not in sj:
                sj[s] = next(t for t in g.succ[s] if t in domain)
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


def _reachability_targets(g: ZeroSumGame) -> Optional[list[int]]:
    """The nodes of priority 2 when `g` is a reachability game for the
    protagonist, else None. It is one when every priority is 1 or 2 and no
    node of priority 2 has a successor of priority 1: a play that meets
    priority 2 then keeps it, and every other play sees only priority 1.
    An `F` game is one once its targets are absorbing and none has an edge
    into the underflow sink, which keeps priority 1."""
    priority = g.priority
    if not {1, 2}.issuperset(priority):
        return None
    targets = [s for s, p in enumerate(priority) if p == 2]
    absorbing = set(targets).issuperset(chain.from_iterable(map(g.succ.__getitem__, targets)))
    return targets if absorbing else None


def punishment_game(g: UnfoldedArena, player: int, pred: Optional[list] = None) -> ZeroSumGame:
    """`player`'s game on `g`, the arena's unfolded product with one
    tracker: `g.succ`, the player the protagonist at its states, the
    tracker's priorities, and the sink at priority 1, so carefulness stays
    losing. Its predecessor lists are `pred`, a list the caller keeps for
    `g.succ`, filled here if empty, so that games on one unfolding share it."""
    (tracker,) = g.graph.components
    prio = [tracker.priority(q) for (q,) in g.graph.qs]
    if pred is not None and not pred:
        pred += predecessors(g.succ)
    return ZeroSumGame(
        g.succ, [o == player for o in g.owner],
        [prio[p] for p in g.at] + [1] * (len(g.succ) - len(g.at)), pred,
    )


def punish_region(
    g: UnfoldedArena, player: int, pred: Optional[list] = None
) -> PunishRegions:
    """Where can `player`, alone against the coalition, carefully achieve
    the objective of the tracker of `g`, from the tracker state its history
    has reached? A losing outcome must not visit a node the player owns in
    this region of `punishment_game(g, player, pred)`. A reachability game
    (`_reachability_targets`) is solved by one attractor to its targets,
    the coalition moving from each of its nodes outside to its first
    successor outside, which is Zielonka's answer there, found only where
    the table is read; Zielonka's algorithm solves every other game."""
    game = punishment_game(g, player, pred)
    targets = _reachability_targets(game)
    if targets is None:
        regions = solve_parity(game)
        return PunishRegions(regions.protagonist, regions.antagonist_strategy)
    won = frozenset(attractor(game, targets, for_protagonist=True)[0])
    # a coalition node outside has a successor outside, or `won` would hold it
    return PunishRegions(won, _Filled(lambda s: next(t for t in game.succ[s] if t not in won)))

"""Two-player zero-sum solving on game graphs: attractors, Zielonka's
parity algorithm, and the per-player punishment regions used by the
equilibrium characterization. Reach and Safe objectives are single
attractor computations; Büchi and co-Büchi objectives, like parity
automata, are solved as parity games.

The deviating player is the protagonist; everyone else is merged into one
adversarial coalition. Underflow sinks are absorbing and losing for the
protagonist: carefulness is imposed structurally, not as a side condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Optional

from . import ltl
from .arena import RESERVED_ATOM
from .errors import DocumentSemanticError, UnsupportedObjectiveError, load_json
from .ltl import FragmentClass
from .unfolding import BOT, UnfoldedArena

MAX_PRIORITY = 16

State = Hashable


@dataclass(frozen=True)
class ZeroSumGame:
    states: tuple[State, ...]
    succ: Mapping[State, tuple[State, ...]]
    is_protagonist: Mapping[State, bool]
    labels: Mapping[State, frozenset[str]]
    losing_sinks: frozenset[State] = frozenset()  # absorbing: self-loop only
    pred: Mapping[State, tuple[State, ...]] = field(repr=False, default=None)


def make_game(states, succ, is_protagonist, labels, losing_sinks=frozenset()) -> ZeroSumGame:
    pred: dict[State, list[State]] = {s: [] for s in states}
    for s in states:
        for t in succ[s]:
            pred[t].append(s)
    return ZeroSumGame(
        states=tuple(states),
        succ={s: tuple(succ[s]) for s in states},
        is_protagonist=dict(is_protagonist),
        labels=dict(labels),
        losing_sinks=frozenset(losing_sinks),
        pred={s: tuple(ps) for s, ps in pred.items()},
    )


def game_from_unfolded(u: UnfoldedArena, protagonist_players: Iterable[int]) -> ZeroSumGame:
    protos = set(protagonist_players)
    if not protos <= set(range(1, u.base.players + 1)):
        raise DocumentSemanticError(f"unknown player(s) in {sorted(protos)}")
    return make_game(
        states=u.states,
        succ=u.succ,
        is_protagonist={s: u.owner(s) in protos for s in u.states},
        labels={s: u.labels(s) for s in u.states},
        losing_sinks=frozenset(s for s in u.states if s is BOT),
    )


@dataclass(frozen=True)
class WinningRegions:
    protagonist: frozenset[State]
    antagonist: frozenset[State]
    protagonist_strategy: dict[State, State]  # protagonist-owned states in its region
    antagonist_strategy: dict[State, State]  # coalition-owned states in its region


# ---------------------------------------------------------------------------
# Attractor


def attractor(
    g: ZeroSumGame,
    target: Iterable[State],
    *,
    for_protagonist: bool = True,
    within: Optional[Iterable[State]] = None,
) -> tuple[set[State], dict[State, State]]:
    """Least fixpoint containing `target`: the attracting side's states with
    one successor inside, the other side's states with all successors
    inside. The strategy picks a rank-decreasing edge. The frontier is
    seeded in `g.states` order, so ties between targets do not depend on
    hashing."""
    if within is None:
        domain = g.succ  # keyed by every state
    elif isinstance(within, (set, frozenset)):
        domain = within
    else:
        domain = set(within)
    attr = set(t for t in target if t in domain)
    strategy: dict[State, State] = {}
    degree: dict[State, int] = {}  # in-domain successors not yet attracted
    frontier = [s for s in g.states if s in attr]
    while frontier:
        new_frontier = []
        for t in frontier:
            for s in g.pred[t]:
                if s not in domain or s in attr:
                    continue
                if g.is_protagonist[s] == for_protagonist:
                    attr.add(s)
                    strategy[s] = t
                    new_frontier.append(s)
                    continue
                left = degree.get(s)
                if left is None:
                    left = 0
                    for x in g.succ[s]:
                        if x in domain:
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
    out = {}
    for s in region:
        if g.is_protagonist[s] == owned_side:
            for t in g.succ[s]:
                if t in region:
                    out[s] = t
                    break
    return out


# ---------------------------------------------------------------------------
# Fragment solvers


def _holds(beta: ltl.Formula, letter: frozenset[str]) -> bool:
    return ltl.eval_bool(beta, letter)


def _totalize(g: ZeroSumGame, regions: WinningRegions) -> WinningRegions:
    """Extend both strategy maps to every owned state. Outside the owner's
    winning region (or once the objective is already decided) any edge is as
    good as another; total maps keep simulations and certificate checks
    simple."""
    pro = dict(regions.protagonist_strategy)
    ant = dict(regions.antagonist_strategy)
    for s in g.states:
        if g.is_protagonist[s]:
            pro.setdefault(s, g.succ[s][0])
        else:
            ant.setdefault(s, g.succ[s][0])
    return WinningRegions(regions.protagonist, regions.antagonist, pro, ant)


def solve_fragment(g: ZeroSumGame, frag: FragmentClass) -> WinningRegions:
    """Reach / Safe / Büchi / co-Büchi solving; losing sinks are folded in
    as states the protagonist must avoid forever."""
    return _totalize(g, _solve_fragment(g, frag))


def _solve_fragment(g: ZeroSumGame, frag: FragmentClass) -> WinningRegions:
    if frag.kind == FragmentClass.GENERAL:
        raise UnsupportedObjectiveError("cannot solve the General fragment directly")
    beta = frag.beta
    sat = {s: s not in g.losing_sinks and _holds(beta, g.labels[s]) for s in g.states}

    if frag.kind in (FragmentClass.BUCHI, FragmentClass.COBUCHI):
        # G F beta: beta -> 2, else 1.  F G beta: beta -> 0, else 1.  Sinks
        # are self-loops with priority 1, so carefulness stays losing.
        good = 2 if frag.kind == FragmentClass.BUCHI else 0
        return solve_parity(g, {s: good if sat[s] else 1 for s in g.states})

    if frag.kind == FragmentClass.SAFE:
        bad = {s for s in g.states if not sat[s]}
        b_region, ant_strat = attractor(g, bad, for_protagonist=False)
        w = set(g.states) - b_region
        pro_strat = _escape_strategy(g, w, True)
        # inside the already-lost region any move will do
        for s in b_region:
            if not g.is_protagonist[s] and s not in ant_strat:
                ant_strat[s] = g.succ[s][0]
        return WinningRegions(frozenset(w), frozenset(b_region), pro_strat, ant_strat)

    # Reach: first confine the protagonist to the region where it can avoid
    # the sinks forever.
    sink_attr, sink_strat = attractor(g, g.losing_sinks, for_protagonist=False)
    safe = set(g.states) - sink_attr

    if frag.kind == FragmentClass.REACH:
        targets = {s for s in safe if sat[s]}
        a_region, a_strat = attractor(g, targets, for_protagonist=True, within=safe)
        w_pro = a_region
        pro_strat = dict(a_strat)
        # after the target is reached the play may drift anywhere in the
        # sink-avoiding region; keep the strategy total there
        stay = _escape_strategy(g, safe, True)
        for s, t in stay.items():
            pro_strat.setdefault(s, t)
        w_ant = set(g.states) - w_pro
        ant_strat = dict(sink_strat)
        rest = safe - a_region
        for s in rest:
            if not g.is_protagonist[s]:
                ant_strat[s] = next(t for t in g.succ[s] if t not in a_region)
        for s in sink_attr:
            if not g.is_protagonist[s] and s not in ant_strat:
                ant_strat[s] = g.succ[s][0]  # at/after the sink, anything goes
        return WinningRegions(frozenset(w_pro), frozenset(w_ant), pro_strat, ant_strat)

    raise UnsupportedObjectiveError(f"unknown fragment kind {frag.kind!r}")


# ---------------------------------------------------------------------------
# Parity (Zielonka)


def solve_parity(g: ZeroSumGame, priority: Mapping[State, int]) -> WinningRegions:
    """Zielonka's algorithm. The protagonist wins a play iff the maximum
    priority seen infinitely often is even."""
    missing = [s for s in g.states if s not in priority]
    if missing:
        raise DocumentSemanticError(f"missing priorities for {len(missing)} state(s)")
    top = max((priority[s] for s in g.states), default=0)
    if top > MAX_PRIORITY:
        raise DocumentSemanticError(
            f"priority {top} exceeds the configured bound {MAX_PRIORITY}"
        )
    w0, s0, w1, s1 = _zielonka(g, set(g.states), priority)
    return WinningRegions(frozenset(w0), frozenset(w1), s0, s1)


def _zielonka(g: ZeroSumGame, domain: set[State], priority):
    """Solve the subgame on `domain`, a set of states that each keep a
    successor inside. Returns (protagonist region, its strategy, coalition
    region, its strategy). Recursion drops the top priority each time, so
    its depth stays at most MAX_PRIORITY + 1; the regions the opponent of
    the top priority's owner wins are peeled off in a loop."""
    if not domain:
        return set(), {}, set(), {}
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
            w0p, s0p, w1p, s1p = _zielonka(g, domain - a_region, priority)
            sjp, wop, sop = (s0p, w1p, s1p) if j_is_pro else (s1p, w0p, s0p)
            if not wop:
                break
            b_region, tau2 = attractor(g, wop, for_protagonist=not j_is_pro, within=domain)
            wo |= b_region
            so.update(sop)
            so.update(tau2)
            domain = domain - b_region
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


@dataclass(frozen=True)
class DpaTransition:
    src: str
    pos: frozenset[str]
    neg: frozenset[str]
    dst: str


@dataclass(frozen=True)
class ParityAutomaton:
    states: tuple[str, ...]
    initial: str
    priority: Mapping[str, int]
    transitions: tuple[DpaTransition, ...]


def parse_dpa(text: str) -> ParityAutomaton:
    doc = load_json(text)
    try:
        states = tuple(doc["states"])
        initial = doc["initial"]
        priority = {q: int(p) for q, p in doc["priorities"].items()}
        transitions = tuple(
            DpaTransition(
                t["src"],
                frozenset(t.get("pos", [])),
                frozenset(t.get("neg", [])),
                t["dst"],
            )
            for t in doc["transitions"]
        )
    except (KeyError, TypeError) as e:
        raise DocumentSemanticError(f"bad parity automaton document: {e}") from e
    if initial not in states:
        raise DocumentSemanticError(f"initial state {initial!r} unknown")
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
# Punishment regions


@dataclass(frozen=True)
class PunishRegions:
    """Deviator-winning region over unfolded states, plus the coalition's
    punishment strategy. For parity-automaton objectives the strategy is
    keyed by (unfolded state, automaton state) pairs."""

    win: frozenset[State]
    punishment: dict


def punish_region(
    u: UnfoldedArena,
    player: int,
    objective: ltl.Formula,
    dpa: Optional[ParityAutomaton] = None,
) -> PunishRegions:
    """Where can `player`, alone against the coalition, achieve its
    objective while staying careful? Visiting this region while unsatisfied
    breaks an equilibrium candidate."""
    if dpa is not None:
        return _punish_region_dpa(u, player, dpa)
    frag = ltl.classify_fragment(objective)
    if frag.kind == FragmentClass.GENERAL:
        raise UnsupportedObjectiveError(
            f"player {player}: objective {objective} is outside the solvable "
            "fragments; supply a deterministic parity automaton"
        )
    g = game_from_unfolded(u, {player})
    regions = solve_fragment(g, frag)
    return PunishRegions(win=regions.protagonist, punishment=regions.antagonist_strategy)


def _punish_region_dpa(u: UnfoldedArena, player: int, dpa: ParityAutomaton):
    # Product with the automaton, tracked on current-state labels; sink
    # product states get an odd priority so carefulness stays losing.
    start_states = [(s, q) for s in u.states for q in dpa.states]
    succ = {}
    for s, q in start_states:
        q2 = dpa_step(dpa, q, u.labels(s))
        succ[(s, q)] = tuple((t, q2) for t in u.succ[s])
    g = make_game(
        states=start_states,
        succ=succ,
        is_protagonist={(s, q): u.owner(s) == player for (s, q) in start_states},
        labels={(s, q): u.labels(s) for (s, q) in start_states},
    )
    priority = {
        (s, q): 1 if s is BOT else dpa.priority[q] for (s, q) in start_states
    }
    regions = solve_parity(g, priority)
    # Project to unfolded states, but only through automaton states that can
    # actually accompany the play there: a deviation at s carries the q
    # reached along some history from the initial state.
    reachable = {(u.initial, dpa.initial)}
    stack = [(u.initial, dpa.initial)]
    while stack:
        node = stack.pop()
        for nxt in succ[node]:
            if nxt not in reachable:
                reachable.add(nxt)
                stack.append(nxt)
    win = frozenset(
        s for (s, q) in regions.protagonist if (s, q) in reachable
    )
    # the strategy is keyed by (state, q) but the chosen move is just the
    # successor state; the next q is determined by the automaton
    return PunishRegions(
        win=win, punishment={k: v[0] for k, v in regions.antagonist_strategy.items()}
    )

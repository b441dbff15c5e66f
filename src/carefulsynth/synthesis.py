"""Deciding careful cooperative rational synthesis on bounded instances.

Pipeline: unfold the arena's product with the system objective's component
and every player's tracker (`unfolding.product`), once per solve. For each
winner set that the even mask of some cyclic SCC holds (SCCs found only
inside the product's SCCs where the system's priority can be even; see
`WitnessProduct`), search it for a lasso that the system's component and
every winner's tracker accept, avoiding the nodes a loser owns in its
punishment region, solved on the same unfolding, the loser's tracker one
of its components, when the player first loses. The lasso plus the
losers' tables, each cut to the nodes the loser's deviations reach, form
the certificate; `check_certificate` checks it without the game solver and
without building the unfolding, by an emptiness test per loser on the
graph its table leaves. It shares with the solver only the objective
trackers and the SCC kernel (README, step 4).
"""

import itertools
from collections import deque
from operator import contains
from typing import AbstractSet, Mapping, NamedTuple, Optional, Sequence

from . import ltl
from ._graphs import breadth_first, folded, ids_in_sccs_with, number, path_to
from ._graphs import shortest_path, strongly_connected_components
from .arena import Arena, Lasso, checked_bounds, validate_history
from .errors import (
    BudgetExceededError,
    DocumentSemanticError,
    MalformedProfileError,
    UnderflowError,
    UnsupportedObjectiveError,
    expect,
    load_json,
    member,
    natural,
)
from .unfolding import (
    BOT,
    DEFAULT_STATE_BUDGET,
    UState,
    UnfoldedArena,
    lift,
    parse_ustate,
    product,
    render_ustate,
    step,
    unfold,
)
from .zerosum import ParityAutomaton, Tracker, objective_tracker, punish_region


class StrategyProfile(NamedTuple):
    """Finite-memory equilibrium certificate: the on-path lasso plus one
    punishment table per player, activated at that player's first
    deviation. A table is keyed by the node (unfolded state, the player's
    tracker state after reading it, written by `str`) and names the
    successor the coalition takes there. It covers the nodes the player's
    deviations reach; a winner, with no reason to deviate, has none."""

    outcome: Lasso  # base-arena projection, with resource trace
    winners: frozenset[int]
    punishment: Mapping[int, Mapping]  # player -> (state, str(tracker state)) -> successor


class SolveResult(NamedTuple):
    status: str  # "solution" | "no-solution"
    profile: Optional[StrategyProfile] = None
    diagnostics: tuple[tuple[tuple[int, ...], str], ...] = ()
    # some reachable step of the unfolding saturated a resource; not part of
    # the certificate document
    clipped: bool = False

    SOLUTION = "solution"
    NO_SOLUTION = "no-solution"


# ---------------------------------------------------------------------------
# Witness search


REJECTED = ()  # the tableau automaton's run has stopped: no accepting state follows


def player_tracker(a: Arena, player: int, dpas: Mapping[int, ParityAutomaton]) -> Tracker:
    """`player`'s objective tracker, its automaton in `dpas` if given: the one
    refusal of an unsupported objective, naming the player, for both solve
    and check."""
    try:
        return objective_tracker(a.objective_of(player), dpas.get(player))
    except UnsupportedObjectiveError as e:
        raise UnsupportedObjectiveError(f"unsupported objective: player {player}: {e}") from None


def system_component(phi: ltl.Formula) -> Tracker:
    """The system objective as a product component whose `step` lists its
    states after a letter: a fragment objective's tracker, else its tableau
    automaton read from a pre-state, (the automaton's state before the
    letter, None for the initial ones; the letter as given), at priority 2
    when that state accepts; a run that cannot read a letter goes to
    REJECTED, at priority 1. The first letter leads to one state."""
    try:
        tracker = objective_tracker(phi)
    except UnsupportedObjectiveError:
        pass  # outside the fragments
    else:
        return tracker._replace(step=lambda q, x: [tracker.step(q, x)])
    nba = ltl.to_nba(phi)

    def step(q, letter):
        if q is None or q == REJECTED:
            return [(None, letter) if q is None else REJECTED]
        p, x = q
        read = [s for s in (nba.initial if p is None else (p,)) if nba.reads(s, x)]
        return [(d, letter) for d in sorted({d for s in read for d in nba.succ[s]})] or [REJECTED]

    return Tracker(None, step, lambda q: 2 if q and q[0] in nba.accepting else 1)


class WitnessProduct(NamedTuple):
    """The unfolded product of the arena with the system's component and
    the trackers, on its ids from the initial node, 0; the sink, last, has
    no priority and is in no SCC. An accepted lasso loops in one of `sccs`
    (forbidding nodes only splits SCCs) with an even top in the system's
    and each winner's component, so `solve` skips a winner set no mask
    holds and `find_witness_lasso` refines only the SCCs whose masks do.
    `sccs` has only those where the system can accept; `cyclic`, whether
    the product has any cycle but the sink's, only names a failure."""

    succ: list  # id -> its successor ids, in a deterministic order
    priority: list  # id -> each component's priority, the system's first
    sccs: list  # SCCs that hold a cycle, each a list of ids
    masks: list  # SCC index -> bit k set when a node has an even priority in component k
    scc_of: list  # id -> the index of its SCC in `sccs`, or -1
    cyclic: bool  # some cycle, the sink's aside


def witness_product(u: UnfoldedArena) -> WitnessProduct:
    """The witness search's view of `u`, the unfolded product of the arena
    with the system's component and the trackers; every winner set is
    searched on it. Each component is a parity condition on its states'
    priorities, and an SCC's mask is folded over its distinct product
    nodes. An SCC lies in one of the product's, its mask in that one's, so
    Tarjan runs only on the product SCCs whose mask has the system's bit;
    there a failed step is no edge."""
    graph, at, succ = u.graph, u.at, u.succ
    of = {qs: tuple(c.priority(q) for c, q in zip(graph.components, qs))
          for qs in dict.fromkeys(graph.qs)}  # read once per tuple of component states
    bits = {qs: sum(1 << k for k, x in enumerate(p) if x % 2 == 0) for qs, p in of.items()}
    even = list(map(bits.__getitem__, graph.qs))
    priority = list(map(list(map(of.__getitem__, graph.qs)).__getitem__, at))
    edges = [[x for x in out if x >= 0] for out in graph.succ] if graph.failures else graph.succ
    sccs = strongly_connected_components(ids_in_sccs_with(edges, even, 1, at), succ)
    masks = folded(sccs, at, even)
    cyclic = bool(sccs) or has_cycle(range(len(at)), succ)
    return WitnessProduct(succ, priority, sccs, masks, number(sccs, len(succ)), cyclic)


def has_cycle(nodes: Sequence[int], succ: Sequence[Sequence[int]]) -> bool:
    """Whether `succ` restricted to the ids `nodes` has a cycle: a self-loop, else Tarjan's."""
    return any(map(contains, map(succ.__getitem__, nodes), nodes)) or bool(
        strongly_connected_components(nodes, succ))


class NoWitness(Exception):
    """The witness search failed; the message names the cause."""


def find_witness_lasso(
    product: WitnessProduct,
    winners: Sequence[int],
    forbidden: AbstractSet,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Search `product`, without the node ids in `forbidden`, for a lasso that
    the system (component 0) and the players `winners` (player i is
    component i) accept: a cycle whose top priority in each of those
    components is even, decided by SCC refinement. Returns (stem, loop) over
    product node ids, deterministically minimized (shortest stem first, then
    a loop through one top-priority node per component). Raises NoWitness
    naming why none exists: the initial node is forbidden, the restricted
    product has no cycle (read off `product.cyclic`, or with forbidden nodes
    by `has_cycle` on the ids reached), or no SCC is accepting."""
    if 0 in forbidden:
        raise NoWitness("initial state forbidden")
    successors, prio = product.succ.__getitem__, product.priority
    components = (0, *winners)
    need = sum(1 << k for k in components)
    sccs, masks = product.sccs, product.masks
    if forbidden:
        seen = breadth_first(product.succ, forbidden)  # parent links, in the order found
        # each SCC of the restricted product lies in `seen` and in one of the product's
        scc_of = product.scc_of
        pending = strongly_connected_components(
            [v for v in seen if (j := scc_of[v]) >= 0 and masks[j] & need == need], product.succ)
    else:  # every node is reachable and allowed: start from the product's SCCs
        pending = [comp for comp, mask in zip(sccs, masks) if mask & need == need]
    cyclic = bool(pending)

    # a nontrivial SCC whose top priorities are all even is accepting; else
    # its nodes carrying an odd top lie on no accepting cycle, so drop them
    # and split the rest again
    accepting: dict = {}  # node -> (its accepting SCC, that SCC's tops per component)
    while pending:
        comp = pending.pop()
        top = tuple(map(max, zip(*(prio[node] for node in comp))))
        tops = [(k, top[k]) for k in components]
        odd = [(k, p) for k, p in tops if p % 2]
        if odd:
            rest = {n for n in comp if all(prio[n][k] != p for k, p in odd)}
            if rest:
                pending += strongly_connected_components(rest, product.succ)
            continue
        compset = set(comp)
        for node in comp:
            accepting[node] = (compset, tops)

    if not accepting:  # a cycle outside the admitted SCCs? The sink's, last, is none
        cyclic = cyclic or (has_cycle([v for v in seen if v < len(prio)], product.succ)
                            if forbidden else product.cyclic)
        raise NoWitness("no accepting SCC" if cyclic else "no cycle in the restricted product")

    stem_path = (path_to(seen, next(filter(accepting.__contains__, seen))) if forbidden
                 else shortest_path([0], successors, accepting.__contains__))
    anchor = stem_path[-1]
    comp, tops = accepting[anchor]

    # cycle through one top-priority node of every component, then home
    loop_nodes = [anchor]
    for k, top in tops:
        if any(prio[n][k] == top for n in loop_nodes):
            continue
        seg = shortest_path(
            loop_nodes[-1:], successors, lambda n: prio[n][k] == top, allowed=comp.__contains__
        )
        loop_nodes.extend(seg[1:])
    back = shortest_path(
        successors(loop_nodes[-1]), successors, lambda n: n == anchor, allowed=comp.__contains__
    )
    loop_nodes.extend(back[:-1])

    loop = tuple(loop_nodes)
    # plays are stem . loop^omega; keep the stem nonempty
    return tuple(stem_path[:-1]) or loop, loop


# ---------------------------------------------------------------------------
# Solving


def _winner_sets(n: int):
    """Every set of players, largest first, as a sorted tuple, generated as
    they are tried."""
    players = range(1, n + 1)
    for r in range(n, -1, -1):
        yield from itertools.combinations(players, r)


def outcome_lasso(u: UnfoldedArena, stem, loop) -> Lasso:
    """The lasso over unfolded-state ids as a base-arena lasso with its trace."""
    stem, loop = [u.states[k] for k in stem], [u.states[k] for k in loop]
    trace = tuple(c for _, c in stem + loop)
    return Lasso(stem=tuple(s for s, _ in stem), loop=tuple(s for s, _ in loop), trace=trace)


def _reached_entries(g: UnfoldedArena, player, region, path) -> dict:
    """The entries of `region`'s table that `player` reads, keyed as in
    certificates, once it leaves the outcome by a sink-free move and then
    moves freely: the nodes `_deviation_faults` explores, from the same
    starts, and a solve's only table lookups. `g` is the region's unfolded
    product, whose component `player` is the player's tracker, and `path`
    the outcome's ids in it over stem, loop and loop head. Nodes of one key
    may move apart, and it keeps the last one reached: `g` refines the
    one-tracker game, so its attractor layers and Zielonka subgames hold
    whole keys, and any node's move is a winning move for its key."""
    states, succ, owner, at, qs = g.states, g.succ, g.owner, g.at, g.graph.qs
    table = region.punishment
    stack = [t for j, nxt in zip(path, path[1:]) if owner[j] == player
             for t in succ[j] if t != nxt]
    seen, kept = {len(at)}, {}  # the sink's id, if there is one, as if seen
    while stack:
        j = stack.pop()
        if j in seen:
            continue
        seen.add(j)
        if owner[j] == player:
            stack += succ[j]
        else:  # outside the loser's region, so the table has the node
            t = table[j]
            kept[(states[j], str(qs[at[j]][player]))] = states[t]
            stack.append(t)
    return kept


def solve(
    a: Arena,
    bounds: Sequence[int],
    dpas: Optional[Mapping[int, ParityAutomaton]] = None,
) -> SolveResult:
    """Decide careful cooperative rational synthesis under capacity vector
    `bounds` and construct a certificate when a solution exists. Unbounded
    solving is refused by the type of `bounds` (the unbounded problem is
    undecidable; only lasso checking is offered there), and an objective
    outside the fragments with no automaton in `dpas` by an error."""
    dpas = dict(dpas or {})
    checked_bounds(a.dimensions, bounds)
    players = list(range(1, a.players + 1))
    trackers = [player_tracker(a, i, dpas) for i in players]
    u = unfold(product(a, trackers, system_component(a.system_objective)), bounds)
    witness = witness_product(u)
    regions, blocked = {}, {}  # by loser, each solved when it first loses
    pred: list = []  # the predecessor lists of `u.succ`, filled for the first Zielonka game
    steps: dict = {}  # each cost's pre-image steps, for every region

    diagnostics: list[tuple[tuple[int, ...], str]] = []
    pruned = "no accepting SCC" if witness.cyclic else "no cycle in the restricted product"
    masks = set(witness.masks)
    for winner_set in _winner_sets(a.players):
        need = sum(1 << i for i in winner_set) | 1  # the system is component 0
        if not any(m & need == need for m in masks):
            diagnostics.append((winner_set, pruned))
            continue
        for i in players:
            if i not in winner_set and i not in regions:
                # player i's tracker is component i of `u`, the system's 0
                r = regions[i] = punish_region(u, i, i, pred, steps)
                blocked[i] = {k for k in r.win if u.owner[k] == i}
        forbidden = set().union(*[blocked[i] for i in players if i not in winner_set])
        try:
            stem, loop = find_witness_lasso(witness, winner_set, forbidden)
        except NoWitness as e:
            diagnostics.append((winner_set, str(e)))
            continue
        outcome = outcome_lasso(u, stem, loop)
        winners = frozenset(
            i for i in players if max(witness.priority[n][i] for n in loop) % 2 == 0
        )
        path = (*stem, *loop, loop[0])
        punishment = {
            i: {} if i in winners else _reached_entries(u, i, regions[i], path)
            for i in players
        }
        profile = StrategyProfile(outcome, winners, punishment)
        return SolveResult(SolveResult.SOLUTION, profile=profile, clipped=u.clipped)
    return SolveResult(
        SolveResult.NO_SOLUTION, diagnostics=tuple(diagnostics), clipped=u.clipped
    )


# ---------------------------------------------------------------------------
# Certificate checking


def check_certificate(
    a: Arena,
    bounds: Sequence[int],
    profile: StrategyProfile,
    dpas: Optional[Mapping[int, ParityAutomaton]] = None,
    max_states: int = DEFAULT_STATE_BUDGET,
) -> list[str]:
    """Check every clause of the solution definition against the arena
    alone: the outcome replays in the unfolding, meets the system objective
    and names its winners; every punishment entry is an edge out of a state
    reachable from the initial one; and no loser has a careful profitable
    deviation against the others following its table, decided exactly by
    an emptiness check on a one-player graph, so a table needs entries only
    where a deviation reaches, as `solve` writes it. The unfolding is never
    built: a state is stepped when a deviation or the search for a table
    entry's state first reads its successors, and BudgetExceededError is
    raised before more than `max_states` states are stepped. Returns a list
    of violations; empty means the certificate is valid."""
    dpas = dict(dpas or {})
    violations: list[str] = []
    u = _SteppedUnfolding(a, checked_bounds(a.dimensions, bounds), max_states)
    players = range(1, a.players + 1)
    trackers = [player_tracker(a, i, dpas) for i in players]

    try:
        stem, loop = _replay(u, profile.outcome)
    except MalformedProfileError as e:
        return [str(e)]

    stem_labels = [a.labels[s] for s, _ in stem]
    loop_labels = [a.labels[s] for s, _ in loop]
    if not ltl.eval_on_lasso(a.system_objective, stem_labels, loop_labels, atoms=a.atoms):
        violations.append("outcome does not satisfy the system objective")

    for what, named in [("winner", profile.winners), ("punishment table of", profile.punishment)]:
        violations += [f"{what} {i}: not a player" for i in sorted(named) if i not in players]
    for i, tracker in zip(players, trackers):
        if i in dpas:
            satisfied = tracker_accepts(tracker, stem_labels, loop_labels)
        else:
            satisfied = ltl.eval_on_lasso(
                a.objective_of(i), stem_labels, loop_labels, atoms=a.atoms
            )
        if satisfied != (i in profile.winners):
            violations.append(
                f"player {i}: declared {'winner' if i in profile.winners else 'loser'}, "
                f"outcome says otherwise"
            )
        table = profile.punishment.get(i)
        if table is None:
            violations.append(f"player {i}: missing punishment table")
            continue
        for key, value in table.items():
            s = key[0]
            if not u.reachable(s) or value not in u.successors(s):
                violations.append(
                    f"player {i}: punishment entry {key!r} -> {value!r} is not an edge"
                )
                break
        if not satisfied:
            violations.extend(_deviation_faults(u, i, tracker, table, stem, loop))
    return violations


def run_lasso(tracker: Tracker, stem: Sequence, loop: Sequence) -> tuple[list, int]:
    """Run `tracker` over the letters stem . loop^k until its state at the
    loop head repeats. Returns the state after each visited position's
    letter and the index where the settled cycle starts."""
    q = tracker.initial
    qs = []
    for letter in stem:
        q = tracker.step(q, letter)
        qs.append(q)
    heads: dict = {}
    while q not in heads:
        heads[q] = len(qs)
        for letter in loop:
            q = tracker.step(q, letter)
            qs.append(q)
    return qs, heads[q]


def tracker_accepts(tracker: Tracker, stem: Sequence, loop: Sequence) -> bool:
    qs, cycle = run_lasso(tracker, stem, loop)
    return max(map(tracker.priority, qs[cycle:])) % 2 == 0


class _SteppedUnfolding:
    """The unfolding as the checker reads it: a state is stepped the first
    time its successors are read, and the search for states reachable from
    the initial one runs only as far as a query needs, resuming where it
    stopped. At most `max_states` states are stepped, all of them in the
    unfolding."""

    def __init__(self, a: Arena, bounds: tuple[int, ...], max_states: int):
        self.base, self.bounds, self.max_states = a, bounds, max_states
        self.initial = (a.initial, (0,) * a.dimensions)
        self.stepped: dict = {}
        self.reached = {self.initial}
        self.frontier = deque([self.initial])

    def successors(self, us: UState) -> tuple[UState, ...]:
        out = self.stepped.get(us)
        if out is None:
            if len(self.stepped) >= self.max_states:
                raise BudgetExceededError(
                    f"unfolding exceeds the state budget of {self.max_states}"
                )
            out = self.stepped[us] = step(self.base, self.bounds, us)
        return out

    def reachable(self, us) -> bool:
        while us not in self.reached and self.frontier:
            for t in self.successors(self.frontier.popleft()):
                if t not in self.reached:
                    self.reached.add(t)
                    self.frontier.append(t)
        return us in self.reached


def _replay(u: _SteppedUnfolding, outcome: Lasso) -> tuple[tuple, tuple]:
    """Lift stem + loop + the loop's head into the unfolding and verify lasso
    shape, sink-freeness, resource stability and the cached trace."""
    stem, loop = list(outcome.stem), list(outcome.loop)
    if not stem or not loop:
        raise MalformedProfileError("outcome stem and loop must be nonempty")
    path = stem + loop + loop[:1]
    try:
        validate_history(u.base, path)
        ustates = lift(u.base, u.bounds, path)
    except UnderflowError as e:
        raise MalformedProfileError(f"outcome depletes a resource: {e}") from None
    except DocumentSemanticError as e:
        raise MalformedProfileError(f"outcome is not a lasso in the arena: {e}") from None
    head, n = len(stem), len(stem) + len(loop)
    if ustates[head] != ustates[n]:
        raise MalformedProfileError(
            "loop is not resource-stable: repeating it changes the resource vector"
        )
    if outcome.trace is not None and tuple(outcome.trace) != tuple(c for _, c in ustates[:n]):
        raise MalformedProfileError("cached resource trace does not match recomputation")
    return tuple(ustates[:head]), tuple(ustates[head:n])


def _deviation_faults(u: _SteppedUnfolding, player, tracker, table, stem, loop) -> list[str]:
    """Explore the nodes (unfolded state, tracker state after reading it)
    from every way `player` can leave the outcome: it takes any sink-free
    successor at its own states, the coalition follows `table` at the node,
    its tracker state written by `str`. A reachable cycle whose top
    priority is even is a careful profitable deviation."""
    owner, labels = u.base.owner, u.base.labels
    qs, _ = run_lasso(tracker, [labels[s] for s, _ in stem], [labels[s] for s, _ in loop])
    path = stem + loop * (len(qs) // len(loop) + 1)  # long enough to index k + 1
    origin: dict = {}  # node -> the outcome position its deviation left from
    for k, q in enumerate(qs):
        if owner[path[k][0]] == player:
            for t in u.successors(path[k]):
                if t is not BOT and t != path[k + 1]:
                    origin.setdefault((t, tracker.step(q, labels[t[0]])), path[k])

    succ: dict = {}
    stack = list(origin)
    while stack:
        node = stack.pop()
        s, q = node
        moves = u.successors(s)
        if owner[s[0]] != player:
            t = table.get((s, str(q)))
            if t not in moves:
                return [
                    f"player {player}: a deviation from {render_ustate(origin[node])} "
                    f"reaches {render_ustate(s)}, where the punishment table has no edge"
                ]
            moves = (t,)
        succ[node] = [(t, tracker.step(q, labels[t[0]])) for t in moves if t is not BOT]
        for nxt in succ[node]:
            if nxt not in origin:
                origin[nxt] = origin[node]
                stack.append(nxt)

    nodes = list(succ)  # numbered in the order found, for the SCC kernel
    priority = [tracker.priority(q) for _, q in nodes]
    evens = sorted({x for x in priority if x % 2 == 0})
    if evens:
        ids = {node: j for j, node in enumerate(nodes)}
        lists = [[ids[t] for t in succ[node]] for node in nodes]
    for p in evens:
        low = [j for j, x in enumerate(priority) if x <= p]
        won = {
            j
            for comp in strongly_connected_components(low, lists)
            if any(priority[x] == p for x in comp)
            for j in comp
        }
        if won:  # name the first found, independent of set order
            return [
                f"player {player}: careful profitable deviation from "
                f"{render_ustate(origin[nodes[min(won)]])}"
            ]
    return []


# ---------------------------------------------------------------------------
# Documents


def _render_key(key) -> str:
    s, q = key
    return f"{render_ustate(s)}|{q}"


def profile_to_document(profile: StrategyProfile) -> dict:
    return {
        "outcome": {
            "stem": list(profile.outcome.stem),
            "loop": list(profile.outcome.loop),
            "trace": [list(v) for v in profile.outcome.trace],
        },
        "winners": sorted(profile.winners),
        "punishment": {
            str(i): {
                _render_key(k): render_ustate(v)
                for k, v in sorted(table.items(), key=lambda kv: _render_key(kv[0]))
            }
            for i, table in sorted(profile.punishment.items())
        },
    }


def result_to_document(result: SolveResult) -> dict:
    doc: dict = {"status": result.status}
    if result.profile is not None:
        doc.update(profile_to_document(result.profile))
    if result.diagnostics:
        doc["diagnostics"] = [
            {"winners": list(w), "reason": r} for (w, r) in result.diagnostics
        ]
    return doc


def parse_profile(text: str) -> StrategyProfile:
    doc = expect(load_json(text), dict, "profile document")
    if member(doc, "status", str, "status", "solution") != "solution":
        raise DocumentSemanticError("a certificate's status must be 'solution'")
    member(doc, "bounds", [int], "bounds", None)  # read, though --bounds decides
    outcome = member(doc, "outcome", dict, "outcome")
    stem = tuple(member(outcome, "stem", [str], "outcome stem"))
    loop = tuple(member(outcome, "loop", [str], "outcome loop"))
    trace = tuple(map(tuple, member(outcome, "trace", [[int]], "outcome trace")))
    winners = frozenset(member(doc, "winners", [int], "winners"))
    punishment = {}
    for i_str, table in member(doc, "punishment", dict, "punishment", {}).items():
        i = natural(i_str, "a punishment key")  # "03" or "٣" would name player 3 again
        entries = {}
        for k, v in expect(table, dict, f"punishment table of {i_str}").items():
            state, _, q = k.rpartition("|")
            entries[(parse_ustate(state), q)] = parse_ustate(expect(v, str, "punishment entry"))
        punishment[i] = entries
    return StrategyProfile(
        outcome=Lasso(stem=stem, loop=loop, trace=trace),
        winners=winners,
        punishment=punishment,
    )

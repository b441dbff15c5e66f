"""Deciding careful cooperative rational synthesis on bounded instances.

Pipeline: unfold the arena's product with the system objective's component
and every player's tracker (`unfolding.product`); a product with one node
per arena state takes the arena's unfolding, shared by every such product.
For each winner set that the even mask of some cyclic SCC holds (SCCs found
only inside the product's SCCs where the system's priority can be even; see
`WitnessProduct`), search it for a lasso that the system's component and
every winner's tracker accept, avoiding the nodes where a loser owns the
state and its punishment region, solved on the unfolded product with its
tracker when it first loses, holds the same state, credit and tracker
state. The lasso plus the losers' tables, each cut to the nodes the loser's
deviations reach, form the certificate; `check_certificate` checks it
without the game solver and without building the unfolding, by an emptiness
test per loser on the graph its table leaves. It shares with the solver
only the objective trackers and the SCC kernel (README, step 4).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import AbstractSet, Mapping, NamedTuple, Optional, Sequence

from . import ltl
from ._graphs import breadth_first, folded, ids_in_sccs_with, number, path_to, restricted
from ._graphs import shortest_path, strongly_connected_components
from .arena import Arena, Lasso, RESERVED_ATOM, validate_history
from .errors import (
    BudgetExceededError,
    DocumentSemanticError,
    MalformedProfileError,
    UnderflowError,
    UnsupportedObjectiveError,
    expect,
    load_json,
    member,
)
from .unfolding import (
    BOT,
    DEFAULT_STATE_BUDGET,
    Product,
    UState,
    UnfoldedArena,
    checked_bounds,
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
    status: str  # "solution" | "no-solution" | "unsupported"
    profile: Optional[StrategyProfile] = None
    diagnostics: tuple[tuple[tuple[int, ...], str], ...] = ()
    reason: Optional[str] = None
    # some reachable step of the unfolding saturated a resource; not part of
    # the certificate document
    clipped: bool = False

    SOLUTION = "solution"
    NO_SOLUTION = "no-solution"
    UNSUPPORTED = "unsupported"


# ---------------------------------------------------------------------------
# Witness search


REJECTED = ()  # the tableau automaton's run has stopped: no accepting state follows


def system_component(phi: ltl.Formula) -> Tracker:
    """The system objective as a product component whose `step` lists its
    states after a letter: a fragment objective's tracker, else its tableau
    automaton read from a pre-state, (the automaton's state before the
    letter, None for the initial ones; the letter, sorted), at priority 2
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
        word = tuple(sorted(letter))
        if q is None or q == REJECTED:
            return [(None, word) if q is None else REJECTED]
        p, x = q[0], frozenset(q[1])
        trs = [tr for s in (nba.initial if p is None else (p,)) for tr in nba.transitions[s]]
        return [(d, word) for d in sorted({tr.dst for tr in trs if ltl.guard_matches(tr, x)})
                ] or [REJECTED]

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
    Tarjan runs only on the product SCCs whose mask has the system's bit."""
    graph, at, succ = u.graph, u.at, u.succ
    of = {qs: tuple(c.priority(q) for c, q in zip(graph.components, qs))
          for qs in dict.fromkeys(graph.qs)}  # read once per tuple of component states
    bits = {qs: sum(1 << k for k, x in enumerate(p) if x % 2 == 0) for qs, p in of.items()}
    even = list(map(bits.__getitem__, graph.qs))
    priority = list(map(list(map(of.__getitem__, graph.qs)).__getitem__, at))
    sccs = strongly_connected_components(ids_in_sccs_with(graph.succ, even, 1, at), succ)
    masks = folded(sccs, at, even)
    cyclic = bool(sccs or strongly_connected_components(range(len(at)), succ))
    return WitnessProduct(succ, priority, sccs, masks, number(sccs, len(succ)), cyclic)


class NoWitness(Exception):
    """The witness search failed; the message names the cause."""


def find_witness_lasso(
    product: WitnessProduct,
    winners: Sequence[int],
    forbidden: AbstractSet,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Search `product`, without the node ids in `forbidden`, for a lasso that
    the system's component and the trackers at positions `winners` accept:
    a cycle whose top priority in each of those components is even, decided
    by SCC refinement. Returns (stem, loop) over product node ids,
    deterministically minimized (shortest stem first, then a loop through
    one top-priority node per component). Raises NoWitness naming why
    none exists: the initial node is forbidden, the restricted product
    has no cycle (read off `product.cyclic`, or with forbidden nodes
    off the ids reached), or no SCC is accepting."""
    if 0 in forbidden:
        raise NoWitness("initial state forbidden")
    successors, prio = product.succ.__getitem__, product.priority
    components = (0, *(k + 1 for k in winners))
    need = sum(1 << k for k in components)
    sccs, masks = product.sccs, product.masks
    if forbidden:
        seen = breadth_first(product.succ, forbidden)  # parent links, in the order found
        # each SCC of the restricted product lies in `seen` and in one of the product's
        pending = restricted(seen, sccs, product.scc_of, product.succ,
                             lambda j: masks[j] & need == need)
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

    if not accepting:
        if not cyclic:  # a cycle outside the admitted SCCs? The sink's, last, is none
            cyclic = bool(strongly_connected_components(
                [v for v in seen if v < len(prio)], product.succ) if forbidden else product.cyclic)
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


def _game_ids(w: UnfoldedArena, g: UnfoldedArena, i: int) -> Sequence[int]:
    """The id in `g`, player i's game, of each node of `w`, the witness
    product's unfolding: the node at its state and credit with its state of
    i's tracker, component i. Both on the arena's unfolding, it is itself."""
    if g.succ is w.succ:
        return range(len(w.states))
    of = {(s, qs): p for p, (s, qs) in enumerate(zip(g.graph.state, g.graph.qs))}
    to = [of[(s, (qs[i],))] for s, qs in zip(w.graph.state, w.graph.qs)]
    node = {(p, c): j for j, (p, (_, c)) in enumerate(zip(g.at, g.states))}
    return [node[(to[p], c)] for p, (_, c) in zip(w.at, w.states)]


def _reached_entries(g: UnfoldedArena, player, region, path) -> dict:
    """The entries of `region`'s table that `player` reads, keyed as in
    certificates, once it leaves the outcome by a sink-free move and then
    moves freely: the nodes `_deviation_faults` explores, from the same
    starts, and a solve's only table lookups. `g` is the player's game,
    whose nodes carry its tracker state, and `path` the outcome's ids in it
    over stem, loop and loop head."""
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
            kept[(states[j], str(qs[at[j]][0]))] = states[t]
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
    undecidable; only lasso checking is offered there)."""
    dpas = dict(dpas or {})
    checked_bounds(a, bounds)
    players = list(range(1, a.players + 1))
    trackers = {}
    for i in players:
        try:
            trackers[i] = objective_tracker(a.objective_of(i), dpas.get(i))
        except UnsupportedObjectiveError as e:
            return SolveResult(SolveResult.UNSUPPORTED, reason=f"player {i}: {e}")
    shared: list = []  # the unfolding of the first product that is the arena's reachable part

    def unfolded(p: Product) -> UnfoldedArena:
        if not p.is_arena:
            return unfold(p, bounds)
        if not shared:
            shared.append(unfold(p, bounds))
        return shared[0]._replace(graph=p)

    u = unfolded(product(a, [trackers[i] for i in players], system_component(a.system_objective)))
    witness = witness_product(u)
    owner, size = u.owner, len(u.at)
    games, ids, regions, blocked = {}, {}, {}, {}  # by loser, each solved when it first loses
    preds: dict = {}  # id of a game's successor lists -> their predecessor lists

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
                g = games[i] = unfolded(product(a, [trackers[i]]))
                r = regions[i] = punish_region(g, i, preds.setdefault(id(g.succ), []))
                to = ids[i] = _game_ids(u, g, i)
                blocked[i] = ({k for k in r.win if owner[k] == i} if g.succ is u.succ  # same ids
                              else {k for k in range(size) if owner[k] == i and to[k] in r.win})
        forbidden = set().union(*[blocked[i] for i in players if i not in winner_set])
        try:
            stem, loop = find_witness_lasso(witness, [i - 1 for i in winner_set], forbidden)
        except NoWitness as e:
            diagnostics.append((winner_set, str(e)))
            continue
        outcome = outcome_lasso(u, stem, loop)
        winners = frozenset(
            i for i in players if max(witness.priority[n][i] for n in loop) % 2 == 0
        )
        path = (*stem, *loop, loop[0])
        punishment = {
            i: {} if i in winners else _reached_entries(
                games[i], i, regions[i], [ids[i][n] for n in path]
            )
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
    u = _SteppedUnfolding(a, checked_bounds(a, bounds), max_states)

    try:
        stem, loop = _replay(u, profile.outcome)
    except MalformedProfileError as e:
        return [str(e)]

    stem_labels = [a.labels[s] for s, _ in stem]
    loop_labels = [a.labels[s] for s, _ in loop]
    atoms = a.atoms | {RESERVED_ATOM}
    if not ltl.eval_on_lasso(a.system_objective, stem_labels, loop_labels, atoms=atoms):
        violations.append("outcome does not satisfy the system objective")

    players = range(1, a.players + 1)
    for what, named in [("winner", profile.winners), ("punishment table of", profile.punishment)]:
        violations += [f"{what} {i}: not a player" for i in sorted(named) if i not in players]
    for i in players:
        tracker = objective_tracker(a.objective_of(i), dpas.get(i))
        if i in dpas:
            satisfied = tracker_accepts(tracker, stem_labels, loop_labels)
        else:
            satisfied = ltl.eval_on_lasso(
                a.objective_of(i), stem_labels, loop_labels, atoms=atoms
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
    if result.reason:
        doc["reason"] = result.reason
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
        # a player is keyed only as str(i), of at most 640 digits, which int()
        # reads under any limit: "03" or "٣" would name player 3 a second time
        if not (len(i_str) <= 640 and i_str.isascii() and i_str.isdecimal()
                and str(int(i_str)) == i_str):
            raise DocumentSemanticError(
                f"punishment keys must be players written as in str(i), got {i_str!r}"
            )
        entries = {}
        for k, v in expect(table, dict, f"punishment table of {i_str}").items():
            state, _, q = k.rpartition("|")
            entries[(parse_ustate(state), q)] = parse_ustate(expect(v, str, "punishment entry"))
        punishment[int(i_str)] = entries
    return StrategyProfile(
        outcome=Lasso(stem=stem, loop=loop, trace=trace),
        winners=winners,
        punishment=punishment,
    )

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
the certificate, which `certificate.check_certificate` checks without the
game solver and without building the unfolding (README, step 4).
"""

from collections import deque
from functools import reduce
from itertools import combinations, compress
from operator import contains, or_
from typing import AbstractSet, Callable, Collection, Hashable, Iterable, Mapping, NamedTuple
from typing import Optional, Sequence

from . import ltl
from ._graphs import path_to, strongly_connected_components
from .arena import Arena, Lasso, checked_bounds
from .certificate import ParityAutomaton, StrategyProfile, Tracker, objective_tracker
from .certificate import player_tracker, profile_to_document
# passed on: `cli` calls the checker here, where the benchmark's tracer wraps it
from .certificate import check_certificate
from .errors import UnsupportedObjectiveError
from .unfolding import UnfoldedArena, product, unfold
from .zerosum import punish_region


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
# The witness search's graph passes


def ids_in_sccs_with(
    succ: Sequence[Sequence[int]], bits: Sequence[int], bit: int, at: Sequence[int]
) -> Sequence[int]:
    """The ids k whose node at[k] of the graph `succ` lies in a strongly
    connected component with a cycle and a node whose `bits` have `bit`
    set, in increasing order, or every id when every node has it set.
    Either way the ids form a union of the SCCs of a graph on the ids whose
    edges `at` maps onto edges of `succ`."""
    if all(b & bit for b in bits):
        return range(len(at))
    keep = [False] * len(succ)
    for comp in strongly_connected_components(range(len(succ)), succ):
        if any(bits[v] & bit for v in comp):
            for v in comp:
                keep[v] = True
    return list(compress(range(len(at)), map(keep.__getitem__, at)))


def folded(comps: Iterable[Sequence[int]], at: Sequence[int], bits: Sequence[int]) -> list[int]:
    """For each component, the `bits` of the images under `at` of its
    nodes or-ed together, each distinct image read once."""
    return [bits[at[comp[0]]] if len(comp) == 1
            else reduce(or_, map(bits.__getitem__, set(map(at.__getitem__, comp))))
            for comp in comps]


def number(comps: Sequence[Sequence[int]], size: int) -> list[int]:
    """A list over the ids below `size`: the index in `comps` of the
    component that holds each, -1 outside them."""
    index = [-1] * size
    for j, comp in enumerate(comps):
        for v in comp:
            index[v] = j
    return index


def breadth_first(succ: Sequence[Sequence[int]], avoid: Collection[int]) -> dict:
    """A breadth-first search of the graph `succ` from node 0, which is not
    in `avoid`, that never enters `avoid`: each node it finds -> the node it
    was first found from (None at 0), in the order found."""
    parent: dict = {0: None}
    order = [0]
    for v in order:  # the list grows while it is read
        for w in succ[v]:
            if w not in parent and w not in avoid:
                parent[w] = v
                order.append(w)
    return parent


def shortest_path(
    sources: Iterable[Hashable],
    successors: Callable[[Hashable], Iterable[Hashable]],
    is_target: Callable[[Hashable], bool],
    allowed: Optional[Callable[[Hashable], bool]] = None,
) -> Optional[list[Hashable]]:
    """BFS shortest path from any source to any target, inclusive of both
    endpoints. Deterministic given deterministic successor order."""
    parent: dict[Hashable, Optional[Hashable]] = {}
    queue: deque = deque()
    for s in sources:
        if allowed is not None and not allowed(s):
            continue
        if s not in parent:
            parent[s] = None
            queue.append(s)
    while queue:
        v = queue.popleft()
        if is_target(v):
            return path_to(parent, v)
        for w in successors(v):
            if allowed is not None and not allowed(w):
                continue
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return None


# ---------------------------------------------------------------------------
# Solving


def _winner_sets(n: int):
    """Every set of players, largest first, as a sorted tuple, generated as
    they are tried."""
    players = range(1, n + 1)
    for r in range(n, -1, -1):
        yield from combinations(players, r)


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
# Documents


def result_to_document(result: SolveResult) -> dict:
    doc: dict = {"status": result.status}
    if result.profile is not None:
        doc.update(profile_to_document(result.profile))
    if result.diagnostics:
        doc["diagnostics"] = [
            {"winners": list(w), "reason": r} for (w, r) in result.diagnostics
        ]
    return doc



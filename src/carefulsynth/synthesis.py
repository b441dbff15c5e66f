"""Deciding careful cooperative rational synthesis on bounded instances.

Pipeline: unfold the arena, build each player's objective tracker, and
build once the product of the sink-free unfolding with the system
objective's tracker (its tableau automaton outside the fragments) and every
player's tracker, each read after a state's letter; when every tracker is
closed on the arena's edges (`zerosum.closed`) that product is the
sink-free unfolding. For each candidate winner set that the even mask of
some cyclic SCC of the product holds (see `WitnessProduct`), search that
product for a lasso that the system's component and every winner's tracker
accept, without the nodes where a loser owns the state and its punishment
region holds (state id, its tracker state). A player's region is solved
when it first loses in a searched set, since only a loser has a reason to
deviate. The winners and the tracker states along a found lasso are read
off its product nodes. The lasso plus the losers' punishment tables, each
cut to the nodes the loser's deviations reach, form the equilibrium
certificate; `check_certificate` checks it without the game solver and
without building the unfolding, by an emptiness test per loser on the graph
its table leaves. It shares with the solver only the objective trackers and
the SCC kernel (README, step 4).
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from functools import reduce
from typing import AbstractSet, Mapping, NamedTuple, Optional, Sequence

from . import ltl
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
    UState,
    UnfoldedArena,
    checked_bounds,
    lift,
    parse_ustate,
    render_ustate,
    step,
    unfold,
)
from .zerosum import ParityAutomaton, Tracker, closed, objective_tracker, punish_region

DEFAULT_PRODUCT_BUDGET = 10**7


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


def system_component(phi: ltl.Formula) -> Tracker:
    """The system objective as a witness-product component whose `step`
    lists its states after a letter: a fragment objective's tracker, else
    its tableau automaton read from the pre-state None, accepting states at
    priority 2 and the rest at 1 (the only path for general LTL)."""
    if ltl.classify_fragment(phi).kind != ltl.FragmentClass.GENERAL:
        tracker = objective_tracker(phi)
        return tracker._replace(step=lambda q, x: [tracker.step(q, x)])
    nba = ltl.to_nba(phi)

    def step(q, letter):
        trs = [tr for p in (nba.initial if q is None else (q,)) for tr in nba.transitions[p]]
        return sorted({tr.dst for tr in trs if ltl.guard_matches(tr, letter)})

    return Tracker(None, step, lambda q: 2 if q in nba.accepting else 1)


class WitnessProduct(NamedTuple):
    """The reachable, sink-free part of the unfolding in product with the
    system's component and a list of trackers. A node is (the id of an
    unfolded state, each component's state after reading the state's
    letter, the system's first); node k is unfolded state k when every
    component is closed on the arena's edges (`is_unfolding`), else nodes
    are numbered breadth-first from the initial ones. An accepted lasso loops in one of
    `sccs` (forbidding nodes only splits SCCs) with an even top in the
    system's and each winner's component, so `solve` skips a winner set
    that no mask holds, and `find_witness_lasso` refines only the SCCs
    whose mask holds it."""

    nodes: list  # id -> node
    initials: list  # ids
    succ: list  # id -> its successor ids, in a deterministic order
    priority: list  # id -> each component's priority, the system's first
    sccs: list  # the SCCs that hold a cycle, each a list of ids
    masks: list  # SCC index -> bit k set when a node has an even priority in component k
    scc_of: list  # id -> the index of its SCC in `sccs`, or -1 on no cycle
    is_unfolding: bool


def witness_product(
    u: UnfoldedArena,
    system: Tracker,
    trackers: Sequence[Tracker],
    max_product: int = DEFAULT_PRODUCT_BUDGET,
) -> WitnessProduct:
    """Build the product once; every winner set is searched on it. Each
    component is a parity condition on its states' priorities; the system's
    `step` lists its states after a letter (see `system_component`). When
    every component is closed on the arena's edges, the product is the
    sink-free unfolding, its lists `u.succ`'s without the sink. Otherwise
    the tuples of component states are interned, and each transition is
    computed once per (tuple, letter) as a list of the tuples' indices;
    a node is keyed by its tuple's index times |U| plus its unfolded state's
    id while the product is built, so each edge costs one integer lookup."""
    labels, u_succ, n = u.labels, u.succ, len(u.states)
    sink = n - 1 if u.states[-1] is BOT else -1  # the search never enters the sink
    letter_of = {x: k for k, x in enumerate(dict.fromkeys(labels))}
    letter = [letter_of[x] for x in labels]
    letters = list(letter_of)
    # a fragment system component lists the one state of its tracker
    single = system._replace(step=lambda q, x: system.step(q, x)[0])
    is_unfolding = all(closed(u.base, t, False) for t in (*trackers, single))
    if is_unfolding:
        size = n - (sink >= 0)
        if size > max_product:
            raise BudgetExceededError(f"synchronous product exceeds the budget of {max_product}")
        qstates = [(single.step(single.initial, x), *[t.step(t.initial, x) for t in trackers])
                   for x in letters]
        state, where = range(size), letter[:size]
        initials = [u.initial]
        succ = [out[:-1] if sink in out else out for out in u_succ[:size]]  # the sink is last
    else:
        qids: dict = {}  # component states, the system's first -> their index
        qstates: list = []  # index -> component states
        table: list = []  # index -> letter id -> the indices after it, times n, or None

        def intern(qs) -> int:
            j = qids.get(qs)
            if j is None:
                j = qids[qs] = len(qstates)
                qstates.append(qs)
                table.append([None] * len(letters))
            return j

        def after(j, x) -> list:
            qs, letter = qstates[j], letters[x]
            rest = [t.step(q, letter) for t, q in zip(trackers, qs[1:])]
            table[j][x] = offsets = [intern((q, *rest)) * n for q in system.step(qs[0], letter)]
            return offsets

        start = intern((system.initial, *[t.initial for t in trackers]))
        keys = [offset + u.initial for offset in after(start, letter[u.initial])]
        initials = list(range(len(keys)))
        ids = {key: k for k, key in enumerate(keys)}
        succ = []
        for key in keys:  # breadth-first: the list grows while it is read
            j, s = divmod(key, n)
            row = table[j]
            out = []
            for t in u_succ[s]:
                if t != sink:
                    offsets = row[letter[t]]
                    if offsets is None:
                        offsets = after(j, letter[t])
                    for offset in offsets:
                        nxt = offset + t
                        k = ids.get(nxt)
                        if k is None:
                            if len(keys) >= max_product:
                                raise BudgetExceededError(
                                    f"synchronous product exceeds the budget of {max_product}"
                                )
                            k = ids[nxt] = len(keys)
                            keys.append(nxt)
                        out.append(k)
            succ.append(out)
        state, where = [key % n for key in keys], [key // n for key in keys]
        del keys, ids  # the build's keys are not needed by the SCC pass
    prio = [(system.priority(qs[0]), *[t.priority(q) for t, q in zip(trackers, qs[1:])])
            for qs in qstates]
    even = [sum(1 << k for k, x in enumerate(p) if x % 2 == 0) for p in prio]
    nodes = [(s, qstates[j]) for s, j in zip(state, where)]
    priority = [prio[j] for j in where]
    sccs = strongly_connected_components(range(len(nodes)), succ)
    # an SCC's mask is read off its distinct `where` indices, letters on the closed path
    masks = [even[where[comp[0]]] if len(comp) == 1
             else reduce(int.__or__, map(even.__getitem__, set(map(where.__getitem__, comp))))
             for comp in sccs]
    scc_of = [-1] * len(nodes)
    for j, comp in enumerate(sccs):
        for v in comp:
            scc_of[v] = j
    return WitnessProduct(nodes, initials, succ, priority, sccs, masks, scc_of, is_unfolding)


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
    none exists: every initial node is forbidden, the restricted product
    has no cycle (or no node at all), or no SCC is accepting."""
    initials = [n for n in product.initials if n not in forbidden]
    if product.initials and not initials:
        raise NoWitness("initial state forbidden")
    successors, prio = product.succ.__getitem__, product.priority
    components = (0, *(k + 1 for k in winners))
    need = sum(1 << k for k in components)
    sccs, masks = product.sccs, product.masks
    if forbidden:
        seen, stack = set(initials), list(initials)
        while stack:
            for nxt in successors(stack.pop()):
                if nxt not in seen and nxt not in forbidden:
                    seen.add(nxt)
                    stack.append(nxt)
        # every SCC of the restricted product lies in `seen`, whose nodes are
        # all allowed, and in one SCC of the product: a product SCC inside
        # `seen` stays whole, the nodes in `seen` of the others are split
        # again, in one pass for the SCCs whose mask holds `need` (the
        # pending ones) and, only if those hold no cycle, one for the rest
        whole, split = ([], []), ([], [])  # each (mask fails, mask holds)
        for j, count in Counter(map(product.scc_of.__getitem__, seen)).items():
            if j >= 0:
                held = masks[j] & need == need
                (whole if count == len(sccs[j]) else split)[held].append(sccs[j])

        def resplit(comps):
            return strongly_connected_components(
                [n for comp in comps for n in comp if n in seen], product.succ
            )

        allowed = seen.__contains__
        pending = whole[1] + resplit(split[1]) if split[1] else whole[1]
        cyclic = bool(pending or whole[0] or split[0] and resplit(split[0]))
    else:  # every node is reachable and allowed: start from the product's SCCs
        allowed, cyclic = None, bool(sccs)
        pending = [comp for comp, mask in zip(sccs, masks) if mask & need == need]

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
        raise NoWitness("no accepting SCC" if cyclic else "no cycle in the restricted product")

    stem_path = shortest_path(initials, successors, accepting.__contains__, allowed=allowed)
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
    """Every set of players, largest first, generated as they are tried."""
    players = range(1, n + 1)
    for r in range(n, -1, -1):
        yield from map(frozenset, itertools.combinations(players, r))


def outcome_lasso(u: UnfoldedArena, stem, loop) -> Lasso:
    """The lasso over unfolded-state ids as a base-arena lasso with its trace."""
    stem, loop = [u.states[k] for k in stem], [u.states[k] for k in loop]
    trace = tuple(c for _, c in stem + loop)
    return Lasso(stem=tuple(s for s, _ in stem), loop=tuple(s for s, _ in loop), trace=trace)


def _reached_entries(u: UnfoldedArena, player, tracker, region, path) -> dict:
    """The entries of `region`'s table that `player` reads, keyed as in
    certificates, once it leaves the outcome by a sink-free move and then
    moves freely: the nodes `_deviation_faults` explores, from the same
    starts. `path` is the outcome's (state id, tracker state) over stem,
    loop and loop head."""
    states, labels, succ, owner = u.states, u.labels, u.succ, u.owner
    table, node_id = region.punishment, region.nodes.id
    stack = [(q, t) for (s, q), (nxt, _) in zip(path, path[1:]) if owner[s] == player
             for t in succ[s] if t != nxt]  # (tracker state before t, t)
    seen, kept = set(), {}
    while stack:
        q, s = stack.pop()
        q = tracker.step(q, labels[s])
        j = node_id(s, q)
        if j in seen or states[s] is BOT:
            continue
        seen.add(j)
        moves = succ[s]
        if owner[s] != player:  # outside the loser's region, so the table has the node
            t = table[j]
            kept[(states[s], str(q))] = states[t]
            moves = (t,)
        stack += [(q, t) for t in moves]
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
    u = unfold(a, bounds)

    players = list(range(1, a.players + 1))
    trackers = {}
    for i in players:
        try:
            trackers[i] = objective_tracker(a.objective_of(i), dpas.get(i))
        except UnsupportedObjectiveError as e:
            return SolveResult(SolveResult.UNSUPPORTED, reason=f"player {i}: {e}")
    product = witness_product(
        u, system_component(a.system_objective), [trackers[i] for i in players]
    )
    owner, size = u.owner, len(product.nodes)
    pred: list = []  # u.succ's predecessor lists, shared by the closed region games
    regions = {}  # a player's punishment region, solved when it first loses
    blocked = {}  # a loser's own nodes from which it could deviate and still win

    diagnostics: list[tuple[tuple[int, ...], str]] = []
    pruned = "no accepting SCC" if product.sccs else "no cycle in the restricted product"
    masks = set(product.masks)
    for winner_set in _winner_sets(a.players):
        need = sum(1 << i for i in winner_set) | 1  # the system is component 0
        if not any(m & need == need for m in masks):
            diagnostics.append((tuple(sorted(winner_set)), pruned))
            continue
        for i in players:
            if i not in winner_set and i not in regions:
                r = regions[i] = punish_region(u, i, trackers[i], pred)
                if product.is_unfolding:  # product node k is region node k
                    blocked[i] = {k for k in r.win if k < size and owner[k] == i}
                else:
                    blocked[i] = {k for k, (s, qs) in enumerate(product.nodes)
                                  if owner[s] == i and r.nodes.id(s, qs[i]) in r.win}
        forbidden = set().union(*[blocked[i] for i in players if i not in winner_set])
        try:
            stem, loop = find_witness_lasso(
                product, [i - 1 for i in sorted(winner_set)], forbidden
            )
        except NoWitness as e:
            diagnostics.append((tuple(sorted(winner_set)), str(e)))
            continue
        nodes = product.nodes
        outcome = outcome_lasso(u, [nodes[n][0] for n in stem], [nodes[n][0] for n in loop])
        winners = frozenset(
            i for i in players if max(product.priority[n][i] for n in loop) % 2 == 0
        )
        path = [nodes[n] for n in (*stem, *loop, loop[0])]
        punishment = {
            i: {} if i in winners else _reached_entries(
                u, i, trackers[i], regions[i], [(s, qs[i]) for s, qs in path]
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
            out = self.stepped[us] = step(self.base, self.bounds, us)[0]
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

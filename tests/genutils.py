"""Shared random generators and independent brute-force oracles.

The oracles here deliberately avoid the library's solver code paths: they
enumerate memoryless strategies and analyze the induced one-player graphs
with plain cycle/reachability arguments, or run naive set-iteration
fixpoints. Memoryless determinacy of the supported objectives makes these
enumerations exact references. The exceptions are `oracle_solve`, the
solver's loop over winner sets without its pruning, kept as the reference
that the pruning changes no verdict, certificate or searched set's reason,
and the straightforward forms of five solver passes that were rewritten
for speed: `reference_unfold`, `reference_tracker_product`,
`reference_witness_product`, `reference_solve_parity` and
`reference_find_witness_lasso`, which must return what the package's
passes return.
"""

from __future__ import annotations

import itertools
import json
import random
from functools import cache, reduce
from math import prod
from operator import mul, or_
from typing import NamedTuple, Optional

from carefulsynth import ltl
from carefulsynth.arena import (
    BOT, MAX_PLAYERS, Arena, UState, build_arena, checked_bounds, credit_after,
)
from carefulsynth.errors import DocumentSemanticError, expect, load_json, member
from carefulsynth.ltl import FragmentClass
from carefulsynth._graphs import strongly_connected_components
from carefulsynth.certificate import MAX_PRIORITY, StrategyProfile, parse_dpa, player_tracker
from carefulsynth.synthesis import (
    NoWitness, SolveResult, WitnessProduct, _reached_entries, _winner_sets, outcome_lasso,
    shortest_path, system_component,
)
from carefulsynth.unfolding import Product, UnfoldedArena, product, unfold
from carefulsynth.zerosum import (
    PunishRegions, WinningRegions, ZeroSumGame, predecessors, punish_region,
)


# ---------------------------------------------------------------------------
# Random formulas and label words


FORMULA_ATOMS = ("p", "q")


def random_formula(rng: random.Random, depth: int, atoms=FORMULA_ATOMS) -> ltl.Formula:
    if depth <= 0:
        op = rng.choice(("atom", "atom", "lit"))
    else:
        op = rng.choice(
            ("atom", "lit", "not", "and", "or", "next", "until", "finally", "globally")
        )
    if op == "atom":
        return ltl.Atom(rng.choice(atoms))
    if op == "lit":
        return ltl.Lit(rng.random() < 0.5)
    if op == "not":
        return ltl.Not(random_formula(rng, depth - 1, atoms))
    if op == "and":
        return ltl.And(random_formula(rng, depth - 1, atoms), random_formula(rng, depth - 1, atoms))
    if op == "or":
        return ltl.Or(random_formula(rng, depth - 1, atoms), random_formula(rng, depth - 1, atoms))
    if op == "next":
        return ltl.Next(random_formula(rng, depth - 1, atoms))
    if op == "until":
        return ltl.Until(random_formula(rng, depth - 1, atoms), random_formula(rng, depth - 1, atoms))
    if op == "finally":
        return ltl.Eventually(random_formula(rng, depth - 1, atoms))
    return ltl.Always(random_formula(rng, depth - 1, atoms))


def random_word(rng: random.Random, max_stem=4, max_loop=4):
    stem = [
        frozenset(a for a in FORMULA_ATOMS if rng.random() < 0.5)
        for _ in range(rng.randrange(0, max_stem))
    ]
    loop = [
        frozenset(a for a in FORMULA_ATOMS if rng.random() < 0.5)
        for _ in range(rng.randrange(1, max_loop))
    ]
    return stem, loop


def naive_eval(phi: ltl.Formula, stem, loop, pos: int = 0) -> bool:
    """Unrolling-based reference semantics: temporal operators evaluated by
    looking ahead |stem| + 2|loop| positions from each point (enough for the
    ultimately periodic word to settle)."""

    def letter(i):
        return stem[i] if i < len(stem) else loop[(i - len(stem)) % len(loop)]

    horizon = len(stem) + 2 * len(loop) + 2
    memo: dict = {}

    def ev(node, i):
        key = (id(node), i)
        if key in memo:
            return memo[key]
        if isinstance(node, ltl.Lit):
            r = node.value
        elif isinstance(node, ltl.Atom):
            r = node.name in letter(i)
        elif isinstance(node, ltl.Not):
            r = not ev(node.sub, i)
        elif isinstance(node, ltl.And):
            r = ev(node.left, i) and ev(node.right, i)
        elif isinstance(node, ltl.Or):
            r = ev(node.left, i) or ev(node.right, i)
        elif isinstance(node, ltl.Next):
            r = ev(node.sub, i + 1)
        elif isinstance(node, ltl.Eventually):
            r = any(ev(node.sub, j) for j in range(i, i + horizon))
        elif isinstance(node, ltl.Always):
            r = all(ev(node.sub, j) for j in range(i, i + horizon))
        elif isinstance(node, ltl.Until):
            r = False
            for j in range(i, i + horizon):
                if ev(node.right, j):
                    r = True
                    break
                if not ev(node.left, j):
                    break
        elif isinstance(node, ltl.Release):
            r = ev(ltl.Not(ltl.Until(ltl.Not(node.left), ltl.Not(node.right))), i)
        else:
            raise TypeError(node)
        memo[key] = r
        return r

    return ev(phi, pos)


def nba_accepts_lasso(nba: ltl.NBA, stem, loop) -> bool:
    """Membership of stem . loop^omega, the reference for `ltl.to_nba`: an
    accepting node of the product of word positions and automaton states is
    reachable from a start node and lies on a cycle. Decided in time linear
    in the reachable product by Kosaraju's two passes, written here apart
    from the package's SCC kernel: the reachable nodes in the order a
    depth-first search finishes them, then the components of the reversed
    graph."""
    word = [frozenset(x) for x in stem] + [frozenset(x) for x in loop]
    n = len(word)
    back = n - len(list(loop))

    def successors(i, q):
        j = i + 1 if i + 1 < n else back
        return [(j, d) for d in nba.succ[q]] if nba.reads(q, word[i]) else []

    succ: dict = {}  # the reachable nodes, each with its successors
    finished = []
    for root in [(0, q) for q in nba.initial]:
        if root in succ:
            continue
        succ[root] = successors(*root)
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if w not in succ:
                    succ[w] = successors(*w)
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    pred: dict = {v: [] for v in succ}
    for v, out in succ.items():
        for w in out:
            pred[w].append(v)
    component = {}
    for root in reversed(finished):
        if root not in component:
            component[root], stack = root, [root]
            while stack:
                for u in pred[stack.pop()]:
                    if u not in component:
                        component[u] = root
                        stack.append(u)
    return any(
        component[w] == component[v]
        for v, out in succ.items()
        if v[1] in nba.accepting
        for w in out
    )


# ---------------------------------------------------------------------------
# Random zero-sum games and the strategy-enumeration oracle


class LabelledGame:
    """A numbered game, read as a `ZeroSumGame` is, with a label per state
    and losing sinks (absorbing: self-loop only), which the oracles read."""

    def __init__(self, succ, is_protagonist, priority, labels: list, losing_sinks: frozenset):
        self.succ = succ
        self.is_protagonist = is_protagonist
        self.priority = priority
        self.pred = predecessors(succ)
        self.labels = labels
        self.losing_sinks = losing_sinks

    @property
    def states(self) -> range:
        return range(len(self.succ))


def make_game(succ, is_protagonist, labels, losing_sinks=frozenset(), priority=None) -> LabelledGame:
    """A game on the ids 0..n-1 from lists over them; every priority is 0
    unless `priority` is given."""
    return LabelledGame(
        succ=[list(out) for out in succ],
        is_protagonist=list(is_protagonist),
        priority=[0] * len(succ) if priority is None else list(priority),
        labels=list(labels),
        losing_sinks=frozenset(losing_sinks),
    )


def game_as_unfolding(g: LabelledGame) -> tuple[UnfoldedArena, dict]:
    """`g` as the unfolding of a two-player arena with one resource and zero
    costs, its state k named `sk`: player 1 owns the protagonist's states,
    player 2 the rest, and every losing sink becomes BOT. Returns it with
    the map from g's states to the ids of its unfolded states; the
    package's region game for player 1 on it is then g's game in product
    with a tracker."""
    names = [f"s{s}" for s in g.states]
    live = [s for s in g.states if s not in g.losing_sinks]
    ids = {s: k for k, s in enumerate(live)}
    image = {s: ids.get(s, len(live)) for s in g.states}  # the sinks at BOT's id
    a = build_arena(
        players=2,
        dimensions=1,
        states=names,
        owner={names[s]: 1 if g.is_protagonist[s] else 2 for s in g.states},
        initial=names[0],
        edges={(names[s], names[t]): (0,) for s in g.states for t in g.succ[s]},
        atoms=sorted(set().union(*g.labels)),
        labels=dict(zip(names, g.labels)),
        system_objective=ltl.TRUE,
        player_objectives=(ltl.TRUE, ltl.TRUE),
    )
    sinks = [BOT] if g.losing_sinks else []
    succ = [list(dict.fromkeys(image[t] for t in g.succ[s])) for s in live]
    return UnfoldedArena(
        base=a,
        bounds=(0,),
        states=tuple([(names[s], (0,)) for s in live] + sinks),
        succ=succ + [[len(live)]] * len(sinks),
        owner=[a.owner[names[s]] for s in live] + [1] * len(sinks),
    ), image


class StateView(NamedTuple):
    """An unfolding read by unfolded state rather than by id, as the oracles
    and the certificates read it."""

    initial: UState
    states: tuple
    succ: dict  # state -> its successor states, in `u.succ` order
    owner: dict
    labels: dict


def by_state(u: UnfoldedArena) -> StateView:
    return StateView(
        u.states[0],
        u.states,
        {s: tuple(u.states[j] for j in u.succ[k]) for k, s in enumerate(u.states)},
        dict(zip(u.states, u.owner)),
        dict(zip(u.states, u.letters())),
    )


def game_node(g: UnfoldedArena, j: int) -> tuple:
    """Node j of the punishment game `g`, an unfolded product with one
    tracker: (its unfolded state, its tracker state), None at the sink."""
    return g.states[j], g.graph.qs[g.at[j]][0] if j < len(g.at) else None


def one_node_per_state(p: Product) -> bool:
    """One node per arena state `p` reaches and no failed step: `p` is then
    numbered as the arena's own product, and unfolds to the arena's ids."""
    return not p.failures and len(set(p.state)) == len(p.state)


def region_of(a: Arena, bounds, player: int, tracker) -> tuple[UnfoldedArena, PunishRegions]:
    """`player`'s punishment game at `bounds`, the unfolding of `a` in
    product with `tracker`, and its region."""
    g = unfold(product(a, [tracker]), bounds)
    return g, punish_region(g, player, 0)


def coalition_moves(g: UnfoldedArena, player: int, region: PunishRegions) -> dict:
    """`player`'s region's table on the ids of its game `g`, read through
    the region's mapping at every coalition node outside `win`, the sink
    included when the coalition owns it."""
    return {j: region.punishment[j] for j, o in enumerate(g.owner)
            if o != player and j not in region.win}


def state_table(g: UnfoldedArena, player: int, region: PunishRegions) -> dict:
    """`coalition_moves` keyed as certificates key it: (unfolded state, the
    tracker state written by `str`) -> unfolded state. The sink, never a
    certificate's key, is left out."""
    return {(g.states[j], str(game_node(g, j)[1])): g.states[t]
            for j, t in coalition_moves(g, player, region).items() if j < len(g.at)}


def random_game(rng: random.Random, max_states=8, sink_prob=0.2) -> LabelledGame:
    n = rng.randrange(2, max_states + 1)
    sinks, succ, is_pro, labels = set(), [], [], []
    for s in range(n):
        if rng.random() < sink_prob and s != 0:
            sinks.add(s)
            succ.append([s])
        else:
            succ.append(rng.sample(range(n), rng.randrange(1, 3)))
        is_pro.append(rng.random() < 0.5)
        labels.append(frozenset(["p"] if rng.random() < 0.4 else []))
    return make_game(succ, is_pro, labels, losing_sinks=sinks)


def _reach_states(succ, start, allowed=None):
    if allowed is not None and start not in allowed:
        return set()
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in succ[v]:
            if allowed is not None and w not in allowed:
                continue
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def scc_partition(nodes, succ) -> list[set]:
    """The strongly connected components of `succ` restricted to `nodes`,
    as the classes of mutual reachability inside the set: quadratic, and
    independent of the library's SCC kernel."""
    nodes = set(nodes)
    reach = {v: _reach_states(succ, v, allowed=nodes) for v in nodes}
    comps: list[set] = []
    placed: set = set()
    for v in nodes:
        if v not in placed:
            comps.append({w for w in reach[v] if v in reach[w]})
            placed |= comps[-1]
    return comps


def _cycle_states(nodes, succ):
    """States lying on some cycle inside the node set."""
    out = set()
    for cs in scc_partition(nodes, succ):
        if len(cs) > 1 or any(s in succ[s] for s in cs):
            out |= cs
    return out


def protagonist_strategies(g: ZeroSumGame):
    pro = [s for s in g.states if g.is_protagonist[s]]
    for combo in itertools.product(*[g.succ[s] for s in pro]):
        sigma = dict(zip(pro, combo))
        yield sigma, {s: (sigma[s],) if s in sigma else g.succ[s] for s in g.states}


def oracle_fragment_region(g: ZeroSumGame, kind: str, beta: ltl.Formula) -> set:
    """Protagonist winning region by memoryless-strategy enumeration plus
    exact graph-based antagonist best response."""
    sat = {
        s: s not in g.losing_sinks and ltl.eval_bool(beta, g.labels[s])
        for s in g.states
    }
    nonsat = {s for s in g.states if not sat[s]}
    win: set = set()
    for _, succ in protagonist_strategies(g):
        nonsat_cycles = _cycle_states(nonsat, succ)
        for s in g.states:
            if s in win:
                continue
            r = _reach_states(succ, s)
            if r & g.losing_sinks:
                continue  # coalition can drive the play into a losing sink
            if kind == FragmentClass.REACH:
                if s in nonsat and _reach_states(succ, s, allowed=nonsat) & nonsat_cycles:
                    continue  # a play avoiding the targets forever exists
            elif kind == FragmentClass.SAFE:
                if r & nonsat:
                    continue
            elif kind == FragmentClass.BUCHI:
                if r & nonsat_cycles:
                    continue  # settle in a target-free cycle
            elif kind == FragmentClass.COBUCHI:
                violated = False
                for cs in scc_partition(r, succ):
                    nontrivial = len(cs) > 1 or any(x in succ[x] for x in cs)
                    if nontrivial and any(not sat[x] for x in cs):
                        violated = True  # a cycle through a non-target state
                        break
                if violated:
                    continue
            else:
                raise ValueError(kind)
            win.add(s)
    return win


def oracle_attractor(g: ZeroSumGame, targets: set) -> set:
    """Forced reachability (sinks irrelevant once a target is hit)."""
    win: set = set()
    for _, succ in protagonist_strategies(g):
        avoid = set(g.states) - set(targets)
        avoid_cycles = _cycle_states(avoid, succ)
        for s in g.states:
            if s in win:
                continue
            if s in targets:
                win.add(s)
                continue
            if _reach_states(succ, s, allowed=avoid) & avoid_cycles:
                continue
            win.add(s)
    return win


def oracle_parity_region(g: ZeroSumGame) -> set:
    priority = g.priority
    win: set = set()
    for _, succ in protagonist_strategies(g):
        for s in g.states:
            if s in win:
                continue
            r = _reach_states(succ, s)
            violated = False
            for p in sorted({priority[x] for x in r}):
                if p % 2 == 0:
                    continue
                sub = {x for x in r if priority[x] <= p}
                for cs in scc_partition(sub, succ):
                    nontrivial = len(cs) > 1 or any(x in succ[x] for x in cs)
                    if nontrivial and any(priority[x] == p for x in cs):
                        violated = True
                        break
                if violated:
                    break
            if not violated:
                win.add(s)
    return win


# ---------------------------------------------------------------------------
# Random arenas and the synthesis oracle (reachability objectives)


ARENA_ATOMS = ("x", "y")


def random_arena(rng: random.Random, max_states=4, max_players=2, max_dims=2,
                 costs: Optional[int] = None) -> Arena:
    """A seeded arena; with `costs`, every edge costs one of that many
    vectors, drawn first, instead of one drawn for itself."""
    n = rng.randrange(1, max_states + 1)
    players = rng.randrange(1, max_players + 1)
    d = rng.randrange(1, max_dims + 1)
    states = [f"s{i}" for i in range(n)]
    owner = {s: rng.randrange(1, players + 1) for s in states}
    labels = {s: [a for a in ARENA_ATOMS if rng.random() < 0.4] for s in states}
    pool = [tuple(rng.randrange(-2, 3) for _ in range(d)) for _ in range(costs or 0)]
    edges = {}
    for s in states:
        for t in rng.sample(states, rng.randrange(1, n + 1)):
            w = rng.choice(pool) if pool else tuple(rng.randrange(-2, 3) for _ in range(d))
            edges[(s, t)] = w

    def reach():
        return ltl.Eventually(ltl.Atom(rng.choice(ARENA_ATOMS)))

    return build_arena(
        players=players,
        dimensions=d,
        states=states,
        owner=owner,
        initial="s0",
        edges=edges,
        atoms=list(ARENA_ATOMS),
        labels=labels,
        system_objective=reach(),
        player_objectives=tuple(reach() for _ in range(players)),
    )


class _CostByComponent(list):
    """A cost list that `build_arena` does not take in bulk: an exact-type
    check fails on a list subclass, so it checks every edge one by one."""


def reference_parse_arena(text: str) -> Arena:
    """The arena reader that reads every member through `errors.member`,
    in document order: the reference for `arena.parse_arena`, which must
    return an equal Arena or raise the same error with the same message.
    Its costs go to `build_arena` as `_CostByComponent`, so that the edges
    are also checked one by one there."""
    doc = expect(load_json(text), dict, "arena document")
    players = member(doc, "players", int, "players")
    if not 1 <= players <= MAX_PLAYERS:
        raise DocumentSemanticError(
            f"players must be an integer from 1 to {MAX_PLAYERS}, got {players!r}"
        )
    states, owner, labels = [], {}, {}
    for item in member(doc, "states", [dict], "states"):
        sid = member(item, "id", str, "state id")
        states.append(sid)
        owner[sid] = member(item, "owner", int, f"owner of {sid!r}")
        labels[sid] = member(item, "labels", [str], f"labels of {sid!r}", [])

    edges = {}
    for item in member(doc, "edges", [dict], "edges"):
        key = (member(item, "src", str, "edge source"), member(item, "dst", str, "edge target"))
        if key in edges:
            raise DocumentSemanticError(f"duplicate edge {key!r}")
        edges[key] = _CostByComponent(member(item, "cost", [int], f"cost of edge {key!r}"))

    objectives = member(doc, "objectives", dict, "objectives")
    per_player = member(objectives, "players", dict, "player objectives", {})
    player_objs = []
    for i in range(1, players + 1):
        src = member(per_player, str(i), str, f"player {i} objective", None)
        player_objs.append(ltl.TRUE if src is None else ltl.parse_ltl(src))
    extra = set(per_player) - {str(i) for i in range(1, players + 1)}
    if extra:
        raise DocumentSemanticError(f"objectives for unknown player(s): {sorted(extra)}")

    return build_arena(
        players=players,
        dimensions=member(doc, "dimensions", int, "dimensions"),
        states=states,
        owner=owner,
        initial=member(doc, "initial", str, "initial state"),
        edges=edges,
        atoms=member(doc, "atoms", [str], "atoms"),
        labels=labels,
        system_objective=ltl.parse_ltl(member(objectives, "system", str, "system objective")),
        player_objectives=player_objs,
        bounds=member(doc, "bounds", [int], "bounds", None),
    )


def random_lasso(rng: random.Random, a: Arena, max_walk: int = 16):
    """(stem, loop) of a random lasso of `a`: a random walk from the initial
    state, cut at two visits of one state."""
    path = [a.initial]
    for _ in range(rng.randrange(1, max_walk)):
        path.append(rng.choice(a.succ[path[-1]]))
    while len(set(path)) == len(path):
        path.append(rng.choice(a.succ[path[-1]]))
    k, m = rng.choice(
        [(k, m) for m in range(len(path)) for k in range(m) if path[k] == path[m]]
    )
    return path[: k + 1], path[k + 1 : m + 1]


def saturating_add(c, w, bounds) -> tuple[int, ...]:
    """Componentwise min(c_i + w_i, B_i), the reference for the package's
    bounded step; results may be negative (the caller decides sink
    routing)."""
    return tuple(min(ci + wi, bi) for ci, wi, bi in zip(c, w, bounds))


def oracle_bounded_careful(a: Arena, bounds, stem, loop) -> bool:
    """Whether no resource of stem . loop^omega goes below zero when every
    edge adds its cost and caps at `bounds`, by simulating stem . loop^k
    until the vector at the loop head repeats."""

    def walk(c, path):
        for x, y in zip(path, path[1:]):
            c = saturating_add(c, a.edges[(x, y)], bounds)
            if any(v < 0 for v in c):
                return None
        return c

    c = walk((0,) * a.dimensions, [*stem, loop[0]])
    heads = set()
    while c is not None and c not in heads:
        heads.add(c)
        c = walk(c, [*loop, loop[0]])
    return c is not None


def project(uh) -> list[str]:
    """Base-state components of an unfolded history; rejects sink visits."""
    if BOT in uh:
        raise DocumentSemanticError("cannot project a history through the sink")
    return [us[0] for us in uh]


def _oracle_stay(u: StateView, player: int, keep: set) -> set:
    """The states of `keep` from which `player` can stay inside `keep`
    forever, by naive iteration of the greatest fixpoint."""
    stay = set(keep)
    changed = True
    while changed:
        changed = False
        for s in list(stay):
            if u.owner[s] == player:
                ok = any(t in stay for t in u.succ[s])
            else:
                ok = all(t in stay for t in u.succ[s])
            if not ok:
                stay.discard(s)
                changed = True
    return stay


def oracle_deviator_region(u: StateView, player: int, objective: ltl.Formula) -> dict:
    """Where `player`, alone against everyone, carefully meets its `F β` or
    `G β` objective, by the flag the objective carries after the state
    (`F`: β seen, `G`: β failed). Naive-iteration fixpoints: the states
    where `player` can avoid the sink forever (inside β for `G`), then
    forced reachability of β inside them for an `F` not yet seen."""
    frag = ltl.classify_fragment(objective)
    beta = {s for s in u.states if s is not BOT and ltl.eval_bool(frag.beta, u.labels[s])}
    if frag.kind == FragmentClass.SAFE:
        return {False: _oracle_stay(u, player, beta), True: set()}
    if frag.kind != FragmentClass.REACH:
        raise ValueError(frag.kind)
    safe = _oracle_stay(u, player, {s for s in u.states if s is not BOT})
    win = safe & beta
    changed = True
    while changed:
        changed = False
        for s in safe - win:
            if u.owner[s] == player:
                ok = any(t in win for t in u.succ[s])
            else:
                ok = all(t in win for t in u.succ[s])
            if ok:
                win.add(s)
                changed = True
    return {False: win, True: safe}


class OracleTooBig(Exception):
    pass


def _conjuncts(phi: ltl.Formula) -> list:
    if isinstance(phi, ltl.And):
        return _conjuncts(phi.left) + _conjuncts(phi.right)
    return [phi]


def oracle_solution_exists(a: Arena, bounds, cap: int = 300_000) -> bool:
    """Reference decision for arenas whose player objectives are all `F β`
    or `G β`, and whose system objective is one of them or a conjunction of
    them: enumerate every simple lasso of the sink-free unfolding in
    product with one flag per player objective and per system conjunct (β
    seen for `F`, β failed for `G`), and test the equilibrium conditions
    with independently recomputed deviation regions, each read at the flag
    the outcome carries. Flags only rise, so they are constant on a loop and
    decide who wins; and every equilibrium outcome leaves such a lasso
    inside the nodes it visits."""
    u = by_state(unfold(a, bounds))
    players = range(1, a.players + 1)
    system = _conjuncts(a.system_objective)
    frags = [ltl.classify_fragment(f) for f in (*system, *map(a.objective_of, players))]
    if any(f.kind not in (FragmentClass.REACH, FragmentClass.SAFE) for f in frags):
        raise ValueError("an objective is not F beta or G beta")
    reach = [f.kind == FragmentClass.REACH for f in frags]
    wins = {i: oracle_deviator_region(u, i, a.objective_of(i)) for i in players}
    m = len(system) - 1  # player i's flag is at position m + i

    def node(flags, s):
        return s, tuple(_oracle_flag(u, f, flag, s) for flag, f in zip(flags, frags))

    def supportable(path):
        good = [flag == r for flag, r in zip(path[-1][1], reach)]
        if not all(good[: m + 1]):
            return False
        return not any(
            not good[m + i] and u.owner[s] == i and s in wins[i][flags[m + i]]
            for s, flags in path
            for i in players
        )

    count = 0
    start = node([False] * len(frags), u.initial)
    stack = [([start], {start}, iter(u.succ[u.initial]))]
    while stack:
        path, onpath, it = stack[-1]
        advanced = False
        for t in it:
            if t is BOT:
                continue
            count += 1
            if count > cap:
                raise OracleTooBig
            nxt = node(path[-1][1], t)
            if nxt in onpath:
                if supportable(path):
                    return True
            else:
                stack.append((path + [nxt], onpath | {nxt}, iter(u.succ[t])))
                advanced = True
                break
        if not advanced:
            stack.pop()
    return False


# ---------------------------------------------------------------------------
# Random fragment objectives and the deviation oracles (fragment objectives)


FRAGMENT_SHAPES = ("F {}", "G {}", "G F {}", "F G {}", "! F {}", "! G F {}")
REACH_SAFE_SHAPES = ("F {}", "G {}", "! F {}")


def random_fragment(rng: random.Random, atoms=FORMULA_ATOMS, shapes=FRAGMENT_SHAPES) -> ltl.Formula:
    """A random objective of one of `shapes` (by default `F`, `G`, `G F` or
    `F G`) whose beta is temporal-free and neither valid nor
    unsatisfiable."""
    letters = [frozenset(), frozenset(atoms[:1]), frozenset(atoms[1:]), frozenset(atoms)]
    beta = ltl.TRUE
    while not (
        ltl.is_temporal_free(beta) and len({ltl.eval_bool(beta, x) for x in letters}) == 2
    ):
        beta = random_formula(rng, 2, atoms)
    return ltl.parse_ltl(rng.choice(shapes).format(f"({ltl.formula_to_str(beta)})"))


def random_fragment_arena(rng: random.Random, shapes=FRAGMENT_SHAPES):
    """A random arena whose system and player objectives are all random
    fragment objectives of `shapes`, with random bounds."""
    a = random_arena(rng, max_states=5, max_players=3)
    objectives = [random_fragment(rng, ARENA_ATOMS, shapes) for _ in range(a.players + 1)]
    a = a._replace(system_objective=objectives[0], player_objectives=tuple(objectives[1:]))
    return a, tuple(rng.randrange(0, 3) for _ in range(a.dimensions))


def random_closed_arena(rng: random.Random):
    """A `random_fragment_arena` without the edges that leave an `F`
    objective's targets or a `G` objective's failures, so that its
    trackers are closed on its edges: their products with the arena have
    one node per state (`one_node_per_state`); a state left
    without a move gets a self-loop. Half the time every cost is made
    nonnegative, so that the unfolding has no sink. A third of the time
    the system objective's edges are kept, so that its tracker may be the
    only one not closed."""
    a, bounds = random_fragment_arena(rng)
    objectives = (a.system_objective, *a.player_objectives)
    kept = {}  # beta -> the value that must persist along every edge
    for phi in objectives[1:] if rng.random() < 1 / 3 else objectives:
        frag = ltl.classify_fragment(phi)
        if frag.kind in (FragmentClass.REACH, FragmentClass.SAFE):
            kept[frag.beta] = frag.kind == FragmentClass.REACH

    def holds(beta, s):
        return ltl.eval_bool(beta, a.labels[s])

    sinkless = rng.random() < 0.5
    edges = {(s, t): tuple(max(c, 0) for c in w) if sinkless else w
             for (s, t), w in a.edges.items()
             if all(holds(beta, t) == v for beta, v in kept.items() if holds(beta, s) == v)}
    for s in a.states:
        if all(x != s for x, _ in edges):
            low = 0 if sinkless else -1
            edges[(s, s)] = tuple(rng.randrange(low, 2) for _ in range(a.dimensions))
    a = build_arena(
        players=a.players,
        dimensions=a.dimensions,
        states=list(a.states),
        owner=a.owner,
        initial=a.initial,
        edges=edges,
        atoms=sorted(a.atoms),
        labels={s: sorted(x) for s, x in a.labels.items()},
        system_objective=a.system_objective,
        player_objectives=a.player_objectives,
    )
    return a, bounds


def reach_dpa(objective: ltl.Formula):
    """A two-state parity automaton for `F beta` over ARENA_ATOMS, with
    string states: it waits until a letter satisfies beta, then stays
    good."""
    beta = ltl.classify_fragment(objective).beta
    transitions = [{"src": "good", "dst": "good"}]
    for r in range(len(ARENA_ATOMS) + 1):
        for pos in itertools.combinations(ARENA_ATOMS, r):
            neg = [x for x in ARENA_ATOMS if x not in pos]
            dst = "good" if ltl.eval_bool(beta, frozenset(pos)) else "wait"
            transitions.append({"src": "wait", "pos": list(pos), "neg": neg, "dst": dst})
    return parse_dpa(json.dumps({
        "states": ["wait", "good"], "initial": "wait", "priorities": {"wait": 1, "good": 2},
        "transitions": transitions,
    }))


def reach_dpas(a: Arena) -> dict:
    """Every `F` player's objective of `a` as a parity automaton."""
    return {
        i: reach_dpa(a.objective_of(i))
        for i in range(1, a.players + 1)
        if ltl.classify_fragment(a.objective_of(i)).kind == FragmentClass.REACH
    }


def random_credit_arena(rng: random.Random):
    """A seeded arena of 2-6 states and 1-3 players with 1-5 resources at
    capacities 0-4, every player's objective `F x`, and a parity automaton
    for `F x` that has no move on the letter {y}. The states other than s0
    carry `x`, `y` or nothing at random. A state carrying `x` moves only to
    such states, at costs from 0 to 2, so that each `F x` game is a
    reachability game. The initial state s0 gains 1 of every resource on a
    self-loop and moves for free to a gate, an unlabelled state whose one
    edge, into a state carrying `x`, costs 1-3 of one resource: who owns
    the gate wins there exactly at the credits that pay it. Any other edge
    has cost components from -2 or 0 to 2, or, one time in seven, up to two
    more than the capacity either way; an edge into a state carrying `y`
    costs more than the first capacity there, so it always goes below zero,
    and with the automaton it is a failed step. Returns the arena, its
    bounds and the automaton."""
    d, n, players = rng.randrange(1, 6), rng.randrange(2, 7), rng.randrange(1, 4)
    bounds = tuple(rng.randrange(0, 5) for _ in range(d))
    states = [f"s{k}" for k in range(n)]
    labels = {s: [rng.choice(["x", "x", "y"])] if k and rng.random() < 0.4 else []
              for k, s in enumerate(states)}
    targets = [s for s in states if labels[s] == ["x"]]
    gates = [s for s in states[1:] if not labels[s]]
    gate = rng.choice(gates) if gates and targets else None
    edges = {}
    for s in states:
        if labels[s] == ["x"]:
            for t in rng.sample(targets, rng.randrange(1, len(targets) + 1)):
                edges[(s, t)] = tuple(rng.randrange(0, 3) for _ in range(d))
        elif s == gate:
            w = [0] * d
            w[rng.randrange(d)] = -rng.randrange(1, 4)
            edges[(s, rng.choice(targets))] = tuple(w)
        else:
            for t in rng.sample(states, rng.randrange(1, n + 1)):
                low = rng.choice([0, -2])  # a gain, or a cost that may go below zero
                w = [rng.randrange(-v - 2, v + 3) if rng.random() < 1 / 7 else rng.randrange(low, 3)
                     for v in bounds]
                if labels[t] == ["y"]:
                    w[0] = -bounds[0] - rng.randrange(1, 3)
                edges[(s, t)] = tuple(w)
    edges[("s0", "s0")] = (1,) * d
    if gate:
        edges[("s0", gate)] = (0,) * d
    a = build_arena(
        players=players,
        dimensions=d,
        states=states,
        owner={s: rng.randrange(1, players + 1) for s in states},
        initial="s0",
        edges=edges,
        atoms=list(ARENA_ATOMS),
        labels=labels,
        system_objective=ltl.TRUE,
        player_objectives=(ltl.Eventually(ltl.Atom("x")),) * players,
    )
    dpa = parse_dpa(json.dumps({
        "states": ["wait", "good"], "initial": "wait", "priorities": {"wait": 1, "good": 2},
        "transitions": [{"src": "good", "dst": "good"}, {"src": "wait", "pos": ["x"], "dst": "good"},
                        {"src": "wait", "neg": ["x", "y"], "dst": "wait"}],
    }))
    return a, bounds, dpa


def random_punishable_arena(rng: random.Random):
    """A random arena in which one player's deviations lead into coalition
    states that can punish or concede, so that losers' tables have entries:
    from the initial state x the play reaches the deviator's state d, which
    moves on to s (a self-loop, sometimes back to x) or to one of 2-4
    coalition states ek. Each ek moves to the deviator's sinks zk and pk,
    and sometimes back to d. Owners of x and s, labels, the system and
    player objectives (random fragment objectives) and the bounds are
    random; a cost component is from -1 to 2, a gain twice as likely as a
    loss."""
    players, dims = rng.randrange(2, 4), rng.randrange(1, 3)
    deviator = rng.randrange(1, players + 1)
    coalition = [i for i in range(1, players + 1) if i != deviator]
    owner = {"x": rng.randrange(1, players + 1), "d": deviator, "s": rng.randrange(1, players + 1)}
    pairs = [("x", "d"), ("d", "s"), ("s", "s")] + [("s", "x")] * (rng.random() < 0.3)
    for k in range(rng.randrange(2, 5)):
        e, z, p = f"e{k}", f"z{k}", f"p{k}"
        owner.update({e: rng.choice(coalition), z: deviator, p: deviator})
        pairs += [("d", e), (e, z), (e, p), (z, z), (p, p)] + [(e, "d")] * (rng.random() < 0.3)
    objectives = [random_fragment(rng, ARENA_ATOMS) for _ in range(players + 1)]
    a = build_arena(
        players=players,
        dimensions=dims,
        states=list(owner),
        owner=owner,
        initial="x",
        edges={pair: tuple(rng.choice((-1, 0, 1, 1, 2)) for _ in range(dims)) for pair in pairs},
        atoms=list(ARENA_ATOMS),
        labels={s: [x for x in ARENA_ATOMS if rng.random() < 0.5] for s in owner},
        system_objective=objectives[0],
        player_objectives=objectives[1:],
    )
    return a, tuple(rng.randrange(0, 3) for _ in range(dims))


def oracle_witness_exists(u: UnfoldedArena, formulas, forbidden, max_states: int = 14) -> bool:
    """Does some sink-free lasso of `u` that avoids `forbidden` satisfy every
    `F`, `G`, `G F` and `F G` formula? A lasso meets them through the set V
    of states it visits and the set L its loop repeats: `F β` needs V∩β,
    `G β` needs V⊆β, `G F β` needs L∩β and `F G β` needs L⊆β. So every
    strongly connected L with an edge is enumerated, and a search over
    (state, `F` targets seen) inside the `G`-safe states looks for a path
    into L that, with L, meets every `F` target. Uses no automaton."""
    u = by_state(u)
    allowed = {s for s in u.states if s is not BOT and s not in forbidden}
    loop_ok = set(allowed)
    reach, buchi = [], []
    for f in map(ltl.classify_fragment, formulas):
        beta = {s for s in allowed if ltl.eval_bool(f.beta, u.labels[s])}
        if f.kind == FragmentClass.SAFE:
            allowed &= beta
        elif f.kind == FragmentClass.REACH:
            reach.append(beta)
        elif f.kind == FragmentClass.BUCHI:
            buchi.append(beta)
        elif f.kind == FragmentClass.COBUCHI:
            loop_ok &= beta
        else:
            raise ValueError(f.kind)
    if len(allowed) > max_states:
        raise OracleTooBig
    if u.initial not in allowed:
        return False
    loop_ok &= allowed
    full = (1 << len(reach)) - 1

    def seen(states):
        return sum(1 << k for k, beta in enumerate(reach) if beta & set(states))

    # every (state, F targets seen) a path from the initial state reaches
    configs = {(u.initial, seen([u.initial]))}
    stack = list(configs)
    while stack:
        s, mask = stack.pop()
        for t in u.succ[s]:
            nxt = (t, mask | seen([t]))
            if t in allowed and nxt not in configs:
                configs.add(nxt)
                stack.append(nxt)

    candidates = list(loop_ok)
    for bits in range(1, 1 << len(candidates)):
        loop = {s for k, s in enumerate(candidates) if bits >> k & 1}
        root = next(iter(loop))
        inside = {s: [t for t in u.succ[s] if t in loop] for s in loop}
        if not inside[root] or _reach_states(inside, root) != loop:
            continue
        backward = {s: [t for t in loop if s in inside[t]] for s in loop}
        if _reach_states(backward, root) != loop:
            continue
        if not all(beta & loop for beta in buchi):
            continue
        loop_mask = seen(loop)
        if any(s in loop and mask | loop_mask == full for s, mask in configs):
            return True
    return False


def _oracle_flag(u: StateView, frag, flag: bool, s) -> bool:
    """An `F`, `G`, `G F` or `F G` objective's flag after `s`, from the flag
    before it: beta seen (`F`), beta failed (`G`), beta holds at `s` (`G F`,
    `F G`)."""
    holds = ltl.eval_bool(frag.beta, u.labels[s])
    if frag.kind == FragmentClass.REACH:
        return flag or holds
    if frag.kind == FragmentClass.SAFE:
        return flag or not holds
    return holds


def _oracle_graph(u: StateView, player, frag, table):
    """The nodes (unfolded state, flag after it) without the sink, their
    successors when `player` moves freely and everyone else follows `table`
    through its key (state, str(flag)), and the nodes where the table names
    no edge."""
    nodes = {(s, f) for s in u.states if s is not BOT for f in (False, True)}
    succ, missing = {}, set()
    for s, f in nodes:
        moves = u.succ[s]
        if u.owner[s] != player:
            t = table.get((s, str(f)))
            moves = (t,) if t in moves else ()
            if not moves:
                missing.add((s, f))
        succ[(s, f)] = [(t, _oracle_flag(u, frag, f, t)) for t in moves if t is not BOT]
    return nodes, succ, missing


def _oracle_deviation_starts(u: StateView, player, frag, stem, loop) -> list:
    """The nodes where `player` lands when it leaves the outcome stem .
    loop^omega for a state other than the sink and the outcome's next; the
    flags come from the outcome prefix through stem and two loop passes."""
    prefix = list(stem) + list(loop) * 2
    starts, flag = [], False
    for k, s in enumerate(prefix):
        flag = _oracle_flag(u, frag, flag, s)
        if u.owner[s] == player:
            nxt = prefix[k + 1] if k + 1 < len(prefix) else loop[0]
            moves = [t for t in u.succ[s] if t not in (BOT, nxt)]
            starts += [(t, _oracle_flag(u, frag, flag, t)) for t in moves]
    return starts


def _oracle_wins(u: StateView, player, objective, table):
    """The objective's class and a test on nodes (unfolded state, flag after
    it) of the careful one-player graph where `player` moves freely and
    everyone else follows `table`, read through its documented key
    (state, str(flag)); the sink is left out. From a node, does `player`
    have an infinite play meeting its objective, decided by reachability
    and cycles ("play"), or else can it reach a node where the table names
    no edge ("missing entry")? The test returns "" when neither holds."""
    frag = ltl.classify_fragment(objective)
    nodes, succ, missing = _oracle_graph(u, player, frag, table)
    # the flag is good once beta is seen (F), while it has not failed (G),
    # where beta holds (G F, F G)
    good = {n for n in nodes if n[1] != (frag.kind == FragmentClass.SAFE)}
    good_cycles = _cycle_states(good, succ)

    def play_wins(r: set) -> bool:
        if frag.kind in (FragmentClass.REACH, FragmentClass.SAFE):
            return bool(r & good_cycles)  # the flag never changes back
        if frag.kind == FragmentClass.BUCHI:
            return bool(good & _cycle_states(r, succ))
        if frag.kind == FragmentClass.COBUCHI:
            return bool(_cycle_states(r & good, succ))
        raise ValueError(frag.kind)

    def wins(node) -> str:
        r = _reach_states(succ, node)
        if play_wins(r):
            return "play"
        return "missing entry" if r & missing else ""

    return frag, wins


def oracle_profitable_deviation(u: UnfoldedArena, player, objective, table, stem, loop) -> bool:
    """Does `player` have a careful deviation from the outcome stem . loop^omega
    (unfolded states) that satisfies its `F`, `G`, `G F` or `F G` objective
    while every other player follows `table`, or that reaches a node where
    the table names no edge? The flags come from the outcome prefix through
    stem and two loop passes."""
    u = by_state(u)
    frag, wins = _oracle_wins(u, player, objective, table)
    return any(map(wins, _oracle_deviation_starts(u, player, frag, stem, loop)))


def oracle_reached_keys(u: UnfoldedArena, player, objective, table, stem, loop) -> set:
    """The keys (state, str(flag)) of the table entries read on the way: the
    coalition nodes that `player`, with an `F`, `G`, `G F` or `F G`
    objective, reaches from its deviations off the outcome stem . loop^omega
    (unfolded states) while every other player follows `table`."""
    u = by_state(u)
    frag = ltl.classify_fragment(objective)
    _, succ, _ = _oracle_graph(u, player, frag, table)
    reached = set().union(
        *(_reach_states(succ, n) for n in _oracle_deviation_starts(u, player, frag, stem, loop))
    )
    return {(s, str(f)) for s, f in reached if u.owner[s] != player}


def oracle_wins_against_table(u: UnfoldedArena, player, objective, table) -> dict:
    """For the node where a fresh play starts at each state (the state and
    the flag after it), how `player` wins from there while every other
    player follows `table`: "play" for a careful play meeting its `F`, `G`,
    `G F` or `F G` objective, "missing entry" for reaching a node where the
    table names no edge, "" when it does not win."""
    u = by_state(u)
    frag, wins = _oracle_wins(u, player, objective, table)
    starts = [(s, _oracle_flag(u, frag, False, s)) for s in u.states if s is not BOT]
    return {node: wins(node) for node in starts}


# ---------------------------------------------------------------------------
# Reference forms of the solver's rewritten passes


def reference_unfold(a: Arena, bounds) -> UnfoldedArena:
    """`unfolding.unfold` as it read before it stepped credits by component:
    every (credit, cost) pair through `credit_after`, with `clipped` set
    when some component of a pair's sum exceeds its capacity, and the same
    numbering: breadth-first from the initial state, the sink last. An id's
    key puts its state's number in the arena's breadth-first order from
    the initial state, as `unfolding.product` numbers it, above its credit's
    key."""
    b = checked_bounds(a.dimensions, bounds)
    names = sorted(a.states)
    place = [prod(v + 1 for v in b[i + 1:]) for i in range(len(b))]
    width = prod(v + 1 for v in b)
    costs = list(dict.fromkeys(a.edges.values()))
    where = {s: k * width for k, s in enumerate(names)}
    cost_id = {w: k for k, w in enumerate(costs)}
    moves = [[(where[t], cost_id[a.edges[(s, t)]]) for t in a.succ[s]] for s in names]
    credits = {0: (0,) * a.dimensions}
    after: dict = {}
    found = [where[a.initial]]
    index = {found[0]: 0}
    succ: list[list[int]] = []
    m, sink, clipped = len(costs), False, False
    for key in found:
        s, c = divmod(key, width)
        out = []
        to_bot = False
        for base, w in moves[s]:
            c2 = after.get(c * m + w)
            if c2 is None:
                vec = credit_after(credits[c], costs[w], b)
                clipped = clipped or any(
                    ci + wi > bi for ci, wi, bi in zip(credits[c], costs[w], b)
                )
                c2 = after[c * m + w] = -1 if vec is None else sum(map(mul, vec, place))
                credits[c2] = vec
            if c2 < 0:
                to_bot = True
                continue
            k = index.get(base + c2)
            if k is None:
                k = index[base + c2] = len(found)
                found.append(base + c2)
            out.append(k)
        if to_bot:
            out.append(-1)
            sink = True
        succ.append(out)
    n = len(found)
    states = [(names[key // width], credits[key % width]) for key in found]
    order = [a.initial]
    for s in order:  # breadth-first: the list grows while it is read
        order += [t for t in a.succ[s] if t not in order]
    return UnfoldedArena(
        a, b, tuple(states) + (BOT,) * sink,
        [[n if j < 0 else j for j in out] for out in succ] + [[n]] * sink,
        [a.owner[s] for s, _ in states] + [1] * sink,
        clipped,
        keys=[order.index(names[key // width]) * width + key % width for key in found],
    )


def reference_tracker_product(u: UnfoldedArena, player: int, tracker) -> tuple[list, ZeroSumGame]:
    """A punishment game built node by node over the unfolding `u`: the
    nodes (k, q), q the tracker state after reading unfolded state k,
    reachable from every state's start node (k, the state after k's letter
    alone), numbered breadth-first from the start nodes, each looked up by
    its tuple, with every successor list built anew and the sink at
    priority 1; the build the package's game replaced."""
    step, u_succ, owner, states = cache(tracker.step), u.succ, u.owner, u.states
    labels = u.letters()
    nodes = list(dict.fromkeys((k, step(tracker.initial, x)) for k, x in enumerate(labels)))
    ids = {node: j for j, node in enumerate(nodes)}
    succ = []
    for s, q in nodes:
        out = []
        for t in u_succ[s]:
            nxt = (t, step(q, labels[t]))
            j = ids.get(nxt)
            if j is None:
                j = ids[nxt] = len(nodes)
                nodes.append(nxt)
            out.append(j)
        succ.append(out)
    game = ZeroSumGame(
        succ=succ,
        is_protagonist=[owner[s] == player for s, _ in nodes],
        priority=[1 if states[s] is BOT else tracker.priority(q) for s, q in nodes],
        pred=predecessors(succ),
    )
    return nodes, game


def reference_attractor(g: ZeroSumGame, target, *, for_protagonist: bool, within):
    """`zerosum.attractor` as it read before it seeded with
    `within.intersection(target)`."""
    attr = set(t for t in target if t in within)
    strategy: dict[int, int] = {}
    degree: dict[int, int] = {}  # successors in `within` not yet attracted
    frontier = sorted(attr)
    while frontier:
        new_frontier = []
        for t in frontier:
            for s in g.pred[t]:
                if s not in within or s in attr:
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
                        if x in within:
                            left += 1
                degree[s] = left - 1
                if left == 1:
                    attr.add(s)
                    new_frontier.append(s)
        frontier = new_frontier
    return attr, strategy


def reference_solve_parity(g: ZeroSumGame) -> WinningRegions:
    """`zerosum.solve_parity` written apart, on `reference_attractor`: the
    peel loop runs until the subgame left beside the top's attractor is won
    by nobody but the top's owner."""
    top = max(g.priority, default=0)
    if top > MAX_PRIORITY:
        raise DocumentSemanticError(
            f"priority {top} exceeds the configured bound {MAX_PRIORITY}"
        )
    w0, s0, w1, s1 = _reference_zielonka(g, set(g.states))
    return WinningRegions(frozenset(w0), frozenset(w1), s0, s1)


def _reference_zielonka(g: ZeroSumGame, domain: set[int]):
    if not domain:
        return set(), {}, set(), {}
    priority = g.priority
    present = {priority[s] for s in domain}
    p = max(present)
    j_is_pro = p % 2 == 0
    if all(q % 2 == p % 2 for q in present):
        # the owner of p's parity wins everywhere inside: each of its states
        # moves to its first successor inside
        wj, wo, so = domain, set(), {}
        sj = {s: next(t for t in g.succ[s] if t in domain)
              for s in domain if g.is_protagonist[s] == j_is_pro}
    else:
        wo, so = set(), {}
        while True:
            top = {s for s in domain if priority[s] == p}
            a_region, tau = reference_attractor(g, top, for_protagonist=j_is_pro, within=domain)
            w0p, s0p, w1p, s1p = _reference_zielonka(g, domain - a_region)
            sjp, wop, sop = (s0p, w1p, s1p) if j_is_pro else (s1p, w0p, s0p)
            if not wop:
                break
            b_region, tau2 = reference_attractor(
                g, wop, for_protagonist=not j_is_pro, within=domain
            )
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


def reference_punish_region(
    u: UnfoldedArena, player: int, tracker
) -> tuple[UnfoldedArena, PunishRegions]:
    """`zerosum.punish_region` on `reference_tracker_product`'s game, solved
    by `reference_solve_parity`, after two steps that give the game the
    package's nodes and ids: only the nodes reachable from the initial
    state's start node are kept, with the nodes at the sink merged into
    one, and they are numbered as `unfolding.product` and `unfold` number
    them: in the order a breadth-first search from the start node finds
    them, the sink last. Returns the game as an unfolding whose every node
    is its own product node, keyed by its id above its credit's key, with
    each arena edge that goes below zero from it as a failed step, and the
    region on its ids."""
    nodes, game = reference_tracker_product(u, player, tracker)
    start = nodes.index((0, tracker.step(tracker.initial, u.letters()[0])))
    seen, reached = [start], {start}
    for j in seen:  # breadth-first: the list grows while it is read
        for t in game.succ[j]:
            if t not in reached:
                reached.add(t)
                seen.append(t)
    sink = len(u.states) - 1 if u.states[-1] is BOT else -1
    keep = [j for j in seen if nodes[j][0] != sink]
    n = len(keep)
    ids = {j: n for j in seen}  # a node at the sink -> the merged sink's id
    ids.update((j, k) for k, j in enumerate(keep))
    sinks = [n] * any(nodes[j][0] == sink for j in seen)
    succ = [[ids[t] for t in game.succ[j]] for j in keep] + [[n] for _ in sinks]
    states = [u.states[nodes[j][0]] for j in keep]
    failures = []
    below = [[] for _ in keep]  # each node's failed steps
    for k, (s, c) in enumerate(states):
        for t in u.base.succ[s]:
            if credit_after(c, u.base.edges[s, t], u.bounds) is None:
                below[k].append(~len(failures))
                failures.append((t, DocumentSemanticError(f"{s}@{c} -> {t} goes below zero")))
    graph = Product(u.base, (tracker,), [s for s, _ in states], [(nodes[j][1],) for j in keep],
                    [[t for t in out if t < n] + out_below for out, out_below in zip(succ, below)],
                    failures)
    place = [prod(v + 1 for v in u.bounds[i + 1:]) for i in range(len(u.bounds))]
    width = prod(v + 1 for v in u.bounds)
    g = UnfoldedArena(
        u.base, u.bounds, tuple(states) + (BOT,) * len(sinks), succ,
        [u.owner[nodes[j][0]] for j in keep] + [1 for _ in sinks],
        u.clipped, graph, list(range(n)),
        [k * width + sum(map(mul, c, place)) for k, (_, c) in enumerate(states)],
    )
    regions = reference_solve_parity(ZeroSumGame(
        succ, [game.is_protagonist[j] for j in keep] + [player == 1 for _ in sinks],
        [game.priority[j] for j in keep] + [1 for _ in sinks], predecessors(succ),
    ))
    return g, PunishRegions(regions.protagonist, regions.antagonist_strategy)


def reference_witness_product(u: UnfoldedArena, system, trackers) -> tuple[list, WitnessProduct]:
    """The sink-free part of `u` in product with the system's component and
    the trackers, built node by node from the initial node: a node is (an
    unfolded state's id, each component's state after its letter, the
    system's first), numbered breadth-first, with its successors in
    `u.succ` order, each followed by the system's states in its order.
    Returns the nodes and the product, its SCCs and masks computed plainly:
    `sccs` holds every SCC that holds a cycle, so none is left out."""
    labels, components = u.letters(), (system, *trackers)

    def after(qs, t):  # the nodes at unfolded state id t after the node states qs
        rest = tuple(tr.step(x, labels[t]) for tr, x in zip(trackers, qs[1:]))
        return [(t, (q, *rest)) for q in system.step(qs[0], labels[t])]

    nodes = after(tuple(c.initial for c in components), 0)
    ids = {node: k for k, node in enumerate(nodes)}
    succ = []
    for s, qs in nodes:  # breadth-first: the list grows while it is read
        out = []
        for t in u.succ[s]:
            if u.states[t] is not BOT:
                for node in after(qs, t):
                    if node not in ids:
                        ids[node] = len(nodes)
                        nodes.append(node)
                    out.append(ids[node])
        succ.append(out)
    priority = [tuple(c.priority(q) for c, q in zip(components, qs)) for _, qs in nodes]
    sccs = strongly_connected_components(range(len(nodes)), succ)
    masks = [reduce(or_, [1 << k for v in comp for k, x in enumerate(priority[v]) if x % 2 == 0],
                    0) for comp in sccs]
    scc_of = [-1] * len(nodes)
    for j, comp in enumerate(sccs):
        for v in comp:
            scc_of[v] = j
    return nodes, WitnessProduct(succ, priority, sccs, masks, scc_of, cyclic=bool(sccs))


def reference_find_witness_lasso(product, winners, forbidden):
    """`synthesis.find_witness_lasso` as it read before it refined only the
    SCCs whose mask holds the winner set: with forbidden nodes, one Tarjan
    pass over every node reachable without them, and the refinement of
    every cyclic SCC found."""
    if 0 in forbidden:
        raise NoWitness("initial state forbidden")
    initials = [0]
    successors, prio = product.succ.__getitem__, product.priority
    if forbidden:
        seen, stack = set(initials), list(initials)
        while stack:
            for nxt in successors(stack.pop()):
                if nxt not in seen and nxt not in forbidden:
                    seen.add(nxt)
                    stack.append(nxt)
        allowed, pending = seen.__contains__, strongly_connected_components(seen, product.succ)
    else:
        allowed, pending = None, list(product.sccs)
    components = (0, *winners)
    accepting: dict = {}
    cyclic = bool(pending)
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
    return tuple(stem_path[:-1]) or loop, loop


# ---------------------------------------------------------------------------
# The unpruned solver loop and many-player arenas


def oracle_solve(a: Arena, bounds, dpas=None):
    """`synthesis.solve` without its winner-set pruning: every winner set is
    searched in turn, with each loser's punishment region solved the first
    time it loses, by `reference_solve_parity`, on the reference witness
    product with the sink added, the player's tracker read off its node's
    component states. It unfolds, builds the witness product and searches
    with the reference passes above; a forbidden id outside the product
    makes every search run its own reachability and SCC pass, whatever the
    losers forbid. Each search is `reference_find_witness_lasso` as this
    module's global, looked up at each call."""
    dpas = dict(dpas or {})
    u = reference_unfold(a, bounds)
    players = list(range(1, a.players + 1))
    trackers = {i: player_tracker(a, i, dpas) for i in players}
    system = system_component(a.system_objective)
    nodes, product = reference_witness_product(u, system, [trackers[i] for i in players])
    n, to_sink = len(nodes), [any(u.states[t] is BOT for t in u.succ[s]) for s, _ in nodes]
    sink = [BOT] * any(to_sink)  # the sink, last, after every edge that goes below zero
    g = UnfoldedArena(  # the product with the sink, every node its own product node
        a, u.bounds, tuple(u.states[s] for s, _ in nodes) + tuple(sink),
        [out + [n] * hit for out, hit in zip(product.succ, to_sink)] + [[n] for _ in sink],
        [u.owner[s] for s, _ in nodes] + [1 for _ in sink], u.clipped,
        Product(a, (system, *[trackers[i] for i in players]), [u.states[s][0] for s, _ in nodes],
                [qs for _, qs in nodes], product.succ, []),
        list(range(n)))
    regions, blocked, diagnostics = {}, {}, []
    for winner_set in _winner_sets(a.players):
        for i in players:
            if i not in winner_set and i not in regions:
                r = reference_solve_parity(ZeroSumGame(
                    g.succ, [o == i for o in g.owner],
                    [trackers[i].priority(qs[i]) for _, qs in nodes] + [1 for _ in sink],
                    predecessors(g.succ)))
                regions[i] = PunishRegions(r.protagonist, r.antagonist_strategy)
                blocked[i] = {k for k in r.protagonist if g.owner[k] == i}
        forbidden = {-1}.union(*[blocked[i] for i in players if i not in winner_set])
        try:
            stem, loop = reference_find_witness_lasso(product, winner_set, forbidden)
        except NoWitness as e:
            diagnostics.append((winner_set, str(e)))
            continue
        outcome = outcome_lasso(u, [nodes[k][0] for k in stem], [nodes[k][0] for k in loop])
        winners = frozenset(
            i for i in players if max(product.priority[k][i] for k in loop) % 2 == 0
        )
        path = (*stem, *loop, loop[0])
        punishment = {
            i: {} if i in winners else _reached_entries(g, i, regions[i], path)
            for i in players
        }
        profile = StrategyProfile(outcome, winners, punishment)
        return SolveResult(SolveResult.SOLUTION, profile=profile, clipped=u.clipped)
    return SolveResult(SolveResult.NO_SOLUTION, diagnostics=tuple(diagnostics), clipped=u.clipped)


def random_many_player_arena(rng: random.Random):
    """A random arena of 6-8 players and 3-6 states, each state owned by a
    random player, with random fragment objectives and random bounds: most
    of its 64-256 winner sets fail. Half the time the system objective is a
    random LTL formula instead, read through its tableau automaton."""
    players, n, dims = rng.randrange(6, 9), rng.randrange(3, 7), rng.randrange(1, 3)
    states = [f"s{k}" for k in range(n)]
    objectives = [random_fragment(rng, ARENA_ATOMS) for _ in range(players + 1)]
    if rng.random() < 0.5:
        objectives[0] = random_formula(rng, 3, ARENA_ATOMS)
    a = build_arena(
        players=players,
        dimensions=dims,
        states=states,
        owner={s: rng.randrange(1, players + 1) for s in states},
        initial="s0",
        edges={(s, t): tuple(rng.randrange(-1, 3) for _ in range(dims))
               for s in states for t in rng.sample(states, rng.randrange(1, 4))},
        atoms=list(ARENA_ATOMS),
        labels={s: [x for x in ARENA_ATOMS if rng.random() < 0.5] for s in states},
        system_objective=objectives[0],
        player_objectives=objectives[1:],
    )
    return a, tuple(rng.randrange(0, 3) for _ in range(dims))

import collections
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from carefulsynth import _graphs, ltl, synthesis, zerosum
from carefulsynth._graphs import strongly_connected_components
from carefulsynth.errors import (
    BudgetExceededError, DocumentSemanticError, UnsupportedObjectiveError,
)
from carefulsynth.synthesis import (
    NoWitness,
    SolveResult,
    check_certificate,
    find_witness_lasso,
    parse_profile,
    profile_to_document,
    result_to_document,
    solve,
    system_component,
    tracker_accepts,
    witness_product,
)
from carefulsynth.unfolding import BOT, product, unfold
from carefulsynth.zerosum import objective_tracker, parse_dpa, punish_region

import genutils
from genutils import (
    ARENA_ATOMS,
    REACH_SAFE_SHAPES,
    OracleTooBig,
    by_state,
    coalition_moves,
    game_node,
    oracle_profitable_deviation,
    oracle_reached_keys,
    oracle_solve,
    oracle_solution_exists,
    oracle_witness_exists,
    random_arena,
    random_closed_arena,
    random_credit_arena,
    random_formula,
    random_fragment,
    random_fragment_arena,
    random_many_player_arena,
    random_punishable_arena,
    random_word,
    reach_dpas,
    reference_tracker_product,
    region_of,
    scc_partition,
    state_table,
)


GOLDEN_STEM = ("a", "a", "a", "a", "b", "c")
GOLDEN_LOOP = ("circbox",)
GOLDEN_TRACE = ((0, 0), (2, 1), (3, 2), (3, 3), (3, 2), (1, 1), (0, 0))


# ---------------------------------------------------------------------------
# Witness search


def _states_of(w, witness, stem, loop):
    """The witness lasso found on the ids of `w`, the unfolded witness
    product, after checking that it is one in `witness`, its search view,
    as (stem, loop) over unfolded states."""
    assert stem and loop and stem[0] == 0
    path = [*stem, *loop, loop[0]]
    assert all(b in witness.succ[a] for a, b in zip(path, path[1:]))
    return tuple(w.states[n] for n in stem), tuple(w.states[n] for n in loop)


def _witness(a, bounds, system, trackers):
    """The unfolding of `a` in product with `system`'s component and
    `trackers`, and the witness search's view of it."""
    w = unfold(product(a, trackers, system_component(system)), bounds)
    return w, witness_product(w)


def _search(a, bounds, system, requirements, forbidden_states=frozenset()):
    """The witness search for `system` with every requirement's tracker a
    winner, every node at a state of `forbidden_states` forbidden, over
    unfolded states."""
    w, witness = _witness(a, bounds, system, [objective_tracker(f) for f in requirements])
    forbidden = {k for k in range(len(w.at)) if w.states[k] in forbidden_states}
    winners = range(1, len(requirements) + 1)
    return _states_of(w, witness, *find_witness_lasso(witness, winners, forbidden))


def test_witness_exists_for_trivial_requirement(fig1):
    stem, loop = _search(fig1, (3, 3), ltl.TRUE, [])
    assert stem and loop
    assert all(s is not BOT for s in stem + loop)


def test_witness_respects_forbidden_deviation_states(fig1):
    # forbid exactly player 3's owned nodes where it could profitably
    # deviate; the survivor is the pump-then-descend lasso ending in the
    # circle/box sink
    tracker3 = objective_tracker(fig1.objective_of(3))
    g, r3 = region_of(fig1, (3, 3), 3, tracker3)
    won = {game_node(g, j) for j in r3.win}
    w, witness = _witness(
        fig1, (3, 3), ltl.parse_ltl("F circ"), [objective_tracker(ltl.parse_ltl("F box")), tracker3]
    )
    forbidden = {
        k for k in range(len(w.at))
        if w.owner[k] == 3 and (w.states[k], w.graph.qs[w.at[k]][2]) in won
    }
    stem, loop = _states_of(w, witness, *find_witness_lasso(witness, [1], forbidden))
    assert tuple(s for s, _ in stem) == GOLDEN_STEM
    assert tuple(s for s, _ in loop) == GOLDEN_LOOP


def test_contradictory_requirements_have_no_witness(fig1):
    with pytest.raises(NoWitness, match="no accepting SCC"):
        _search(fig1, (3, 3), ltl.parse_ltl("F circ"), [ltl.parse_ltl("G ! circ")])


def test_witness_search_agrees_with_loop_set_enumeration():
    # the first requirement is the system objective, the rest are winners;
    # every third seed the first two together are the system objective, a
    # general formula that the search reads through its tableau automaton
    positives = collections.Counter()
    for seed in range(600):
        rng = random.Random(seed)
        general = seed % 3 == 0
        a, bounds = random_fragment_arena(rng)
        u = unfold(a, bounds)
        # drawn in a fixed order of the states, whatever their ids
        forbidden = {s for s in sorted(u.states[:len(u.at)]) + list(u.states[len(u.at):])
                     if rng.random() < 0.2}
        n = rng.randrange(1 + general, 4)
        formulas = [random_fragment(rng, ARENA_ATOMS) for _ in range(n)]
        try:
            expected = oracle_witness_exists(u, formulas, forbidden)
        except OracleTooBig:
            continue
        system, requirements = formulas[0], formulas[1:]
        if general:
            system, requirements = ltl.And(formulas[0], formulas[1]), formulas[2:]
            assert ltl.classify_fragment(system).kind == ltl.FragmentClass.GENERAL
        try:
            stem, loop = _search(a, bounds, system, requirements, forbidden)
        except NoWitness:
            assert not expected, seed
            continue
        assert expected, seed
        positives[general] += 1
        path = list(stem + loop + loop[:1])
        v = by_state(u)
        assert path[0] == v.initial and not forbidden & set(path), seed
        assert all(t in v.succ[s] and t is not BOT for s, t in zip(path, path[1:])), seed
        labels = [v.labels[s] for s in stem], [v.labels[s] for s in loop]
        assert all(ltl.eval_on_lasso(f, *labels) for f in formulas), seed
    assert positives[False] >= 50 and positives[True] >= 10


def test_witness_search_budget(fig1):
    # the unfolding's state budget bounds every product it unfolds
    with pytest.raises(BudgetExceededError):
        unfold(product(fig1, [], system_component(ltl.parse_ltl("F circ"))), (3, 3), max_states=3)


def _check_product_laws(a, bounds, system, trackers):
    """The product on the arena and its unfolding against what is built
    here, from the arena's edges, the trackers and the system objective:
    its own tracker in the fragments, else its tableau automaton read from
    a pre-state, (the automaton's state before the last letter, that
    letter), with `()` once it cannot read a letter. Returns the number of
    sink-free unfolded nodes."""
    if ltl.classify_fragment(system).kind == ltl.FragmentClass.GENERAL:
        nba = ltl.to_nba(system)

        def system_after(q, letter):
            if q is None or q == ():
                return [(None, letter) if q is None else ()]
            p, x = q
            read = [s for s in (nba.initial if p is None else [p]) if nba.reads(s, x)]
            dsts = sorted({d for s in read for d in nba.succ[s]})
            return [(d, letter) for d in dsts] or [()]

        system_start = None
        system_priority = lambda q: 2 if q and q[0] in nba.accepting else 1  # noqa: E731
    else:
        tracker = objective_tracker(system)
        system_start, system_priority = tracker.initial, tracker.priority

        def system_after(q, letter):
            return [tracker.step(q, letter)]

    def after(qs, t):  # the nodes at arena state t after the node states qs
        rest = tuple(tr.step(x, a.labels[t]) for tr, x in zip(trackers, qs[1:]))
        return [(t, (q, *rest)) for q in system_after(qs[0], a.labels[t])]

    g = product(a, trackers, system_component(system))
    nodes = list(zip(g.state, g.qs))
    assert len(set(nodes)) == len(nodes) == len(g.succ) and not g.failures
    # one initial node, 0; numbered in the order a breadth-first search finds them
    found = after((system_start, *[tr.initial for tr in trackers]), a.initial)
    assert len(found) == 1
    for s, qs in found:  # breadth-first: the list grows while it is read
        found += [n for n in dict.fromkeys(n for t in a.succ[s] for n in after(qs, t))
                  if n not in found]
    assert nodes == found
    for k, (s, qs) in enumerate(nodes):
        assert [nodes[j] for j in g.succ[k]] == [n for t in a.succ[s] for n in after(qs, t)]
    w = unfold(g, bounds)
    witness = witness_product(w)
    assert witness.succ is w.succ and len(witness.priority) == len(w.at)
    for k, p in enumerate(w.at):
        qs = g.qs[p]
        assert witness.priority[k] == (
            system_priority(qs[0]),
            *[tr.priority(x) for tr, x in zip(trackers, qs[1:])],
        )
    unfold(g, bounds, max_states=len(w.states))
    if len(w.states) > 1:  # only a node found after the initial one can exceed it
        with pytest.raises(BudgetExceededError):
            unfold(g, bounds, max_states=len(w.states) - 1)
    return len(w.at)


def test_closed_products_equal_the_general_build():
    # a product closed on the arena's edges, with one node per arena state
    # it reaches, is numbered as the arena's own, so its unfolding equals
    # the arena's, lists and ids; closed or not, the unfolded product's
    # `clipped` is the arena's
    counts = {(closed, sink): 0 for closed in (False, True) for sink in (False, True)}
    for generator, seed in itertools.product([random_closed_arena, random_fragment_arena], range(400)):
        a, bounds = generator(random.Random(seed))
        u = unfold(a, bounds)
        trackers = [objective_tracker(a.objective_of(i)) for i in range(1, a.players + 1)]
        g = product(a, trackers, system_component(a.system_objective))
        w = unfold(g, bounds)
        closed = genutils.one_node_per_state(g)
        counts[closed, BOT in u.states] += 1
        assert w.clipped == u.clipped, (generator, seed)
        if closed:
            assert g.state == u.graph.state and g.succ == u.graph.succ, (generator, seed)
            assert w._replace(graph=None) == u._replace(graph=None), (generator, seed)
            assert witness_product(u._replace(graph=g)) == witness_product(w), (generator, seed)
        else:
            assert len(set(g.state)) < len(g.state), (generator, seed)
    assert min(counts.values()) >= 10, counts


def test_witness_product_laws(fig1):
    trackers = [objective_tracker(fig1.objective_of(i)) for i in range(1, fig1.players + 1)]
    _check_product_laws(fig1, (3, 3), fig1.system_objective, trackers)
    # a general objective: its tableau automaton has more than one choice
    general = ltl.parse_ltl("F (circ & X box) | G ! diam")
    assert _check_product_laws(fig1, (3, 3), general, trackers) > 12
    checked = 0
    for seed in range(100):
        a, bounds = random_fragment_arena(random.Random(seed))
        trackers = [objective_tracker(a.objective_of(i)) for i in range(1, a.players + 1)]
        checked += _check_product_laws(a, bounds, a.system_objective, trackers) > 1
    assert checked >= 50


def _live_product_nodes(g) -> set:
    """The nodes of the product `g` in a mutual-reachability class that
    holds a cycle and a node with an even system priority, a failed step
    no edge."""
    edges = {p: [t for t in out if t >= 0] for p, out in enumerate(g.succ)}
    live = set()
    for comp in scc_partition(edges, edges):
        if (len(comp) > 1 or any(p in edges[p] for p in comp)) and any(
            g.components[0].priority(g.qs[p][0]) % 2 == 0 for p in comp
        ):
            live |= comp
    return live


@pytest.mark.parametrize(
    "generator, seeds",
    [
        (random_fragment_arena, 200),
        (random_punishable_arena, 150),
        (random_many_player_arena, 100),
        (random_closed_arena, 150),
    ],
)
def test_witness_sccs_are_the_full_ones_where_the_system_can_accept(generator, seeds):
    # `witness_product` runs Tarjan only on the ids whose product node lies
    # in a cyclic SCC of the product, found here as a mutual-reachability
    # class, with an even system priority: its SCCs are the full
    # decomposition's SCCs there, each with its plainly folded mask, and
    # `cyclic` says whether the full decomposition has any
    shapes = collections.Counter()
    for seed, automata in itertools.product(range(seeds), [False, True]):
        a, bounds = generator(random.Random(seed))
        dpas = reach_dpas(a) if automata else {}
        trackers = [objective_tracker(a.objective_of(i), dpas.get(i))
                    for i in range(1, a.players + 1)]
        w = unfold(product(a, trackers, system_component(a.system_objective)), bounds)
        witness, g = witness_product(w), w.graph
        live = _live_product_nodes(g)
        full = set(map(frozenset, strongly_connected_components(range(len(w.at)), w.succ)))
        want = {comp for comp in full if w.at[min(comp)] in live}
        assert set(map(frozenset, witness.sccs)) == want, (seed, automata)
        assert witness.cyclic == bool(full), (seed, automata)
        for j, (comp, mask) in enumerate(zip(witness.sccs, witness.masks)):
            assert mask == sum({1 << k for v in comp for k, x in enumerate(witness.priority[v])
                                if x % 2 == 0}), (seed, automata)
            assert all(witness.scc_of[v] == j for v in comp), (seed, automata)
        assert witness.scc_of.count(-1) == len(w.succ) - sum(map(len, witness.sccs))
        shapes[bool(want), full > want] += 1
    assert len(shapes) == 4 and min(shapes.values()) >= 15, shapes


def _node_graph(nodes, succ, priority, owner) -> dict:
    """A numbered graph in node terms: node -> (its successor nodes, its
    priority, its owner)."""
    assert len(set(nodes)) == len(nodes)
    return {n: ([nodes[t] for t in out], p, o)
            for n, out, p, o in zip(nodes, succ, priority, owner)}


def test_witness_products_with_failed_steps_equal_the_reference():
    # the credit arenas' automaton has no move on {y}, so their products
    # with it have failed steps, which are no edges of the witness product
    # (an edge into a `y` state always goes below zero, so the reference,
    # built over the unfolding, never takes one). With a random system
    # objective, some product SCCs have no even system priority, and
    # failed steps leave nodes of cyclic product SCCs: the same graph as
    # the reference's, and the reference's SCCs whose product SCC the
    # system can accept in, with the reference's masks
    seen = collections.Counter()
    for seed in range(300):
        rng = random.Random(seed)
        a, bounds, dpa = random_credit_arena(rng)
        a = a._replace(system_objective=random_formula(rng, 2, ARENA_ATOMS))
        trackers = [objective_tracker(a.objective_of(i), dpa) for i in range(1, a.players + 1)]
        system = system_component(a.system_objective)
        g = product(a, trackers, system)
        w = unfold(g, bounds)
        witness = witness_product(w)
        u = genutils.reference_unfold(a, bounds)
        nodes, ref = genutils.reference_witness_product(u, system, trackers)
        named = [(w.states[k], g.qs[p]) for k, p in enumerate(w.at)]
        ref_named = [(u.states[k], qs) for k, qs in nodes]
        sink_free = [[j for j in out if j < len(w.at)] for out in witness.succ]
        assert _node_graph(named, sink_free, witness.priority, w.owner) == _node_graph(
            ref_named, ref.succ, ref.priority, [u.owner[k] for k, _ in nodes]), seed
        live = {(g.state[p], g.qs[p]) for p in _live_product_nodes(g)}
        want = {frozenset(ref_named[v] for v in comp): mask
                for comp, mask in zip(ref.sccs, ref.masks)
                if (ref_named[comp[0]][0][0], ref_named[comp[0]][1]) in live}
        assert {frozenset(named[v] for v in comp): mask
                for comp, mask in zip(witness.sccs, witness.masks)} == want, seed
        edges = [[t for t in out if t >= 0] for out in g.succ]
        cyclic = strongly_connected_components(range(len(edges)), edges)
        seen["failed step in a cyclic product SCC"] += any(
            g.components[0].priority(qs[0]) % 2 for qs in g.qs
        ) and any(min(g.succ[p]) < 0 for comp in cyclic for p in comp)
        seen["some SCC kept"] += bool(want)
        seen["some SCC left out"] += len(want) < len(ref.sccs)
    assert seen["failed step in a cyclic product SCC"] >= 50, seen
    assert min(seen.values()) >= 20, seen


def _reference_region_graph(u, player, tracker) -> dict:
    """`reference_tracker_product`'s game on `u`, cut to the nodes reachable
    from the initial state's start node, in node terms (unfolded state,
    tracker state), with the nodes at the sink merged into (BOT, None)."""
    nodes, game = reference_tracker_product(u, player, tracker)
    start = nodes.index((0, tracker.step(tracker.initial, u.letters()[0])))
    named = [(u.states[k], None if u.states[k] is BOT else q) for k, q in nodes]
    return {named[j]: ([named[t] for t in game.succ[j]], game.priority[j], u.owner[nodes[j][0]])
            for j in genutils._reach_states(game.succ, start)}


@pytest.mark.parametrize(
    "generator, seeds",
    [(random_fragment_arena, 300), (random_punishable_arena, 200), (random_many_player_arena, 100)],
)
def test_unfolded_products_equal_the_reference(generator, seeds):
    # the witness product and every player's region game, unfolded, against
    # the reference products built node by node over `reference_unfold`,
    # for fragment players and for F players also given as automata:
    # the same nodes, edges, priorities and owners
    shapes = collections.Counter()
    for seed, automata in itertools.product(range(seeds), [False, True]):
        a, bounds = generator(random.Random(seed))
        u, dpas = genutils.reference_unfold(a, bounds), reach_dpas(a) if automata else {}
        trackers = [objective_tracker(a.objective_of(i), dpas.get(i)) for i in range(1, a.players + 1)]
        system = system_component(a.system_objective)
        g = product(a, trackers, system)
        w = unfold(g, bounds)
        witness = witness_product(w)
        sink_free = [[j for j in out if j < len(w.at)] for out in witness.succ]
        got = _node_graph([(w.states[k], g.qs[p]) for k, p in enumerate(w.at)],
                          sink_free, witness.priority, w.owner)
        nodes, ref = genutils.reference_witness_product(u, system, trackers)
        assert got == _node_graph([(u.states[k], qs) for k, qs in nodes], ref.succ,
                                  ref.priority, [u.owner[k] for k, _ in nodes]), (seed, automata)
        shapes["witness", genutils.one_node_per_state(g)] += 1
        for i, tracker in enumerate(trackers, 1):
            r = product(a, [tracker])
            game_u = unfold(r, bounds)
            game = zerosum.punishment_game(game_u, i, 0)
            names = [game_node(game_u, j) for j in range(len(game_u.states))]
            got = _node_graph(names, game.succ, game.priority, game_u.owner)
            assert got == _reference_region_graph(u, i, tracker), (seed, automata, i)
            shapes["region", genutils.one_node_per_state(r)] += 1
    assert min(shapes.values()) >= 20, shapes


@pytest.mark.parametrize("generator", [random_many_player_arena, random_fragment_arena])
def test_solve_reports_the_arenas_clipped(generator):
    # a general system objective's tableau automaton may stop reading; its
    # run then goes to a rejecting state, so the product keeps every path
    # of the arena and `clipped` is the arena unfolding's
    seen = collections.Counter()
    for seed in range(400):
        a, bounds = generator(random.Random(seed))
        clipped = unfold(a, bounds).clipped
        assert solve(a, bounds).clipped == clipped, seed
        system = product(a, [], system_component(a.system_objective))
        seen[clipped, ((),) in system.qs] += 1
    # only a general system objective, in half the many-player arenas, rejects
    rejects = {False, generator is random_many_player_arena}
    assert set(seen) == set(itertools.product([False, True], rejects)), seen
    assert min(seen.values()) >= 10, seen


def _failing_automaton_arena(cost: int):
    """s0 -> s1 (of cost `cost`), s0 -> s2, and self-loops at s1 and s2, one
    player with `F p`; s1 is labelled q and s2 p."""
    from carefulsynth.arena import build_arena

    return build_arena(
        players=1,
        dimensions=1,
        states=["s0", "s1", "s2"],
        owner={"s0": 1, "s1": 1, "s2": 1},
        initial="s0",
        edges={("s0", "s1"): (cost,), ("s0", "s2"): (0,), ("s2", "s2"): (0,), ("s1", "s1"): (0,)},
        atoms=["p", "q"],
        labels={"s1": ["q"], "s2": ["p"]},
        system_objective=ltl.TRUE,
        player_objectives=(ltl.parse_ltl("F p"),),
    )


def test_an_automaton_is_stepped_only_on_letters_the_unfolding_meets():
    # the automaton has no move from `wait` on {q}; the product on the arena
    # records that step on the edge s0 -> s1, and `unfold` raises it only
    # where a reached state takes that edge without underflow
    dpa = parse_dpa(json.dumps({
        "states": ["wait", "good"], "initial": "wait", "priorities": {"wait": 1, "good": 2},
        "transitions": [{"src": "wait", "pos": ["p"], "dst": "good"},
                        {"src": "wait", "neg": ["p", "q"], "dst": "wait"},
                        {"src": "good", "dst": "good"}],
    }))
    a = _failing_automaton_arena(-1)
    result = solve(a, (1,), {1: dpa})
    assert result.status == SolveResult.SOLUTION and result.profile.winners == {1}
    tracker = objective_tracker(a.objective_of(1), dpa)
    g = product(a, [tracker])
    assert [s for s, _ in g.failures] == ["s1"]
    assert [s for s in unfold(g, (1,)).states if s is not BOT] == [("s0", (0,)), ("s2", (0,))]
    with pytest.raises(DocumentSemanticError, match=r"no transition from 'wait' on \['q'\]"):
        unfold(product(_failing_automaton_arena(0), [tracker]), (1,))


# ---------------------------------------------------------------------------
# Solve goldens


def test_solve_fig1_small_bounds_finds_equilibrium(fig1):
    result = solve(fig1, (3, 3))
    assert result.status == SolveResult.SOLUTION
    p = result.profile
    assert p.outcome.stem == GOLDEN_STEM
    assert p.outcome.loop == GOLDEN_LOOP
    assert p.outcome.trace == GOLDEN_TRACE
    assert p.winners == frozenset({1, 2})


def test_solve_fig1_large_bounds_has_no_equilibrium(fig1):
    # with capacities (10,10) player 3 can always refill and deviate to the
    # diamond, so no supportable outcome exists
    result = solve(fig1, (10, 10))
    assert result.status == SolveResult.NO_SOLUTION
    assert result.profile is None
    # every candidate winner set is reported with a reason
    assert len(result.diagnostics) == 2 ** fig1.players
    assert all(reason for _, reason in result.diagnostics)


def _small_arena(owned, labels, edges, system, objective):
    # one player, one resource; edges are (src, dst, cost)
    from carefulsynth.arena import parse_arena

    return parse_arena(json.dumps({
        "players": 1,
        "dimensions": 1,
        "atoms": ["p", "q"],
        "states": [{"id": s, "owner": 1, "labels": labels.get(s, [])} for s in owned],
        "initial": owned[0],
        "edges": [{"src": a, "dst": b, "cost": [c]} for a, b, c in edges],
        "objectives": {"system": system, "players": {"1": objective}},
    }))


def _two_player_arena(states, edges, system, objectives):
    # states are (id, owner, labels), the first initial; edges are
    # (src, dst), which cost nothing, or (src, dst, cost)
    from carefulsynth.arena import parse_arena

    return parse_arena(json.dumps({
        "players": 2,
        "dimensions": 1,
        "atoms": ["p", "q"],
        "states": [{"id": s, "owner": o, "labels": ls} for s, o, ls in states],
        "initial": states[0][0],
        "edges": [{"src": a, "dst": b, "cost": c or [0]} for a, b, *c in edges],
        "objectives": {"system": system, "players": {"1": objectives[0], "2": objectives[1]}},
    }))


@pytest.mark.parametrize(
    "case", ["fig1", "forbidden", "acyclic", "unreadable", "sink", "cut off", "left out"]
)
def test_each_failed_winner_set_names_its_cause(fig1, case):
    if case == "fig1":
        # at (10,10) cycles survive every winner set's restriction, but none
        # meets the system objective and the winners' objectives together
        a, bounds = fig1, (10, 10)
        expected = {w: "no accepting SCC" for w in
                    [(1, 2, 3), (1, 2), (1, 3), (2, 3), (1,), (2,), (3,), ()]}
    elif case == "forbidden":
        # the loser can reach p from the initial state, which the system forbids
        edges = [("x", "x", 0), ("x", "y", 0), ("y", "y", 0)]
        a, bounds = _small_arena(["x", "y"], {"y": ["p"]}, edges, "G !p", "F p"), (0,)
        expected = {(1,): "no accepting SCC", (): "initial state forbidden"}
    elif case == "acyclic":
        # the only move underflows
        a, bounds = _small_arena(["x"], {}, [("x", "x", -1)], "true", "true"), (0,)
        expected = {w: "no cycle in the restricted product" for w in [(1,), ()]}
    elif case == "unreadable":
        # the system's automaton cannot read the first letter, so every play
        # runs into its rejecting state, on a cycle where the system's
        # component is odd; no region makes the loser win, so nothing is
        # forbidden
        a, bounds = _small_arena(["x"], {}, [("x", "x", 0)], "p", "F q"), (0,)
        expected = {w: "no accepting SCC" for w in [(1,), ()]}
    elif case == "sink":
        # player 1 wins at x by moving to z, so with player 1 a loser x is
        # forbidden; the search then reaches only i and, by i's underflowing
        # self-loop, the sink, whose self-loop is no cycle
        states = [("i", 2, []), ("x", 1, []), ("y", 1, []), ("z", 1, ["q"])]
        edges = [("i", "x"), ("i", "i", -1), ("x", "y"), ("x", "z"), ("y", "y"), ("z", "z")]
        a, bounds = _two_player_arena(states, edges, "G !q", ["F q", "F p"]), (0,)
        expected = {w: "no accepting SCC" for w in [(1, 2), (1,), (2,)]}
        expected[()] = "no cycle in the restricted product"
    else:
        # player 2 owns x and never wins; player 1 wins at y, which it owns,
        # by moving to w; the system's loop is y's, and the cycles at w and
        # z, where the system's component is odd, lie outside the SCCs the
        # witness product searches. Forbidding y and w leaves x, and at
        # "left out" the cycle at z, which is no accepting SCC
        states = [("x", 2, []), ("y", 1, ["p"]), ("w", 1, ["q"])]
        edges = [("x", "y"), ("y", "y"), ("y", "w"), ("w", "w")]
        if case == "left out":
            states, edges = states + [("z", 2, [])], edges + [("x", "z"), ("z", "z")]
        a, bounds = _two_player_arena(states, edges, "G F p", ["F q", "G p"]), (0,)
        trackers = [objective_tracker(a.objective_of(i)) for i in (1, 2)]
        _, witness = _witness(a, bounds, a.system_objective, trackers)
        full = strongly_connected_components(range(len(witness.priority)), witness.succ)
        assert len(witness.sccs) == 1 and len(full) == 2 + (case == "left out")
        expected = {w: "no accepting SCC" for w in [(1, 2), (1,), (2,)]}
        expected[()] = "no accepting SCC" if case == "left out" else (
            "no cycle in the restricted product")
    result = solve(a, bounds)
    assert result.status == SolveResult.NO_SOLUTION
    assert dict(result.diagnostics) == expected


def _searched_by_solve(monkeypatch, a, bounds, dpas=None):
    """`solve`'s result, its product and the winner sets it searched."""
    products, searched = [], []

    def product(*args):
        products.append(witness_product(*args))
        return products[-1]

    def search(product, winners, forbidden):
        searched.append(tuple(winners))
        return find_witness_lasso(product, winners, forbidden)

    with monkeypatch.context() as m:
        m.setattr(synthesis, "witness_product", product)
        m.setattr(synthesis, "find_witness_lasso", search)
        result = solve(a, bounds, dpas)
    return result, products, searched


def test_a_solve_passes_the_scc_kernel_fewer_ids_than_its_product_has(monkeypatch, fig1):
    # fig1 at (80,80) fails every winner set; naming each failure's cause
    # reads the ids a search reached, not a second pass over the product
    covered = []
    for module in (synthesis, _graphs):
        def counted(nodes, succ, kernel=module.strongly_connected_components):
            covered.append(len(nodes))
            return kernel(nodes, succ)
        monkeypatch.setattr(module, "strongly_connected_components", counted)
    result, products, _ = _searched_by_solve(monkeypatch, fig1, (80, 80))
    assert result.status == SolveResult.NO_SOLUTION
    assert sum(covered) < len(products[0].succ), (sum(covered), len(products[0].succ))


@pytest.mark.parametrize(
    "generator, seeds",
    [
        (random_fragment_arena, 1000),
        (random_punishable_arena, 600),
        (random_many_player_arena, 300),
        (random_closed_arena, 300),
    ],
)
def test_solve_equals_the_unpruned_loop(monkeypatch, generator, seeds):
    # equal verdicts, winners, outcomes and certificates, each of which the
    # checker accepts: the ids order Zielonka's tie-breaks, so they can move
    # its tables; a set that no even mask holds is not searched, and only
    # its reason may differ
    pruned_sets = checked = 0
    for case in itertools.product(range(seeds), [False, True]):
        a, bounds = generator(random.Random(case[0]))
        dpas = reach_dpas(a) if case[1] else None  # F players also as automata
        got, products, searched = _searched_by_solve(monkeypatch, a, bounds, dpas)
        want = oracle_solve(a, bounds, dpas)
        assert got._replace(diagnostics=()) == want._replace(diagnostics=()), case
        assert [w for w, _ in got.diagnostics] == [w for w, _ in want.diagnostics], case
        if got.profile is not None:
            assert check_certificate(a, bounds, got.profile, dpas=dpas) == [], case
            checked += 1
        if not products:
            continue
        # from a full SCC pass, as `witness_product` runs Tarjan only where
        # an accepted loop can lie
        full = strongly_connected_components(range(len(products[0].priority)), products[0].succ)
        pruned = "no accepting SCC" if full else "no cycle in the restricted product"
        for (w, reason), (_, expected) in zip(got.diagnostics, want.diagnostics):
            if w in searched:
                assert reason == expected, (case, w)
            else:
                pruned_sets += 1
                assert reason == pruned, (case, w)
    assert pruned_sets > 2 * seeds and checked > seeds // 2, (pruned_sets, checked)


def _causes(monkeypatch, a, bounds):
    """`solve`'s result on `a`, its witness product, the winner sets it
    searched and, for each call of `has_cycle`, whether the ids it was
    given hold a self-loop and its answer, after checking each failed
    set's cause: a searched set's is `oracle_solve`'s, and a pruned set's
    is read off a full SCC pass, as in `test_solve_equals_the_unpruned_loop`."""
    asked = []

    def spy(nodes, succ, kernel=synthesis.has_cycle):
        asked.append((any(v in succ[v] for v in nodes), kernel(nodes, succ)))
        return asked[-1][1]

    monkeypatch.setattr(synthesis, "has_cycle", spy)
    got, products, searched = _searched_by_solve(monkeypatch, a, bounds)
    want = oracle_solve(a, bounds)
    assert got.status == want.status == SolveResult.NO_SOLUTION
    full = strongly_connected_components(range(len(products[0].priority)), products[0].succ)
    pruned = "no accepting SCC" if full else "no cycle in the restricted product"
    for (w, reason), (w2, expected) in zip(got.diagnostics, want.diagnostics, strict=True):
        assert w == w2 and reason == (expected if w in searched else pruned), w
    return got, products[0], searched, asked


@pytest.mark.parametrize("case", ["two-cycle", "self-loops", "acyclic"])
def test_a_searched_sets_cause_holds_without_a_self_loop(monkeypatch, case):
    # as "cut off" above: with both players losers, y and w are forbidden
    # and the search reaches x and what x leads to outside the SCCs it
    # admits, where the system's component is odd: a cycle of two nodes, a
    # node with a self-loop, or nothing. Only the first needs Tarjan to
    # tell "no accepting SCC" from "no cycle in the restricted product"
    states = [("x", 2, []), ("y", 1, ["p"]), ("w", 1, ["q"])]
    edges = [("x", "y"), ("y", "y"), ("y", "w"), ("w", "w")]
    if case == "two-cycle":
        states, edges = states + [("z", 2, []), ("v", 2, [])], edges + [
            ("x", "z"), ("z", "v"), ("v", "z")]
    elif case == "self-loops":
        states, edges = states + [("z", 2, [])], edges + [("x", "z"), ("z", "z")]
    a = _two_player_arena(states, edges, "G F p", ["F q", "G p"])
    result, witness, searched, asked = _causes(monkeypatch, a, (0,))
    cyclic = case != "acyclic"
    assert witness.sccs and () in searched
    assert asked == [(case == "self-loops", cyclic)]  # the search of (), and no other
    assert dict(result.diagnostics)[()] == (
        "no accepting SCC" if cyclic else "no cycle in the restricted product")


@pytest.mark.parametrize("case", ["two-cycle", "self-loop", "acyclic"])
def test_a_product_without_an_accepting_scc_names_its_cycles(monkeypatch, case):
    # the system's `G F p` meets no p, so no SCC can accept and every set
    # is pruned by `witness_product`'s `cyclic`: x and y move to each
    # other, y loops, or every move goes below zero
    edges = {"two-cycle": [("x", "y"), ("y", "x")], "self-loop": [("x", "y"), ("y", "y")],
             "acyclic": [("x", "y", -1), ("y", "y", -1)]}[case]
    a = _two_player_arena([("x", 1, []), ("y", 2, [])], edges, "G F p", ["F q", "F p"])
    result, witness, searched, asked = _causes(monkeypatch, a, (0,))
    cyclic = case != "acyclic"
    assert not witness.sccs and not searched and witness.cyclic == cyclic
    assert asked == [(case == "self-loop", cyclic)]
    assert set(dict(result.diagnostics).values()) == {
        "no accepting SCC" if cyclic else "no cycle in the restricted product"}


def _search_outcome(search, product, winners, forbidden):
    try:
        return search(product, winners, forbidden)
    except NoWitness as e:
        return str(e)


@pytest.mark.parametrize(
    "generator, seeds",
    [
        (random_fragment_arena, 400),
        (random_punishable_arena, 300),
        (random_many_player_arena, 150),
    ],
)
def test_witness_search_equals_the_full_pass(monkeypatch, generator, seeds):
    # on every (winner set, forbidden) pair the oracle searches, with and
    # without its forbidden id outside the product: the same stem and loop,
    # or the same NoWitness message, as the full reachability and SCC pass
    seen, reference = collections.Counter(), genutils.reference_find_witness_lasso

    def both(product, winners, forbidden):
        want = _search_outcome(reference, product, winners, forbidden)
        for f in (forbidden, forbidden - {-1}):
            assert _search_outcome(find_witness_lasso, product, winners, f) == want
        seen[want if isinstance(want, str) else "found"] += 1
        seen["forbidden"] += len(forbidden) > 1
        if isinstance(want, str):
            raise NoWitness(want)
        return want

    monkeypatch.setattr(genutils, "reference_find_witness_lasso", both)
    for seed, automata in itertools.product(range(seeds), [False, True]):
        a, bounds = generator(random.Random(seed))
        oracle_solve(a, bounds, reach_dpas(a) if automata else None)
    assert min(seen.values()) > 0 and len(seen) == 5, seen


def test_fig1_searches_only_the_sets_its_masks_hold(monkeypatch, fig1):
    calls = collections.Counter()
    for name in ("find_witness_lasso", "punish_region"):
        def counted(*args, _fn=getattr(synthesis, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(synthesis, name, counted)
    result = solve(fig1, (10, 10))
    monkeypatch.undo()
    assert calls == {"find_witness_lasso": 4, "punish_region": 3}
    assert result == oracle_solve(fig1, (10, 10))


def test_solve_unsatisfiable_system_objective(fig1_text):
    doc = json.loads(fig1_text)
    doc["objectives"]["system"] = "false"
    from carefulsynth.arena import parse_arena

    result = solve(parse_arena(json.dumps(doc)), (3, 3))
    assert result.status == SolveResult.NO_SOLUTION


def test_solve_general_objective_without_automaton_is_unsupported(fig1_text, fig1):
    doc = json.loads(fig1_text)
    doc["objectives"]["players"]["1"] = "F (circ & X box)"
    from carefulsynth.arena import parse_arena

    a = parse_arena(json.dumps(doc))
    message = ("unsupported objective: player 1: objective (F (circ & (X box))) is outside "
               "the solvable fragments; supply a deterministic parity automaton")
    with pytest.raises(UnsupportedObjectiveError) as solved:
        solve(a, (3, 3))
    assert str(solved.value) == message
    # the checker refuses it alike, before it reads the certificate
    with pytest.raises(UnsupportedObjectiveError) as checked:
        check_certificate(a, (3, 3), solve(fig1, (3, 3)).profile)
    assert str(checked.value) == message


@pytest.mark.parametrize("bounds", [(3.0, 3), (True, 3), (3, -1), (2**63, 3), (3,), "33"])
def test_every_call_refuses_capacities_outside_the_document_rule(fig1, bounds):
    # one JSON integer per resource, from 0 to 2^63 - 1, as in an arena document
    certificate = solve(fig1, (3, 3)).profile
    for call in (lambda: solve(fig1, bounds), lambda: unfold(fig1, bounds),
                 lambda: check_certificate(fig1, bounds, certificate)):
        with pytest.raises(DocumentSemanticError, match="bounds must be 2 nonnegative"):
            call()


def test_solve_trace_stays_within_bounds(fig1):
    for bounds in [(3, 3), (4, 4), (6, 5)]:
        result = solve(fig1, bounds)
        if result.profile is None:
            continue
        for vec in result.profile.outcome.trace:
            assert all(0 <= v <= b for v, b in zip(vec, bounds))


# ---------------------------------------------------------------------------
# Punishment regions, solved for losers only


def _counted_regions(monkeypatch):
    """Record the player of every punishment region `solve` asks for."""
    calls = []

    def counted(u, player, *args):
        calls.append(player)
        return punish_region(u, player, *args)

    monkeypatch.setattr(synthesis, "punish_region", counted)
    return calls


def test_no_region_is_solved_when_every_player_wins(monkeypatch):
    calls = _counted_regions(monkeypatch)
    result = solve(_late_loser_arena("true", "F p"), (1,))
    assert result.profile.winners == frozenset({1, 2})
    assert result.profile.punishment == {1: {}, 2: {}}
    assert calls == []


@pytest.mark.parametrize("bounds, expected", [((3, 3), [3]), ((10, 10), [1, 2, 3])])
def test_a_region_is_solved_once_when_its_player_first_loses(fig1, monkeypatch, bounds, expected):
    # at (3,3) the first set, all three, fails and {1, 2} succeeds; at
    # (10,10) all 8 sets fail, and each player loses in some of them
    calls = _counted_regions(monkeypatch)
    solve(fig1, bounds)
    assert sorted(calls) == expected


def test_a_reachability_table_holds_only_the_moves_a_certificate_reads(fig1, monkeypatch):
    # a reachability region finds a coalition move at its first lookup, and
    # `solve` looks up only the entries a loser's deviations reach: none on
    # a no-solution run, exactly the certificate's table on a solution
    regions = []

    def recorded(g, player, *args):
        regions.append((g, player, punish_region(g, player, *args)))
        return regions[-1][2]

    monkeypatch.setattr(synthesis, "punish_region", recorded)
    for a, bounds in [(fig1, (10, 10)), (fig1, (3, 3)), (_one_choice_arena(), (0,))]:
        regions.clear()
        p = solve(a, bounds).profile
        assert regions
        for g, i, r in regions:  # player i's tracker is component i of g
            computed = {(g.states[j], str(g.graph.qs[g.at[j]][i])): g.states[t]
                        for j, t in r.punishment.items()}
            assert computed == ({} if p is None else p.punishment[i]), (bounds, i)
    assert len(p.punishment[1]) == 40


def test_winner_sets_are_generated_as_they_are_tried():
    sets = synthesis._winner_sets(3)
    assert iter(sets) is sets  # an iterator, not a list of all 2^n sets
    assert list(sets) == [(1, 2, 3), (1, 2), (1, 3), (2, 3), (1,), (2,), (3,), ()]


def _loser_tables(a, bounds, seed):
    """Solve; when a profile is found, check that only its losers carry a
    table, each the region's table cut to the keys the loser's deviations
    reach, and that the certificate checks. Returns the losers' tables, or
    None without a profile."""
    p = solve(a, bounds).profile
    if p is None:
        return None
    u = unfold(a, bounds)
    o = p.outcome
    ustates = tuple(zip(o.stem + o.loop, o.trace))
    tables = []
    for i in range(1, a.players + 1):
        if i in p.winners:
            assert p.punishment[i] == {}, seed
        else:
            # the region's table, kept only where a deviation reads it
            g, region = region_of(a, bounds, i, objective_tracker(a.objective_of(i)))
            table = state_table(g, i, region)
            assert p.punishment[i].items() <= table.items(), seed
            assert set(p.punishment[i]) == oracle_reached_keys(
                u, i, a.objective_of(i), table,
                ustates[: len(o.stem)], ustates[len(o.stem):],
            ), seed
            tables.append(p.punishment[i])
    assert check_certificate(a, bounds, p) == [], seed
    return tables


def test_only_losers_carry_a_punishment_table():
    solved = losers = 0
    for seed in range(300):
        rng = random.Random(seed)
        a, bounds = random_fragment_arena(rng)
        tables = _loser_tables(a, bounds, seed)
        if tables is None:
            continue
        losers += len(tables)
        solved += 1
    assert solved >= 80 and losers >= 80


def test_only_losers_carry_a_punishment_table_on_punishable_arenas():
    # most losers here have a nonempty table, which random fragment arenas
    # rarely give (20 of 98 losers over the same seeds)
    tables = []
    for seed in range(300):
        tables += _loser_tables(*random_punishable_arena(random.Random(seed)), seed) or []
    assert len(tables) >= 120 and sum(map(bool, tables)) >= 80


# ---------------------------------------------------------------------------
# Parity-automaton objectives


DPA_F_CIRC = {
    "states": ["wait", "good"],
    "initial": "wait",
    "priorities": {"wait": 1, "good": 2},
    "transitions": [
        {"src": "wait", "pos": ["circ"], "dst": "good"},
        {"src": "wait", "neg": ["circ"], "dst": "wait"},
        {"src": "good", "dst": "good"},
    ],
}


def test_solve_with_automaton_objective_matches_formula_solve(fig1):
    dpa = parse_dpa(json.dumps(DPA_F_CIRC))
    direct = solve(fig1, (3, 3))
    via_dpa = solve(fig1, (3, 3), dpas={1: dpa})
    assert via_dpa.status == SolveResult.SOLUTION
    assert via_dpa.profile.outcome == direct.profile.outcome
    assert via_dpa.profile.winners == direct.profile.winners
    assert not check_certificate(fig1, (3, 3), via_dpa.profile, dpas={1: dpa})


def test_automaton_objectives_solve_and_check_like_their_formulas():
    # every F player is also given as an automaton whose states are strings:
    # the winners and the deviation starts read off the product must not
    # depend on the tracker's state values
    flag = {"wait": "False", "good": "True"}
    solved = dpa_losers = dpa_tables = dpa_winners = 0
    for seed in range(1000):
        a, bounds = random_fragment_arena(random.Random(seed))
        dpas = reach_dpas(a)
        if not dpas:
            continue
        direct, via_dpa = solve(a, bounds), solve(a, bounds, dpas=dpas)
        assert via_dpa.status == direct.status, seed
        assert via_dpa.diagnostics == direct.diagnostics, seed
        if direct.profile is None:
            continue
        p, q = direct.profile, via_dpa.profile
        assert (q.outcome, q.winners) == (p.outcome, p.winners), seed
        tables = {
            i: {(s, flag[f]): t for (s, f), t in table.items()} if i in dpas else table
            for i, table in q.punishment.items()
        }
        assert tables == p.punishment, seed
        assert check_certificate(a, bounds, p) == [], seed
        assert check_certificate(a, bounds, q, dpas=dpas) == [], seed
        solved += 1
        dpa_losers += len(dpas.keys() - q.winners)
        dpa_tables += sum(bool(q.punishment[i]) for i in dpas)
        dpa_winners += len(dpas.keys() & q.winners)
    assert solved >= 60 and dpa_losers >= 25 and dpa_tables >= 3 and dpa_winners >= 40


# ---------------------------------------------------------------------------
# Loser punishment regions, read at the tracker state the outcome carries


def _late_loser_arena(system, p1_objective):
    # x -> y -> s and x -> s; s loops; only y carries p; player 1 owns s
    from carefulsynth.arena import parse_arena

    return parse_arena(json.dumps({
        "players": 2,
        "dimensions": 1,
        "atoms": ["p"],
        "states": [
            {"id": "x", "owner": 2, "labels": []},
            {"id": "y", "owner": 2, "labels": ["p"]},
            {"id": "s", "owner": 1, "labels": []},
        ],
        "initial": "x",
        "edges": [
            {"src": a, "dst": b, "cost": [0]}
            for a, b in [("x", "y"), ("x", "s"), ("y", "s"), ("s", "s")]
        ],
        "objectives": {"system": system, "players": {"1": p1_objective, "2": "true"}},
    }))


def test_automaton_loser_region_agrees_with_formula_path():
    a = _late_loser_arena("G !p", "F p")
    direct = solve(a, (1,))
    assert direct.status == SolveResult.SOLUTION
    assert direct.profile.winners == frozenset({2})
    assert check_certificate(a, (1,), direct.profile) == []
    dpa = parse_dpa(json.dumps(DPA_F_CIRC).replace('"circ"', '"p"'))
    assert solve(a, (1,), dpas={1: dpa}).status == SolveResult.SOLUTION


def test_loser_that_already_lost_does_not_block_the_outcome():
    # x y s^omega is an equilibrium: player 1 has lost once y is visited
    # and has no move to deviate with afterwards
    a = _late_loser_arena("F p", "G !p")
    assert solve(a, (1,)).status == SolveResult.SOLUTION


# ---------------------------------------------------------------------------
# Certificate checking


def test_solver_output_passes_the_checker(fig1):
    result = solve(fig1, (3, 3))
    assert check_certificate(fig1, (3, 3), result.profile) == []


def test_checker_rejects_wrong_winner_declaration(fig1):
    p = solve(fig1, (3, 3)).profile
    bad = p._replace(winners=frozenset({1, 2, 3}))
    violations = check_certificate(fig1, (3, 3), bad)
    assert any("player 3" in v and "declared winner" in v for v in violations)


def test_checker_rejects_outcome_missing_system_objective(fig1):
    from carefulsynth.arena import Lasso

    p = solve(fig1, (3, 3)).profile
    # pump fully, then descend into the box-only sink: careful, but F circ
    # fails
    bad = p._replace(
        outcome=Lasso(stem=("a", "a", "a", "a", "b"), loop=("box",)),
        winners=frozenset({2}),
    )
    violations = check_certificate(fig1, (3, 3), bad)
    assert any("system objective" in v for v in violations)


def test_checker_rejects_outcome_through_deviation_region(fig1):
    # under (10,10) the golden path visits ("c",(4,1)) where player 3 can
    # carefully force the diamond; the checker must flag it
    from carefulsynth.arena import Lasso

    p = solve(fig1, (3, 3)).profile
    bad = p._replace(outcome=Lasso(stem=GOLDEN_STEM, loop=GOLDEN_LOOP))
    violations = check_certificate(fig1, (10, 10), bad)
    assert any("player 3" in v and "deviation" in v for v in violations)


def test_checker_rejects_underflowing_outcome(fig1):
    from carefulsynth.arena import Lasso

    p = solve(fig1, (3, 3)).profile
    bad = p._replace(outcome=Lasso(stem=("a", "b"), loop=("box",)), winners=frozenset({2}))
    violations = check_certificate(fig1, (3, 3), bad)
    assert any("depletes" in v for v in violations)


def test_checker_rejects_a_loop_that_changes_the_resources(fig1):
    # a -> a gains (2, 1) up to the capacities: the loop's first pass starts
    # at (2, 1), its second at (3, 2)
    from carefulsynth.arena import Lasso

    p = solve(fig1, (3, 3)).profile
    bad = p._replace(outcome=Lasso(stem=("a",), loop=("a",)))
    assert check_certificate(fig1, (3, 3), bad) == [
        "loop is not resource-stable: repeating it changes the resource vector"
    ]


def _one_choice_arena(n=40, e_labels=()):
    # player 1 owns d and may deviate to any ek; there player 2 either
    # punishes (z) or concedes p (pk). The outcome x d s^omega never sees p.
    from carefulsynth.arena import parse_arena

    es = [f"e{k:02d}" for k in range(n)]
    edges = [("x", "d"), ("d", "s"), ("s", "s"), ("z", "z")]
    for k, e in enumerate(es):
        edges += [("d", e), (e, "z"), (e, f"p{k:02d}"), (f"p{k:02d}", f"p{k:02d}")]
    states = [("x", 2, []), ("d", 1, []), ("s", 1, ["q"]), ("z", 1, [])]
    states += [(e, 2, list(e_labels)) for e in es] + [(f"p{k:02d}", 1, ["p"]) for k in range(n)]
    return parse_arena(json.dumps({
        "players": 2,
        "dimensions": 1,
        "atoms": ["p", "q", *e_labels],
        "states": [{"id": i, "owner": o, "labels": l} for i, o, l in states],
        "initial": "x",
        "edges": [{"src": a, "dst": b, "cost": [0]} for a, b in edges],
        "objectives": {"system": "F q", "players": {"1": "F p", "2": "true"}},
    }))


def test_checker_rejects_truncated_punishment_table():
    # every deviation of player 1 meets a coalition state, so its table is
    # consulted (at fig1 (3,3) player 3's deviations all underflow, and an
    # empty table there is a valid certificate)
    a = _one_choice_arena()
    p = solve(a, (0,)).profile
    assert check_certificate(a, (0,), p) == []
    bad = p._replace(punishment={1: {}, 2: p.punishment[2]})
    violations = check_certificate(a, (0,), bad)
    assert any("player 1" in v and "punishment" in v for v in violations)
    assert all("player 2" not in v for v in violations)


def test_checker_rejects_a_table_that_fails_against_one_deviator_choice():
    # of player 1's 40 deviations, only the one through e00 is left
    # unpunished; a sampled deviator can miss it
    a = _one_choice_arena()
    result = solve(a, (0,))
    p = result.profile
    assert result.status == SolveResult.SOLUTION and p.winners == frozenset({2})
    assert p.outcome.stem + p.outcome.loop == ("x", "d", "s")
    table = dict(p.punishment[1])
    assert table[(("e00", (0,)), "False")] == ("z", (0,))
    table[(("e00", (0,)), "False")] = ("p00", (0,))
    bad = p._replace(punishment={1: table, 2: p.punishment[2]})
    violations = check_certificate(a, (0,), bad)
    assert violations == ["player 1: careful profitable deviation from d@0"]


# F p that also moves on r; the coalition states ek are labelled r, so the
# automaton state after reading ek (the table key) is not the one before it
DPA_F_P_MOVED_BY_R = {
    "states": ["wait", "waitr", "good"],
    "initial": "wait",
    "priorities": {"wait": 1, "waitr": 1, "good": 2},
    "transitions": [
        {"src": q, "pos": ["p"], "dst": "good"} for q in ("wait", "waitr")
    ] + [
        {"src": "wait", "pos": ["r"], "neg": ["p"], "dst": "waitr"},
        {"src": "wait", "neg": ["p", "r"], "dst": "wait"},
        {"src": "waitr", "neg": ["p"], "dst": "waitr"},
        {"src": "good", "dst": "good"},
    ],
}


def test_a_certificate_names_each_node_in_one_spelling(tmp_path, capsys):
    # "e00@\u0660" (an Arabic-Indic zero) once named e00@0 too, so a later
    # entry for e00@0 hid the losing move to p00 and the table was accepted
    from carefulsynth.arena import arena_to_document
    from carefulsynth.cli import run

    arena = tmp_path / "arena.json"
    arena.write_text(json.dumps(arena_to_document(_one_choice_arena(n=2))))
    certificate = tmp_path / "certificate.json"

    def check(table):
        doc = {"outcome": {"stem": ["x", "d"], "loop": ["s"], "trace": [[0], [0], [0]]},
               "winners": [2], "punishment": {"1": table, "2": {}}}
        certificate.write_text(json.dumps(doc))
        code = run(["check", str(arena), str(certificate), "--bounds", "0"])
        return (code, *capsys.readouterr())

    punished = {"e00@0|False": "z@0", "e01@0|False": "z@0"}
    assert check(punished)[:2] == (0, '{\n  "verdict": "ok",\n  "violations": []\n}\n')
    assert check({**punished, "e00@0|False": "p00@0"})[0] == 1
    assert check({"e00@\u0660|False": "p00@0", **punished}) == (
        2, "", "error: a credit in 'e00@\u0660' must be a natural number in ASCII digits, "
        "with no sign or leading zero, got '\u0660'\n")


def test_automaton_loser_table_is_read_after_the_letter(tmp_path, capsys):
    from carefulsynth.arena import arena_to_document
    from carefulsynth.cli import run

    arena = tmp_path / "arena.json"
    arena.write_text(json.dumps(arena_to_document(_one_choice_arena(e_labels=["r"]))))
    dpa = tmp_path / "dpa.json"
    dpa.write_text(json.dumps(DPA_F_P_MOVED_BY_R))

    def cli(*argv):
        code = run([*map(str, argv), "--bounds", "0", "--dpa", f"1={dpa}"])
        return code, capsys.readouterr().out

    assert run(["solve", str(arena), "--bounds", "0"]) == 0
    direct = json.loads(capsys.readouterr().out)
    code, out = cli("solve", arena)
    via_dpa = json.loads(out)
    assert code == 0
    for key in ("status", "outcome", "winners"):
        assert via_dpa[key] == direct[key], key
    assert via_dpa["winners"] == [2] and "dpa_players" not in via_dpa
    certificate = tmp_path / "certificate.json"
    certificate.write_text(out)
    assert cli("check", arena, certificate)[0] == 0
    # the entry a deviation through e00 consults: e00 read from wait
    # leaves the automaton in waitr
    assert via_dpa["punishment"]["1"]["e00@0|waitr"] == "z@0"
    via_dpa["punishment"]["1"]["e00@0|waitr"] = "p00@0"
    certificate.write_text(json.dumps(via_dpa))
    code, out = cli("check", arena, certificate)
    assert code == 1
    assert "player 1: careful profitable deviation from d@0" in out


def test_reach_loser_table_forces_the_sink_once_the_target_is_seen():
    # player 1 (F p) may deviate d -> s, seeing p at s; at e the coalition
    # must take the underflowing edge to z, not the p-free loop at y, even
    # though from a play that has not seen p both moves punish
    from carefulsynth.arena import parse_arena

    a = parse_arena(json.dumps({
        "players": 2,
        "dimensions": 1,
        "atoms": ["p", "q"],
        "states": [
            {"id": i, "owner": o, "labels": l}
            for i, o, l in [
                ("x", 2, []), ("d", 1, []), ("o", 2, ["q"]), ("s", 1, ["p"]),
                ("e", 2, []), ("y", 2, []), ("z", 2, []),
            ]
        ],
        "initial": "x",
        "edges": [
            {"src": a, "dst": b, "cost": [c]}
            for a, b, c in [
                ("x", "d", 0), ("d", "o", 0), ("o", "o", 0), ("d", "s", 0),
                ("s", "e", 0), ("e", "y", 0), ("e", "z", -1), ("y", "y", 0),
                ("z", "z", 0),
            ]
        ],
        "objectives": {"system": "F q", "players": {"1": "F p", "2": "true"}},
    }))
    p = solve(a, (0,)).profile
    assert p.outcome.stem + p.outcome.loop == ("x", "d", "o")
    assert p.winners == frozenset({2})
    assert p.punishment[1][(("e", (0,)), "True")] is BOT
    assert check_certificate(a, (0,), p) == []


def test_checker_accepts_a_loser_that_has_already_lost():
    # player 1 (G !p) lost at y and owns only s, where it has no other move
    from carefulsynth.arena import Lasso
    from carefulsynth.synthesis import StrategyProfile

    a = _late_loser_arena("F p", "G !p")
    x, y, s = ("x", (0,)), ("y", (0,)), ("s", (0,))
    profile = StrategyProfile(
        outcome=Lasso(stem=("x", "y"), loop=("s",), trace=((0,), (0,), (0,))),
        winners=frozenset({2}),
        punishment={1: {(x, "False"): y, (y, "True"): s}, 2: {}},
    )
    assert check_certificate(a, (1,), profile) == []


def test_checker_rejects_tampered_trace(fig1):
    from carefulsynth.arena import Lasso

    p = solve(fig1, (3, 3)).profile
    trace = list(p.outcome.trace)
    trace[1] = (9, 9)
    bad = p._replace(outcome=Lasso(stem=GOLDEN_STEM, loop=GOLDEN_LOOP, trace=tuple(trace)))
    violations = check_certificate(fig1, (3, 3), bad)
    assert any("trace" in v for v in violations)


def _table_entries(rng, a, bounds, u):
    """Entries of every kind the edge clause judges: a reachable key with a
    successor and with a non-successor as its value, a well-formed key the
    unfolding does not reach, an unknown base state, a component over the
    bound, and the sink with itself and with another value."""
    s = rng.choice(u.states)
    others = [t for t in u.states if t not in u.succ[s]]
    vectors = list(itertools.product(*(range(b + 1) for b in bounds)))
    unreached = [(x, c) for x in sorted(a.states) for c in vectors if (x, c) not in u.succ]
    entries = [
        ("reachable", s, rng.choice(u.succ[s])),
        ("unknown state", ("nowhere", (0,) * a.dimensions), u.initial),
        ("over the bound", (a.initial, tuple(b + 1 for b in bounds)), u.initial),
        ("sink", BOT, BOT),
        ("sink", BOT, rng.choice(u.states)),
    ]
    if others:
        entries.append(("non-successor", s, rng.choice(others)))
    if unreached:
        entries.append(("unreachable", rng.choice(unreached), rng.choice(u.states)))
    return entries


def test_table_entries_are_edges_exactly_when_the_unfolding_has_them():
    # the clause read against the whole unfolding as the oracle: a key is
    # an edge's source iff `unfold` reaches it, and the value one of its
    # successors there
    kinds = collections.Counter()
    for seed in range(300):
        rng = random.Random(seed)
        a, bounds = random_fragment_arena(rng)
        p = solve(a, bounds).profile
        if p is None:
            continue
        u = by_state(unfold(a, bounds))
        for kind, s, value in _table_entries(rng, a, bounds, u):
            i = rng.randrange(1, a.players + 1)
            key = (s, rng.choice(["False", "True"]))
            table = {**p.punishment[i], key: value}
            tampered = p._replace(punishment={**p.punishment, i: table})
            flagged = [v for v in check_certificate(a, bounds, tampered) if "is not an edge" in v]
            edge = s in u.succ and value in u.succ[s]
            expected = [] if edge else [
                f"player {i}: punishment entry {key!r} -> {value!r} is not an edge"
            ]
            assert flagged == expected, (seed, kind)
            kinds[kind, edge] += 1
    assert kinds["unreachable", False] >= 50 and kinds["non-successor", False] >= 50
    assert kinds["reachable", True] >= 50 and kinds["sink", True] >= 20
    assert kinds["sink", False] >= 50


def _winners_only():
    a = _late_loser_arena("true", "F p")
    p = solve(a, (1,)).profile
    assert p.winners == frozenset({1, 2}) and p.punishment == {1: {}, 2: {}}
    return a, (1,), p


def test_the_checker_does_not_unfold(fig1, monkeypatch):
    # fig1 (3,3) has a loser, whose deviations are read; the loser of the
    # one-choice arena also has a nonempty table
    a = _one_choice_arena()
    certificates = [
        (fig1, (3, 3), solve(fig1, (3, 3)).profile),
        (a, (0,), solve(a, (0,)).profile),
        _winners_only(),
    ]
    assert certificates[1][2].punishment[1]

    def refuse(*args, **kwargs):
        raise AssertionError("the checker unfolded the arena")

    monkeypatch.setattr(synthesis, "unfold", refuse)
    for a, bounds, p in certificates:
        assert check_certificate(a, bounds, p) == []


def test_the_state_budget_bounds_the_states_the_checker_steps(fig1):
    # every player wins and every table is empty: no state is stepped, so a
    # budget below the size of the unfolding does not matter
    a, bounds, p = _winners_only()
    assert len(unfold(a, bounds).states) > 1
    assert check_certificate(a, bounds, p, max_states=1) == []
    # an unreachable key makes the search for it walk the whole unfolding
    size = len(unfold(fig1, (3, 3)).states)
    p = solve(fig1, (3, 3)).profile
    key = (("a", (1, 1)), "False")
    table = {**p.punishment[3], key: ("a", (0, 0))}
    p = p._replace(punishment={**p.punishment, 3: table})
    with pytest.raises(BudgetExceededError, match=f"state budget of {size - 1}"):
        check_certificate(fig1, (3, 3), p, max_states=size - 1)
    assert check_certificate(fig1, (3, 3), p, max_states=size) == [
        f"player 3: punishment entry {key!r} -> ('a', (0, 0)) is not an edge"
    ]


def test_the_checker_steps_only_what_the_kept_entries_and_deviations_reach(fig1):
    # a table holds only the entries a deviation reads, so the checker's
    # search for a table entry's state stops early; with Zielonka's whole
    # coalition strategy as the table it stepped all 12 states of fig1 (3,3)
    p = solve(fig1, (3, 3)).profile
    assert p.winners == frozenset({1, 2}) and p.punishment[3] == {}
    assert check_certificate(fig1, (3, 3), p, max_states=1) == []
    a = _one_choice_arena()
    p = solve(a, (0,)).profile
    g, region = region_of(a, (0,), 1, objective_tracker(a.objective_of(1)))
    assert len(p.punishment[1]) == 40 and len(coalition_moves(g, 1, region)) == 41
    assert check_certificate(a, (0,), p, max_states=44) == []
    with pytest.raises(BudgetExceededError, match="state budget of 43"):
        check_certificate(a, (0,), p, max_states=43)


# ---------------------------------------------------------------------------
# Documents


def test_profile_document_round_trip(fig1):
    p = solve(fig1, (3, 3)).profile
    again = parse_profile(json.dumps(profile_to_document(p)))
    assert again.outcome == p.outcome
    assert again.winners == p.winners
    assert {i: dict(t) for i, t in again.punishment.items()} == {
        i: dict(t) for i, t in p.punishment.items()
    }
    assert check_certificate(fig1, (3, 3), again) == []


def test_result_document_parses_as_profile(fig1):
    # the solver's full result document doubles as a profile document
    doc = result_to_document(solve(fig1, (3, 3)))
    p = parse_profile(json.dumps(doc))
    assert check_certificate(fig1, (3, 3), p) == []


# ---------------------------------------------------------------------------
# Agreement with brute-force enumeration


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_solve_agrees_with_lasso_enumeration(seed):
    rng = random.Random(seed)
    a = random_arena(rng)
    bounds = tuple(rng.randrange(0, 3) for _ in range(a.dimensions))
    try:
        expected = oracle_solution_exists(a, bounds)
    except OracleTooBig:
        return
    result = solve(a, bounds)
    assert (result.status == SolveResult.SOLUTION) == expected
    if result.profile is not None:
        assert check_certificate(a, bounds, result.profile) == []


def _conjunction_system_arena(seed):
    """A random arena with F and G objectives whose system objective is the
    conjunction of two of them, outside the fragments."""
    rng = random.Random(seed)
    a, bounds = random_fragment_arena(rng, REACH_SAFE_SHAPES)
    system = ltl.And(a.system_objective, random_fragment(rng, ARENA_ATOMS, REACH_SAFE_SHAPES))
    return a._replace(system_objective=system), bounds


def test_solve_agrees_with_lasso_enumeration_on_f_and_g_objectives():
    # a loser's region must be read at the flag the outcome carries: the
    # late-loser arenas first, then random arenas with F and G objectives,
    # then with a conjunction of them as the system objective, which the
    # witness search reads through its tableau automaton
    cases = [(_late_loser_arena("G !p", "F p"), (1,)), (_late_loser_arena("F p", "G !p"), (1,))]
    cases += [random_fragment_arena(random.Random(seed), REACH_SAFE_SHAPES) for seed in range(400)]
    cases += [_conjunction_system_arena(seed) for seed in range(400, 600)]
    checked = solved = 0
    general = collections.Counter()
    for k, (a, bounds) in enumerate(cases):
        try:
            expected = oracle_solution_exists(a, bounds, cap=30_000)  # skips 3 slow arenas
        except OracleTooBig:
            continue
        result = solve(a, bounds)
        assert (result.status == SolveResult.SOLUTION) == expected, k
        is_general = isinstance(a.system_objective, ltl.And)
        if result.profile is not None:
            assert check_certificate(a, bounds, result.profile) == [], k
            solved += 1
            general["solved"] += is_general
        checked += 1
        general["checked"] += is_general
    assert checked >= 300 and solved >= 100
    assert general["checked"] >= 150 and general["solved"] >= 20, general


# ---------------------------------------------------------------------------
# Trackers and the exact deviation check against independent references


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tracker_verdict_matches_lasso_evaluation(seed):
    rng = random.Random(seed)
    phi = random_fragment(rng)
    stem, loop = random_word(rng)
    assert tracker_accepts(objective_tracker(phi), stem, loop) == ltl.eval_on_lasso(
        phi, stem, loop
    )


@pytest.mark.parametrize("text, verdict", [
    ("F q", True), ("G !p", False), ("G F p", True), ("F G !p", False),
    ("G F q", False), ("F G !q", True), ("F (p & q)", False), ("G (!p | !q)", True),
])
def test_tracker_verdict_on_a_long_lasso(text, verdict):
    # 2,000 positions: q only at the last of the stem, p only at the last
    # of the loop, so `G F p` holds only through the wrap to the loop head
    stem = [frozenset()] * 999 + [frozenset({"q"})]
    loop = [frozenset()] * 999 + [frozenset({"p"})]
    phi = ltl.parse_ltl(text)
    assert ltl.eval_on_lasso(phi, stem, loop) == verdict
    assert tracker_accepts(objective_tracker(phi), stem, loop) == verdict


def _deviation_verdicts(a, bounds, u, profile):
    """(checker, oracle) verdict on a profitable deviation, per loser."""
    violations = check_certificate(a, bounds, profile)
    o = profile.outcome
    ustates = tuple(zip(o.stem + o.loop, o.trace))
    return [
        (
            any(v.startswith(f"player {i}:") and "deviation" in v for v in violations),
            oracle_profitable_deviation(
                u, i, a.objective_of(i), profile.punishment[i],
                ustates[: len(o.stem)], ustates[len(o.stem):],
            ),
        )
        for i in range(1, a.players + 1)
        if i not in profile.winners
    ]


def _tampered_verdicts(rng, a, bounds, seed):
    """Solve; when a profile is found, change each loser's table at one or
    two coalition states and return the checker's and the oracle's verdicts
    per loser, after asserting that they agree."""
    p = solve(a, bounds).profile
    if p is None:
        return []
    assert check_certificate(a, bounds, p) == [], seed
    u = unfold(a, bounds)
    v = by_state(u)
    tables = {i: dict(t) for i, t in p.punishment.items()}
    for i in set(tables) - p.winners:
        keys = sorted(k for k in tables[i] if k[0] is not BOT and v.owner[k[0]] != i)
        for k in rng.sample(keys, min(len(keys), rng.randrange(1, 3))):
            tables[i][k] = rng.choice(v.succ[k[0]])
    got = _deviation_verdicts(a, bounds, u, p._replace(punishment=tables))
    assert all(found == expected for found, expected in got), seed
    return got


def test_checker_finds_exactly_the_deviations_the_oracle_finds():
    # solver certificates, each loser's table changed at one or two
    # coalition states
    verdicts = []
    for seed in range(300):
        rng = random.Random(seed)
        a, bounds = random_fragment_arena(rng)
        verdicts += _tampered_verdicts(rng, a, bounds, seed)
    assert len(verdicts) >= 50 and (True, True) in verdicts


def test_checker_finds_exactly_the_deviations_the_oracle_finds_on_punishable_arenas():
    verdicts = []
    for seed in range(300):
        rng = random.Random(seed)
        a, bounds = random_punishable_arena(rng)
        verdicts += _tampered_verdicts(rng, a, bounds, seed)
    assert len(verdicts) >= 120 and (True, True) in verdicts and (False, False) in verdicts


def test_checker_agrees_with_the_oracle_on_random_profiles():
    # a random sink-free lasso of the unfolding as the outcome and a random
    # table per player; deviations are profitable far more often here
    from carefulsynth.synthesis import StrategyProfile, outcome_lasso

    verdicts = []
    for seed in range(1500):
        rng = random.Random(seed)
        a, bounds = random_fragment_arena(rng)
        u = unfold(a, bounds)
        path = [0]
        while True:
            moves = [t for t in u.succ[path[-1]] if u.states[t] is not BOT]
            if not moves:
                break
            t = rng.choice(moves)
            if t in path:
                break
            path.append(t)
        if not moves or t == 0:
            continue
        stem, loop = tuple(path[: path.index(t)]), tuple(path[path.index(t):])
        letter = u.letters()
        labels = [letter[k] for k in stem], [letter[k] for k in loop]
        players = range(1, a.players + 1)
        profile = StrategyProfile(
            outcome=outcome_lasso(u, stem, loop),
            winners=frozenset(i for i in players if ltl.eval_on_lasso(a.objective_of(i), *labels)),
            punishment={
                i: {
                    (s, str(flag)): u.states[rng.choice(u.succ[k])]
                    for k, s in enumerate(u.states) if s is not BOT and u.owner[k] != i
                    for flag in (False, True)
                }
                for i in players
            },
        )
        got = _deviation_verdicts(a, bounds, u, profile)
        assert all(found == expected for found, expected in got), seed
        verdicts += got
    assert verdicts.count((True, True)) >= 20 and verdicts.count((False, False)) >= 20

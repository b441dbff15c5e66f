import collections
import itertools
import json
import random
import sys
import tracemalloc
from collections import deque
from math import prod
from operator import le, mul

import pytest
from hypothesis import given, settings, strategies as st

from carefulsynth import ltl
from carefulsynth.arena import build_arena
from carefulsynth.errors import DocumentSemanticError, UnsupportedObjectiveError
from carefulsynth.ltl import FragmentClass
from carefulsynth.unfolding import BOT, credit_after, pre_image, pre_image_steps, product, unfold
from carefulsynth.zerosum import (
    ZeroSumGame,
    attractor,
    dpa_step,
    objective_tracker,
    parse_dpa,
    predecessors,
    punish_region,
    punishment_game,
    solve_parity,
)

from carefulsynth import synthesis, zerosum

import genutils
from genutils import (
    LabelledGame,
    coalition_moves,
    game_as_unfolding,
    game_node,
    make_game,
    oracle_attractor,
    oracle_fragment_region,
    oracle_parity_region,
    oracle_wins_against_table,
    one_node_per_state,
    random_closed_arena,
    random_credit_arena,
    random_fragment_arena,
    random_game,
    random_many_player_arena,
    random_punishable_arena,
    reach_dpas,
    reference_punish_region,
    reference_solve_parity,
    reference_tracker_product,
    region_of,
    state_table,
)

P = ltl.Atom("p")


# ---------------------------------------------------------------------------
# Attractor


def _attract(g, targets):
    return attractor(g, targets, for_protagonist=True, within=set(g.states))


def test_attractor_contains_targets():
    g = random_game(random.Random(0))
    targets = set(g.states[:2])
    att, _ = _attract(g, targets)
    assert targets <= att


def _diamond_attractor(a, bounds, player):
    """The unfolded states from which `player` forces a diamond state, on
    its region game with a `true` tracker: the arena's unfolding."""
    g = unfold(product(a, [objective_tracker(ltl.TRUE)]), bounds)
    assert one_node_per_state(g.graph) and g.states == unfold(a, bounds).states
    targets = {k for k, x in enumerate(g.letters()) if "diam" in x}
    att, _ = _attract(punishment_game(g, player, 0), targets)
    return {g.states[k] for k in att}


def test_attractor_fig1_careful_deviation_blocked(fig1):
    # player 3 cannot force the diamond from (c,1,1) under bounds (3,3):
    # moving costs (-3,0) and pumping first drops resource 2 below zero
    assert ("c", (1, 1)) not in _diamond_attractor(fig1, (3, 3), 3)


def test_attractor_fig1_larger_bounds_enable_deviation(fig1):
    assert ("c", (4, 1)) in _diamond_attractor(fig1, (10, 10), 3)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_attractor_is_monotone(seed):
    rng = random.Random(seed)
    g = random_game(rng)
    k = rng.randrange(0, len(g.states))
    small = set(rng.sample(list(g.states), k))
    extra = set(rng.sample(list(g.states), rng.randrange(0, len(g.states))))
    a1, _ = _attract(g, small)
    a2, _ = _attract(g, small | extra)
    assert a1 <= a2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_attractor_matches_strategy_enumeration(seed):
    rng = random.Random(seed)
    g = random_game(rng, max_states=6, sink_prob=0.0)
    targets = {s for s in g.states if rng.random() < 0.3}
    att, strat = _attract(g, targets)
    assert att == oracle_attractor(g, targets)
    for s, t in strat.items():
        assert t in g.succ[s]


# ---------------------------------------------------------------------------
# Fragment objectives: tracker products solved by Zielonka


FRAGMENT_OBJECTIVE = {
    FragmentClass.REACH: ltl.Eventually(P),
    FragmentClass.SAFE: ltl.Always(P),
    FragmentClass.BUCHI: ltl.Always(ltl.Eventually(P)),
    FragmentClass.COBUCHI: ltl.Eventually(ltl.Always(P)),
}


def _solve_fragment(g, kind):
    """The product of g with the tracker of kind's objective over p, as
    player 1's region game on g as an unfolding, from every state's start
    node (the reference build, which `test_region_game_equals_the_reference`
    pins the package's game to): its nodes and game, its regions, the
    protagonist's region read at the start nodes, and the ids of those
    nodes (s, the tracker state after reading s)."""
    tracker = objective_tracker(FRAGMENT_OBJECTIVE[kind])
    u, image = game_as_unfolding(g)
    nodes, game = reference_tracker_product(u, 1, tracker)
    reg = solve_parity(game)
    ids, letter = {node: k for k, node in enumerate(nodes)}, u.letters()
    start = {
        s: ids[(image[s], tracker.step(tracker.initial, letter[image[s]]))]
        for s in g.states
    }
    win = {s for s in g.states if start[s] in reg.protagonist}
    return nodes, game, reg, win, start.values()


def test_reach_initial_target():
    g = make_game([[0]], [True], [frozenset({"p"})])
    _, _, _, win, _ = _solve_fragment(g, FragmentClass.REACH)
    assert 0 in win


def test_buchi_self_loop_pulls_in_reachers():
    g = make_game([[1], [1]], [True, True], [frozenset(), frozenset({"p"})])
    _, game, _, win, _ = _solve_fragment(g, FragmentClass.BUCHI)
    assert win == {0, 1}
    assert len(game.states) == 2  # G F adds no tracker state


def test_general_fragment_is_rejected():
    with pytest.raises(UnsupportedObjectiveError):
        objective_tracker(ltl.parse_ltl("F (p & X p)"))


def _flag_run(frag, word):
    """The flags and priorities a fragment tracker's run takes over `word`,
    computed from beta directly: seen (F), failed (G), held at the last
    letter (G F, F G)."""
    q, flags = False, []
    for x in word:
        held = ltl.eval_bool(frag.beta, x)
        q = {FragmentClass.REACH: q or held, FragmentClass.SAFE: q or not held}.get(frag.kind, held)
        flags.append(q)
    top = {FragmentClass.SAFE: (2, 1), FragmentClass.COBUCHI: (1, 0)}.get(frag.kind, (1, 2))
    return flags, [top[q] for q in flags]


@pytest.mark.parametrize("seed", range(40))
def test_fragment_tracker_reads_beta_once_per_letter(seed, monkeypatch):
    # stepped along a walk of a random fragment arena, each tracker runs
    # through the flags beta gives, and evaluates beta at most once per
    # distinct letter: on each letter it reads until its flag settles
    rng = random.Random(seed)
    a, _ = random_fragment_arena(rng)
    walk = [a.initial]
    for _ in range(30):
        walk.append(rng.choice(a.succ[walk[-1]]))
    word = [a.labels[s] for s in walk]
    original = ltl.eval_bool
    for objective in (a.system_objective, *a.player_objectives):
        frag = ltl.classify_fragment(objective)
        flags, priorities = _flag_run(frag, word)
        calls = []

        def counted(phi, letter):
            if phi == frag.beta:  # not a recursive call on a subformula
                calls.append(letter)
            return original(phi, letter)

        monkeypatch.setattr(ltl, "eval_bool", counted)
        tracker, states = objective_tracker(objective), []
        q = tracker.initial
        for x in word:
            q = tracker.step(q, x)
            states.append(q)
        monkeypatch.setattr(ltl, "eval_bool", original)
        assert states == flags and list(map(tracker.priority, states)) == priorities
        settles = frag.kind in (FragmentClass.REACH, FragmentClass.SAFE) and True in flags
        read = word[: flags.index(True) + 1] if settles else word
        assert calls == list(dict.fromkeys(read)), objective


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fragment_regions_match_strategy_enumeration(seed):
    rng = random.Random(seed)
    g = random_game(rng)
    for kind in FRAGMENT_OBJECTIVE:
        _, game, reg, win, _ = _solve_fragment(g, kind)
        assert win == oracle_fragment_region(g, kind, P), kind
        # determinacy: regions partition the product
        assert reg.protagonist | reg.antagonist == set(game.states)
        assert not (reg.protagonist & reg.antagonist)


def _simulate(g, strat, start, rng, other_is_pro):
    pos = start
    path = []
    seen = {}
    while pos not in seen:
        seen[pos] = len(path)
        path.append(pos)
        if g.is_protagonist[pos] == other_is_pro:
            pos = strat[pos]
        else:
            pos = rng.choice(g.succ[pos])
    return path, seen[pos]


def _strategy_cases(g, rng):
    """(game, its regions, the node where each of g's states starts, the
    protagonist's winning test on a lasso) for every fragment, played on its
    tracker product, and for random priorities on g itself."""
    sat = {
        s: s not in g.losing_sinks and ltl.eval_bool(P, g.labels[s])
        for s in g.states
    }

    def careful(won):
        return lambda path, loop: not (set(path) & g.losing_sinks) and won(path, loop)

    wins = {
        FragmentClass.REACH: careful(lambda path, loop: any(sat[x] for x in path)),
        FragmentClass.SAFE: careful(lambda path, loop: all(sat[x] for x in path)),
        FragmentClass.BUCHI: careful(lambda path, loop: any(sat[x] for x in loop)),
        FragmentClass.COBUCHI: careful(lambda path, loop: all(sat[x] for x in loop)),
    }

    # a state of g at each unfolded state: every losing sink is BOT there
    state_of = {us: s for s, us in game_as_unfolding(g)[1].items()}

    def on_nodes(nodes, won):
        def at(path):
            return [state_of[nodes[k][0]] for k in path]

        return lambda path, loop: won(at(path), at(loop))

    def case(game, reg, starts, won):
        # the callers simulate only from starts inside a region; a start
        # outside the game would let them pass without simulating
        assert all(n in reg.protagonist or n in reg.antagonist for n in starts)
        return game, reg, starts, won

    for kind, won in wins.items():
        nodes, game, reg, _, start = _solve_fragment(g, kind)
        yield case(game, reg, start, on_nodes(nodes, won))
    pg = LabelledGame(
        g.succ, g.is_protagonist, [rng.randrange(0, 5) for _ in g.states], g.labels, g.losing_sinks
    )
    yield case(
        pg,
        solve_parity(pg),
        pg.states,
        lambda path, loop: max(pg.priority[x] for x in loop) % 2 == 0,
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_protagonist_strategy_wins_under_random_opposition(seed):
    rng = random.Random(seed)
    g = random_game(rng)
    for game, reg, starts, won in _strategy_cases(g, rng):
        for node in starts:
            if node in reg.protagonist:
                for _ in range(10):
                    path, k = _simulate(game, reg.protagonist_strategy, node, rng, True)
                    assert won(path, path[k:])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_antagonist_strategy_spoils_under_random_opposition(seed):
    rng = random.Random(seed)
    g = random_game(rng)
    for game, reg, starts, won in _strategy_cases(g, rng):
        for node in starts:
            if node in reg.antagonist:
                for _ in range(10):
                    path, k = _simulate(game, reg.antagonist_strategy, node, rng, False)
                    assert not won(path, path[k:])


# ---------------------------------------------------------------------------
# Parity


def test_all_even_priorities_win_everywhere():
    g = random_game(random.Random(3), sink_prob=0.0)
    reg = solve_parity(
        LabelledGame(g.succ, g.is_protagonist, [2] * len(g.states), g.labels, g.losing_sinks)
    )
    assert set(reg.protagonist) == set(g.states)


def test_priority_bound_enforced():
    g = random_game(random.Random(4), sink_prob=0.0)
    with pytest.raises(DocumentSemanticError):
        solve_parity(
            LabelledGame(g.succ, g.is_protagonist, [99] * len(g.states), g.labels, g.losing_sinks)
        )


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_parity_matches_strategy_enumeration(seed):
    rng = random.Random(seed)
    g = random_game(rng, max_states=7, sink_prob=0.0)
    g = LabelledGame(
        g.succ, g.is_protagonist, [rng.randrange(0, 5) for _ in g.states], g.labels, g.losing_sinks
    )
    reg = solve_parity(g)
    assert set(reg.protagonist) == oracle_parity_region(g)


def test_parity_long_countdown_keeps_the_recursion_limit():
    # From t_i (id 2i - 1) the play is forced down to u_{i-1} (id 2i - 2);
    # at u_i (id 2i) the protagonist either loops on priority 1 or visits
    # t_i. It loses everywhere, and Zielonka peels off two states per round.
    k = 1500
    succ, priority = [[0]], [1]
    for i in range(1, k + 1):
        succ += [[2 * i - 2], [2 * i - 1, 2 * i]]
        priority += [2, 1]
    n = len(succ)
    g = make_game(succ, [True] * n, [frozenset()] * n, priority=priority)
    assert len(g.states) >= 3000
    limit = sys.getrecursionlimit()
    reg = solve_parity(g)
    assert sys.getrecursionlimit() == limit
    assert reg.antagonist == frozenset(range(n))


def _random_parity_game(rng: random.Random) -> ZeroSumGame:
    n = rng.randrange(1, 13)
    succ = [rng.sample(range(n), rng.randrange(1, min(n, 3) + 1)) for _ in range(n)]
    return ZeroSumGame(
        succ, [rng.random() < 0.5 for _ in range(n)], [rng.randrange(0, 7) for _ in range(n)],
        predecessors(succ),
    )


def _count_calls(monkeypatch, *functions) -> dict:
    """Count the calls to each function (module, name), by name."""
    calls = {}
    for module, name in functions:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        calls[name] = 0
        monkeypatch.setattr(module, name, counted)
    return calls


def test_parity_equals_the_reference_on_random_games(monkeypatch):
    # Zielonka's loop and the reference's, written apart, return the same
    # regions and the same strategies of both sides on every game; a peel
    # is an attractor to a target that holds none of the top priority of
    # `within`, and 768 of these games take one
    peeled = set()  # the seeds of the games that take one

    def attractor(g, target, *, for_protagonist, within, _real=zerosum.attractor):
        if target and max(g.priority[s] for s in within) not in {g.priority[s] for s in target}:
            peeled.add(seed)
        return _real(g, target, for_protagonist=for_protagonist, within=within)

    monkeypatch.setattr(zerosum, "attractor", attractor)
    for seed in range(1500):
        g = _random_parity_game(random.Random(seed))
        assert solve_parity(g) == reference_solve_parity(g), seed
    assert len(peeled) >= 700, len(peeled)


@pytest.mark.parametrize("generator", [random_fragment_arena, random_punishable_arena])
def test_parity_equals_the_reference_on_region_games(generator):
    # the region games of fragment players, and of F players also given as
    # automata
    games = 0
    for seed in range(300):
        a, bounds = generator(random.Random(seed))
        dpas = reach_dpas(a)
        for i in range(1, a.players + 1):
            for automaton in {False, i in dpas}:
                tracker = objective_tracker(a.objective_of(i), dpas[i] if automaton else None)
                game = punishment_game(unfold(product(a, [tracker]), bounds), i, 0)
                assert solve_parity(game) == reference_solve_parity(game), (seed, i, automaton)
                games += 1
    assert games >= 600


def test_fig1_closed_reach_regions_take_one_credit_fixpoint_and_no_predecessor_lists(
        monkeypatch, fig1):
    # at (80,80) every F game has absorbing targets and no target with an
    # edge into the sink: one fixpoint on credit sets solves it on the
    # witness product's unfolding, with predecessor lists over the
    # product's nodes only, never over the ids, no attractor and no
    # Zielonka round
    u = _witness_unfolding(fig1, (80, 80))
    calls = _count_calls(monkeypatch, (zerosum, "credit_region"), (zerosum, "attractor"),
                         (zerosum, "solve_parity"))
    sizes = []
    monkeypatch.setattr(zerosum, "predecessors",
                        lambda succ, _fn=zerosum.predecessors: sizes.append(len(succ)) or _fn(succ))
    n = len(u.graph.state)
    assert one_node_per_state(u.graph)
    for i in range(1, fig1.players + 1):
        assert ltl.classify_fragment(fig1.objective_of(i)).kind == FragmentClass.REACH
        calls.update(dict.fromkeys(calls, 0))
        sizes.clear()
        punish_region(u, i, i)
        assert calls == {"credit_region": 1, "attractor": 0, "solve_parity": 0}, i
        assert sizes == [n + 1] and n + 1 < len(u.succ), (i, sizes)


def _reachability_shaped(game) -> bool:
    # priorities 1 and 2 only, and no successor of priority 1 after priority 2
    priority = game.priority
    return {1, 2}.issuperset(priority) and all(
        priority[t] == 2 for out, p in zip(game.succ, priority) if p == 2 for t in out
    )


def _sink_edge_from_a_target(g, game) -> bool:
    sink = len(g.states) - 1
    return g.states[-1] is BOT and any(
        sink in out for out, p in zip(game.succ, game.priority) if p == 2
    )


def test_reachability_regions_equal_zielonka(monkeypatch):
    # exactly the reachability-shaped games are solved on credit sets, and
    # the credit sets and Zielonka's algorithm both give the reference's
    # region and table, for every player and for each F player also given
    # as an automaton, on the package's game and on the reference's, whose
    # every node is its own product node; both paths run often, the credit
    # sets also on games that are not the arena's unfolding, and Zielonka's
    # on closed F games (one node per arena state) with a target that has
    # an edge into the sink
    calls = _count_calls(monkeypatch, (zerosum, "solve_parity"))
    paths = dict.fromkeys(["credit sets", "credit sets, not the arena", "zielonka",
                           "closed F, target to sink"], 0)
    generators = [random_fragment_arena, random_punishable_arena, random_closed_arena,
                  random_many_player_arena]
    for generator, seed in itertools.product(generators, range(400)):
        a, bounds = generator(random.Random(seed))
        u, dpas = unfold(a, bounds), reach_dpas(a)
        for i in range(1, a.players + 1):
            for automaton in {False, i in dpas}:
                tracker = objective_tracker(a.objective_of(i), dpas[i] if automaton else None)
                before = calls["solve_parity"]
                g = unfold(product(a, [tracker]), bounds)
                r = punish_region(g, i, 0)
                took_credit_sets = calls["solve_parity"] == before
                ref_g, ref = reference_punish_region(u, i, tracker)
                case = (generator.__name__, seed, i, automaton)
                assert (g.states, g.succ) == (ref_g.states, ref_g.succ), case
                assert r.win == ref.win and coalition_moves(g, i, r) == ref.punishment, case
                before = calls["solve_parity"]
                on_ref = punish_region(ref_g, i, 0)
                assert (calls["solve_parity"] == before) == took_credit_sets, case
                assert on_ref.win == ref.win, case
                assert coalition_moves(ref_g, i, on_ref) == ref.punishment, case
                game = punishment_game(g, i, 0)
                assert took_credit_sets == _reachability_shaped(game), case
                if took_credit_sets:
                    paths["credit sets"] += 1
                    paths["credit sets, not the arena"] += not one_node_per_state(g.graph)
                    continue
                paths["zielonka"] += 1
                paths["closed F, target to sink"] += (
                    i in dpas and not automaton and one_node_per_state(g.graph)
                    and _sink_edge_from_a_target(g, game)
                )
    assert paths["credit sets"] >= 1000 and paths["zielonka"] >= 1000, paths
    assert paths["credit sets, not the arena"] >= 100, paths
    assert paths["closed F, target to sink"] >= 10, paths


@pytest.mark.parametrize("generator", [random_fragment_arena, random_punishable_arena,
                                       random_many_player_arena, random_closed_arena])
def test_witness_unfolding_regions_project_to_the_one_tracker_regions(monkeypatch, generator):
    # each player's region on the witness product's unfolding, where its
    # tracker is one component of several, against the region on the
    # unfolding of the arena's product with that tracker alone, the
    # reference: the nodes project onto (state, credit, tracker state) as
    # the reference's nodes, a node is won exactly when its projection is,
    # and the coalition's move from a node outside stays outside; for
    # fragment players and F players also given as automata, both on
    # credit sets and by Zielonka's algorithm
    calls = _count_calls(monkeypatch, (zerosum, "solve_parity"))
    paths = collections.Counter()
    for seed, automata in itertools.product(range(200), [False, True]):
        a, bounds = generator(random.Random(seed))
        w = _witness_unfolding(a, bounds, reach_dpas(a) if automata else None)
        for i in range(1, a.players + 1):
            before = calls["solve_parity"]
            r = punish_region(w, i, i)
            paths["zielonka" if calls["solve_parity"] > before else "credit sets"] += 1
            g, ref = region_of(a, bounds, i, w.graph.components[i])
            won = {game_node(g, j) for j in ref.win}
            projected = [(w.states[k], w.graph.qs[w.at[k]][i]) for k in range(len(w.at))]
            case = (seed, automata, i)
            assert set(projected) == {game_node(g, j) for j in range(len(g.at))}, case
            assert r.win == {k for k, node in enumerate(projected) if node in won}, case
            assert not r.win.intersection(coalition_moves(w, i, r).values()), case
    assert min(paths["credit sets"], paths["zielonka"]) >= 100, paths


def test_certificates_accept_keys_whose_nodes_move_apart():
    # nodes of the witness unfolding that share a certificate key (state,
    # credit, tracker state) can carry different coalition moves, and a
    # solve keeps one of them per key; where a player's region has such a
    # key, the solve's certificate is checked, including those whose tables
    # read one
    seen = collections.Counter()
    for seed, automata in itertools.product(range(1000), [False, True]):
        a, bounds = random_many_player_arena(random.Random(seed))
        dpas = reach_dpas(a) if automata else None
        w = _witness_unfolding(a, bounds, dpas)
        apart = {}
        for i in range(1, a.players + 1):
            moves = collections.defaultdict(set)
            for j, t in coalition_moves(w, i, punish_region(w, i, i)).items():
                if j < len(w.at):  # not the sink
                    moves[w.states[j], str(w.graph.qs[w.at[j]][i])].add(w.states[t])
            apart[i] = {key for key, targets in moves.items() if len(targets) > 1}
            seen["keys"] += len(apart[i])
        if not any(apart.values()):
            continue
        result = synthesis.solve(a, bounds, dpas)
        if result.profile is None:
            continue
        assert synthesis.check_certificate(a, bounds, result.profile, dpas=dpas) == [], seed
        seen["certificates"] += 1
        seen["read"] += any(apart[i].intersection(table)
                            for i, table in result.profile.punishment.items())
    assert seen["keys"] >= 150 and seen["certificates"] >= 50 and seen["read"] >= 3, seen


def test_pre_image_is_the_credits_an_edge_leads_into_a_set():
    # every credit at one to five resources and capacities 0-4 against
    # `credit_after`, for costs up to two more than a capacity either way
    # and random sets of credits, the empty set and every credit
    seen = collections.Counter()
    for seed in range(600):
        rng = random.Random(seed)
        bounds = tuple(rng.randrange(0, 5) for _ in range(rng.randrange(1, 6)))
        place = [prod(v + 1 for v in bounds[i + 1:]) for i in range(len(bounds))]
        credits = list(itertools.product(*(range(v + 1) for v in bounds)))  # in key order
        w = tuple(rng.randrange(-v - 2, v + 3) for v in bounds)
        steps = pre_image_steps(w, bounds)
        for won in [0, (1 << len(credits)) - 1, rng.getrandbits(len(credits))]:
            pre = pre_image(won, steps)
            expected = 0
            for k, c in enumerate(credits):
                after = credit_after(c, w, bounds)
                if after is not None and won >> sum(map(mul, after, place)) & 1:
                    expected |= 1 << k
            assert pre == expected, (seed, bounds, w, won)
        seen[len(bounds), "above"] += any(abs(x) > v for x, v in zip(w, bounds))
        seen[len(bounds), "saturates"] += any(0 < x for x in w)
    for d in range(1, 6):
        assert min(seen[d, "above"], seen[d, "saturates"]) >= 50, seen


def test_credit_regions_equal_the_attractor_at_up_to_five_resources(monkeypatch):
    # reachability-shaped games at one to five resources and capacities
    # 0-4, with costs above a capacity, edges into the sink, failed steps
    # and product nodes won at some credits and lost at others: the region
    # on credit sets, with no fallback, against the attractor of the
    # targets on the same unfolded game, its won ids and the coalition's
    # move at each of its ids outside, the first successor outside the
    # attractor
    calls = _count_calls(monkeypatch, (zerosum, "solve_parity"))
    seen = collections.Counter()
    for seed in range(600):
        a, bounds, dpa = random_credit_arena(random.Random(seed))
        d = a.dimensions
        for i in range(1, a.players + 1):
            for tracker in objective_tracker(a.objective_of(i)), objective_tracker(
                    a.objective_of(i), dpa):
                g = unfold(product(a, [tracker]), bounds)
                game = punishment_game(g, i, 0)
                if not _reachability_shaped(game):
                    continue
                r = punish_region(g, i, 0)
                targets = [j for j, p in enumerate(game.priority) if p == 2]
                won, _ = attractor(game, targets, for_protagonist=True, within=set(game.states))
                case = (seed, i, tracker.initial)
                assert r.win == won, case
                assert coalition_moves(g, i, r) == {
                    j: next(t for t in game.succ[j] if t not in won)
                    for j in game.states if not game.is_protagonist[j] and j not in won}, case
                seen[d] += 1
                seen[d, "above"] += any(abs(x) > v for w in a.edges.values()
                                        for x, v in zip(w, bounds))
                seen[d, "sink"] += g.states[-1] is BOT
                seen[d, "failed"] += bool(g.graph.failures)
                by_node = collections.defaultdict(set)  # product node -> whether its ids are won
                for j, p in enumerate(g.at):
                    by_node[p].add(j in won)
                seen[d, "credit decides"] += any(len(x) == 2 for x in by_node.values())
    assert calls["solve_parity"] == 0
    assert sum(seen[d] for d in range(1, 6)) >= 1000, seen
    for d in range(1, 6):
        assert min(seen[d, kind] for kind in ("above", "sink")) >= 100, (d, seen)
        assert seen[d, "failed"] >= 30 and seen[d, "credit decides"] >= 100, (d, seen)


def test_credit_sets_allocate_nothing_per_unit_of_capacity():
    # player 1's F game reaches one credit at capacities 10**12, where the
    # coalition moves to x and every way to the target goes below zero: a
    # credit set over the capacities would not fit in memory, so the region
    # is solved on the few ids, within the unfolding's own memory
    a = build_arena(
        players=2, dimensions=2, states=["s", "x", "t"], owner={"s": 2, "x": 1, "t": 1},
        initial="s",
        edges={("s", "x"): (0, 0), ("s", "t"): (0, -1), ("x", "x"): (0, 0),
               ("x", "t"): (-1, 0), ("t", "t"): (0, 0)},
        atoms=["goal"], labels={"s": [], "x": [], "t": ["goal"]},
        system_objective=ltl.TRUE, player_objectives=(ltl.parse_ltl("F goal"), ltl.TRUE),
    )
    bounds = (10**12, 10**12)
    tracemalloc.start()
    try:
        g = unfold(product(a, [objective_tracker(a.objective_of(1))]), bounds)
        r = punish_region(g, 1, 0)
        result = synthesis.solve(a, bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [s for s, _ in g.states[:-1]] == ["s", "x"] and g.states[-1] is BOT
    assert r.win == frozenset() and result.status == "solution"
    assert peak < 2**20


def test_a_game_without_priority_2_is_not_a_reachability_game():
    # random_fragment_arena seed 161, player 1: F G's game has priorities
    # 0 and 1, no target; it is Zielonka's, where an attractor to no target
    # would hand every node to the coalition
    a, bounds = random_fragment_arena(random.Random(161))
    assert ltl.classify_fragment(a.objective_of(1)).kind == FragmentClass.COBUCHI
    u, tracker = unfold(a, bounds), objective_tracker(a.objective_of(1))
    g = unfold(product(a, [tracker]), bounds)
    assert set(punishment_game(g, 1, 0).priority) == {0, 1}
    r = punish_region(g, 1, 0)
    assert r.win == reference_punish_region(u, 1, tracker)[1].win == set(range(7))


# ---------------------------------------------------------------------------
# Parity automata documents


DPA_FP = {
    "states": ["wait", "good"],
    "initial": "wait",
    "priorities": {"wait": 1, "good": 2},
    "transitions": [
        {"src": "wait", "pos": ["p"], "dst": "good"},
        {"src": "wait", "neg": ["p"], "dst": "wait"},
        {"src": "good", "dst": "good"},
    ],
}


def test_parse_dpa_and_step():
    dpa = parse_dpa(json.dumps(DPA_FP))
    assert dpa_step(dpa, "wait", frozenset({"p"})) == "good"
    assert dpa_step(dpa, "wait", frozenset()) == "wait"


def test_dpa_repeated_state_name_rejected():
    # as the arena reader refuses a repeated state id
    doc = dict(DPA_FP, states=["wait", "good", "wait"])
    with pytest.raises(DocumentSemanticError, match="duplicate state names"):
        parse_dpa(json.dumps(doc))


def test_dpa_nondeterminism_rejected():
    doc = dict(DPA_FP)
    doc["transitions"] = DPA_FP["transitions"] + [{"src": "wait", "dst": "good"}]
    dpa = parse_dpa(json.dumps(doc))
    with pytest.raises(DocumentSemanticError, match="nondeterministic"):
        dpa_step(dpa, "wait", frozenset())


def test_dpa_missing_transition_rejected():
    doc = dict(DPA_FP)
    doc["transitions"] = [{"src": "wait", "pos": ["p"], "dst": "good"}]
    dpa = parse_dpa(json.dumps(doc))
    with pytest.raises(DocumentSemanticError, match="no transition"):
        dpa_step(dpa, "wait", frozenset())


# ---------------------------------------------------------------------------
# Punishment regions


def _check_region_game_laws(a, bounds, player, tracker):
    """The unfolded region game against one built here, node by node, from
    the arena's unfolding `u` and the tracker: the nodes (unfolded state
    id, tracker state after reading it) reachable from the initial state's,
    with one node at the sink and no tracker state; numbered in the order
    a breadth-first search finds them, the sink moved last; successors in
    `u.succ` order, the player owning exactly its own states, priority 1 at
    BOT and the tracker's elsewhere. Zielonka's tie-breaks follow this
    order. Returns the tracker states met."""
    u = unfold(a, bounds)

    letter = u.letters()

    def at(q, t):  # the node at unfolded state id t after tracker state q
        return (t, None if u.states[t] is BOT else tracker.step(q, letter[t]))

    order = [at(tracker.initial, 0)]
    queue, seen = deque(order), set(order)
    while queue:
        s, q = queue.popleft()
        for n in (at(q, t) for t in u.succ[s]):
            if n not in seen:
                seen.add(n)
                order.append(n)
                queue.append(n)
    order.sort(key=lambda n: u.states[n[0]] is BOT)  # stable: the sink alone moves

    g = unfold(product(a, [tracker]), bounds)
    game = punishment_game(g, player, 0)
    nodes = [game_node(g, j) for j in game.states]
    assert nodes == [(u.states[s], q) for s, q in order]
    assert len(game.succ) == len(game.is_protagonist) == len(game.priority) == len(nodes)
    for k, (s, q) in enumerate(order):
        assert [nodes[j] for j in game.succ[k]] == [
            (u.states[t], q2) for t, q2 in (at(q, t) for t in u.succ[s])]
        assert game.is_protagonist[k] == (u.owner[s] == player)
        assert game.priority[k] == (1 if u.states[s] is BOT else tracker.priority(q))
    return {q for _, q in order if q is not None}


@pytest.mark.parametrize("bounds", [(3, 3), (10, 10)])
def test_region_game_laws(fig1, bounds):
    assert BOT in unfold(fig1, bounds).states
    for i in range(1, fig1.players + 1):
        # F circ and F box reach both flags; F diam at (3,3) keeps one
        flags = _check_region_game_laws(fig1, bounds, i, objective_tracker(fig1.objective_of(i)))
        assert flags == {False, True} or i == 3


@pytest.mark.parametrize(
    "generator, seeds",
    [(random_fragment_arena, 300), (random_punishable_arena, 200), (random_many_player_arena, 100)],
)
def test_region_game_equals_the_reference(generator, seeds):
    # the unfolded product against the game that the reference builds node
    # by node from every start node and cuts to the part reachable from the
    # initial state, in the same order and with the same ids, for fragment
    # players and for F players also given as automata; a game that is not
    # the arena's unfolding occurs where an F target leads back to states
    # that are not targets
    extra = {False: 0, True: 0}
    for seed in range(seeds):
        a, bounds = generator(random.Random(seed))
        u, dpas = unfold(a, bounds), reach_dpas(a)
        for i in range(1, a.players + 1):
            for automaton in {False, i in dpas}:
                tracker = objective_tracker(a.objective_of(i), dpas[i] if automaton else None)
                g = unfold(product(a, [tracker]), bounds)
                ref_g, _ = reference_punish_region(u, i, tracker)
                case = (seed, i, automaton)
                assert [game_node(g, j) for j in range(len(g.states))] == [
                    game_node(ref_g, j) for j in range(len(ref_g.states))], case
                game, ref = punishment_game(g, i, 0), punishment_game(ref_g, i, 0)
                assert (game.succ, game.is_protagonist, game.priority) == (
                    ref.succ, ref.is_protagonist, ref.priority), case
                extra[automaton] += not one_node_per_state(g.graph)
    assert min(extra.values()) >= 10, extra


def _witness_unfolding(a, bounds, dpas=None):
    """The unfolding `solve` runs on: the arena's product with the system's
    component and every player's tracker, player i's at component i."""
    trackers = [objective_tracker(a.objective_of(i), (dpas or {}).get(i))
                for i in range(1, a.players + 1)]
    return unfold(product(a, trackers, synthesis.system_component(a.system_objective)), bounds)


def test_closed_region_games_equal_the_general_build():
    # a game whose tracker is closed on the arena's edges, one node per arena
    # state it reaches, unfolds to the arena's ids and lists; and the games
    # of every player on the witness product's unfolding share its lists
    # and one predecessor list, which the first game fills, and are solved
    # as with lists of their own
    counts = {(closed, sink): 0 for closed in (False, True) for sink in (False, True)}
    generators = [random_closed_arena, random_fragment_arena]
    for generator, seed in itertools.product(generators, range(300)):
        a, bounds = generator(random.Random(seed))
        u, w, pred = unfold(a, bounds), _witness_unfolding(a, bounds), []
        sink = u.states[-1] is BOT
        for i in range(1, a.players + 1):
            p = product(a, [objective_tracker(a.objective_of(i))])
            closed = one_node_per_state(p)
            counts[closed, sink] += 1
            if closed:
                assert unfold(p, bounds)._replace(graph=None) == u._replace(graph=None), (seed, i)
            game, ref = punishment_game(w, i, i, pred), punishment_game(w, i, i)
            assert (game.succ, game.is_protagonist, game.priority, game.pred) == (
                ref.succ, ref.is_protagonist, ref.priority, predecessors(w.succ)), (seed, i)
            assert game.succ is w.succ and game.pred is pred, (seed, i)
            copied = w._replace(succ=[list(out) for out in w.succ])
            assert punish_region(w, i, i, pred) == punish_region(copied, i, i), (seed, i)
    # games that unfold to the arena's ids, with and without a sink, and games that do not
    assert counts[True, False] >= 10 and counts[True, True] >= 10, counts
    assert counts[False, False] + counts[False, True] >= 10, counts


def test_region_game_steps_an_automaton_only_on_letters_it_meets():
    # an automaton need only be complete over the letters it meets: `good`
    # has no move on {}, and no successor of a node at `good` is labelled {};
    # the edge from the unreachable s2 to s0 would step it on {} there, so
    # the product, built from the initial state, never reads it
    from carefulsynth.arena import build_arena

    dpa = parse_dpa(json.dumps({
        **DPA_FP,
        "transitions": DPA_FP["transitions"][:2] + [{"src": "good", "pos": ["p"], "dst": "good"}],
    }))
    a = build_arena(
        players=1,
        dimensions=1,
        states=["s0", "s1", "s2"],
        owner={"s0": 1, "s1": 1, "s2": 1},
        initial="s0",
        edges={("s0", "s1"): (0,), ("s1", "s1"): (0,), ("s2", "s0"): (0,)},
        atoms=["p"],
        labels={"s0": [], "s1": ["p"], "s2": ["p"]},
        system_objective=ltl.TRUE,
        player_objectives=(ltl.parse_ltl("F p"),),
    )
    u = unfold(a, (1,))
    tracker = objective_tracker(a.objective_of(1), dpa)
    g = unfold(product(a, [tracker]), (1,))
    ref_g, _ = reference_punish_region(u, 1, tracker)
    nodes = [game_node(g, j) for j in range(len(g.states))]
    assert nodes == [game_node(ref_g, j) for j in range(len(ref_g.states))] == [
        (("s0", (0,)), "wait"), (("s1", (0,)), "good")]
    assert g.succ == ref_g.succ
    result = synthesis.solve(a, (1,), {1: dpa})
    assert result.status == "solution" and result.profile.winners == {1}


def test_a_solve_unfolds_once_and_solves_every_region_on_that_unfolding(monkeypatch, fig1):
    # on fig1 and on the four generators, with F players also given as
    # automata: one `unfold` per solve, every region solved on that
    # unfolding, its lists themselves; and solving, which reads those
    # lists, writes none
    unfolded, games = [], []

    def unfold_and_keep(*args):
        u = unfold(*args)
        unfolded.append((u, [list(out) for out in u.succ]))
        return u

    def region_and_keep(g, *args):
        games.append(g)
        return punish_region(g, *args)

    monkeypatch.setattr(synthesis, "unfold", unfold_and_keep)
    monkeypatch.setattr(synthesis, "punish_region", region_and_keep)
    cases = [(fig1, bounds, None) for bounds in [(3, 3), (10, 10)]]
    for generator, seed in itertools.product([random_fragment_arena, random_punishable_arena,
                                              random_many_player_arena, random_closed_arena],
                                             range(100)):
        a, bounds = generator(random.Random(seed))
        cases += [(a, bounds, None), (a, bounds, reach_dpas(a))]
    regions = collections.Counter()
    for k, (a, bounds, dpas) in enumerate(cases):
        unfolded.clear()
        games.clear()
        synthesis.solve(a, bounds, dpas)
        [(u, before)] = unfolded
        assert u.succ == before, k
        assert all(g is u for g in games), k
        regions[k < 2] += len(games)
    assert regions[True] >= 3 and regions[False] >= 200, regions


def test_region_game_laws_with_a_parity_automaton(fig1):
    dpa = parse_dpa(json.dumps(DPA_FP).replace('"p"', '"box"'))
    tracker = objective_tracker(fig1.objective_of(2), dpa)
    assert _check_region_game_laws(fig1, (3, 3), 2, tracker) == {"wait", "good"}


def _node_ids(g) -> dict:
    """The game `g`'s ids by node (unfolded state, tracker state)."""
    return {game_node(g, j): j for j in range(len(g.states))}


def test_punish_region_fig1_small_bounds(fig1):
    g, r = region_of(fig1, (3, 3), 3, objective_tracker(fig1.objective_of(3)))
    # nodes pair an unfolded state with player 3's flag: F diam seen after it
    assert _node_ids(g)[(("c", (1, 1)), False)] not in r.win
    assert all(g.states[j] is not BOT for j in r.win)


def test_punish_region_fig1_large_bounds(fig1):
    g, r = region_of(fig1, (10, 10), 3, objective_tracker(fig1.objective_of(3)))
    assert _node_ids(g)[(("c", (4, 1)), False)] in r.win


def test_punish_region_trivial_objective_no_negative_costs():
    from carefulsynth.arena import build_arena

    a = build_arena(
        players=2,
        dimensions=1,
        states=["s", "t"],
        owner={"s": 1, "t": 2},
        initial="s",
        edges={("s", "t"): (1,), ("t", "s"): (0,), ("t", "t"): (2,)},
        atoms=[],
        labels={"s": [], "t": []},
        system_objective=ltl.TRUE,
        player_objectives=(ltl.TRUE, ltl.TRUE),
    )
    g, r = region_of(a, (2,), 1, objective_tracker(ltl.TRUE))
    # carefulness alone, no underflow anywhere; true never fails
    assert {game_node(g, j) for j in r.win} == {(s, False) for s in unfold(a, (2,)).states}


def test_punish_region_general_requires_dpa(fig1):
    with pytest.raises(UnsupportedObjectiveError):
        region_of(fig1, (1, 1), 1, objective_tracker(ltl.parse_ltl("F (circ & X box)")))


def test_punish_region_dpa_matches_fragment_region(fig1):
    # the two-state automaton above recognizes F p; run it for player 2's
    # F box objective and compare with the fragment solver
    doc = json.loads(json.dumps(DPA_FP).replace('"p"', '"box"'))
    dpa = parse_dpa(json.dumps(doc))
    g, direct = region_of(fig1, (3, 3), 2, objective_tracker(fig1.objective_of(2)))
    gd, via_dpa = region_of(fig1, (3, 3), 2, objective_tracker(fig1.objective_of(2), dpa))
    # the automaton's state good is the flag "box seen"
    won = [game_node(gd, j) for j in via_dpa.win]
    assert {(s, q == "good") for s, q in won} == {game_node(g, j) for j in direct.win}
    assert won and all(s is not BOT for s, _ in won)


def test_no_state_outside_the_region_wins_against_the_table():
    # exact: the deviator starts afresh at each state whose start node is
    # outside Win_i, the coalition follows the table at the nodes, and the
    # oracle searches the resulting one-player graph
    kinds, outside, won_inside = set(), 0, 0
    for seed in range(300):
        rng = random.Random(seed)
        a, bounds = random_fragment_arena(rng)
        u = unfold(a, bounds)
        for i in range(1, a.players + 1):
            objective = a.objective_of(i)
            kinds.add(ltl.classify_fragment(objective).kind)
            g, r = region_of(a, bounds, i, objective_tracker(objective))
            win = {game_node(g, j) for j in r.win}
            # a start node the play from the initial state never reaches is
            # not in the game
            won = {n: w for n, w in oracle_wins_against_table(
                u, i, objective, state_table(g, i, r)).items() if n in _node_ids(g)}
            assert not {n for n, w in won.items() if w and n not in win}, (seed, i)
            outside += sum(n not in win for n in won)
            won_inside += sum(w == "play" for w in won.values())
    assert kinds == set(FRAGMENT_OBJECTIVE)
    assert outside >= 1000 and won_inside >= 100


def test_closed_regions_stay_on_unfolded_ids(fig1):
    # fig1's witness product is closed on the arena's edges, one node per
    # arena state, so its unfolding has the arena's ids; each player's
    # region and table hold those ids, the table being the coalition's
    # strategy itself
    u = _witness_unfolding(fig1, (10, 10))
    assert one_node_per_state(u.graph) and u.states == unfold(fig1, (10, 10)).states
    for i in range(1, fig1.players + 1):
        r = punish_region(u, i, i)
        assert r.win and all(type(j) is int and 0 <= j < len(u.states) for j in r.win)
        moves = coalition_moves(u, i, r)
        assert moves and all(
            type(j) is int and type(t) is int and t in u.succ[j] for j, t in moves.items())
        assert moves == solve_parity(punishment_game(u, i, i)).antagonist_strategy


def test_region_ids_name_their_nodes():
    # a game's ids name distinct nodes, on games that are not the arena's
    # unfolding too; a table entry names a successor of its node
    extra = 0
    for seed in range(200):
        a, bounds = random_fragment_arena(random.Random(seed))
        dpas = reach_dpas(a)
        for i in range(1, a.players + 1):
            for automaton in {False, i in dpas}:
                tracker = objective_tracker(a.objective_of(i), dpas[i] if automaton else None)
                g, r = region_of(a, bounds, i, tracker)
                assert len(_node_ids(g)) == len(g.states)
                assert all(t in g.succ[j] for j, t in coalition_moves(g, i, r).items())
                extra += not one_node_per_state(g.graph)
    assert extra > 0


def _upward_closure(g, region) -> tuple[list, int]:
    """The faults of `region` against upward closure in the resources: a
    node (x, d, q) of its game `g` that is not won while a node (x, c, q)
    with c <= d is. Also returns how many such pairs (c, d), c != d, the
    check compared."""
    present, won = {}, {}
    for j in range(len(g.at)):  # every node but the sink, which is last
        (x, c), q = game_node(g, j)
        present.setdefault((x, q), []).append(c)
        if j in region.win:
            won.setdefault((x, q), set()).add(c)
    faults, pairs = [], 0
    for key, cs in won.items():
        for d in present[key]:
            below = [c for c in cs if c != d and all(map(le, c, d))]
            pairs += len(below)
            if below and d not in cs:
                faults.append((key, below[0], d))
    return faults, pairs


def test_fig1_regions_are_upward_closed_in_the_resources(fig1):
    # more of every resource never hurts the deviator: for each player,
    # base state and tracker state, the won resource vectors are closed
    # upward among the game's nodes
    pairs = {}
    for bounds in [(3, 3), (10, 10), (20, 20)]:
        for i in range(1, fig1.players + 1):
            g, r = region_of(fig1, bounds, i, objective_tracker(fig1.objective_of(i)))
            faults, pairs[bounds, i] = _upward_closure(g, r)
            assert not faults, (bounds, i, faults[:3])
    assert min(pairs[(20, 20), i] for i in range(1, fig1.players + 1)) >= 500, pairs


def test_random_regions_are_upward_closed_in_the_resources():
    # a step that saturates a resource at B - 1 instead of B, from above B,
    # fails this gate first at seed 346
    pairs = 0
    for seed in range(1000):
        a, bounds = random_fragment_arena(random.Random(seed))
        for i in range(1, a.players + 1):
            g, r = region_of(a, bounds, i, objective_tracker(a.objective_of(i)))
            faults, compared = _upward_closure(g, r)
            assert not faults, (seed, i, faults[:3])
            pairs += compared
    assert pairs >= 200, pairs

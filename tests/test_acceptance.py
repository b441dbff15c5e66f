"""End-to-end acceptance gate.

Each test exercises one headline guarantee at full advertised scale and
prints a single pass/fail line. Run with `pytest -v tests/test_acceptance.py`
(add -s to see the lines inline).
"""

import json
import random
import time

from carefulsynth import ltl
from carefulsynth.arena import BOT, lift
from carefulsynth.certificate import check_certificate, objective_tracker
from carefulsynth.ltl import FragmentClass
from carefulsynth.reduction import (
    build_game,
    parse_counter_automaton,
    recommended_bounds,
    simulate_reachability,
)
from carefulsynth.synthesis import SolveResult, solve
from carefulsynth.unfolding import unfold
from carefulsynth.zerosum import attractor, solve_parity

from corpus import CORPUS
from genutils import (
    LabelledGame,
    OracleTooBig,
    game_as_unfolding,
    nba_accepts_lasso,
    oracle_attractor,
    oracle_fragment_region,
    oracle_parity_region,
    oracle_solution_exists,
    project,
    random_arena,
    random_formula,
    random_game,
    random_word,
    reference_tracker_product,
    saturating_add,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance: {name}: {verdict}{suffix}")
    assert ok, f"{name}: {detail}"


# 1 ---------------------------------------------------------------------------


def test_criterion_1_figure1_golden(fig1):
    t0 = time.perf_counter()
    result = solve(fig1, (3, 3))
    elapsed = time.perf_counter() - t0
    ok = (
        result.status == SolveResult.SOLUTION
        and result.profile.outcome.stem == ("a", "a", "a", "a", "b", "c")
        and result.profile.outcome.loop == ("circbox",)
        and result.profile.winners == frozenset({1, 2})
        and check_certificate(fig1, (3, 3), result.profile) == []
        and elapsed < 1.0
    )
    _report("figure-1 golden equilibrium", ok, f"{elapsed:.3f}s")


# 2 ---------------------------------------------------------------------------


def test_criterion_2_figure1_negative(fig1):
    t0 = time.perf_counter()
    result = solve(fig1, (10, 10))
    brute = oracle_solution_exists(fig1, (10, 10))
    elapsed = time.perf_counter() - t0
    ok = result.status == SolveResult.NO_SOLUTION and brute is False and elapsed < 30.0
    _report("figure-1 negative at (10,10), brute-force confirmed", ok, f"{elapsed:.1f}s")


# 3 ---------------------------------------------------------------------------


def test_criterion_3_solver_oracle_equivalence():
    rng = random.Random(20260823)
    checked = mismatches = 0
    while checked < 500:
        a = random_arena(rng)
        bounds = tuple(rng.randrange(0, 3) for _ in range(a.dimensions))
        try:
            expected = oracle_solution_exists(a, bounds)
        except OracleTooBig:
            continue
        result = solve(a, bounds)
        got = result.status == SolveResult.SOLUTION
        if got != expected:
            mismatches += 1
        elif result.profile is not None and check_certificate(a, bounds, result.profile):
            mismatches += 1
        checked += 1
    _report(
        "solver agrees with brute-force oracle",
        mismatches == 0,
        f"{checked} arenas, {mismatches} mismatches",
    )


# 4 ---------------------------------------------------------------------------


def test_criterion_4_zero_sum_regions():
    rng = random.Random(7)
    p = ltl.Atom("p")
    games = mismatches = 0
    for _ in range(300):
        g = random_game(rng, max_states=8, sink_prob=0.15)
        targets = {s for s in g.states if rng.random() < 0.3}
        att, _ = attractor(g, targets, for_protagonist=True, within=set(g.states))
        if att != oracle_attractor(g, targets):
            mismatches += 1
        for kind, objective in (
            (FragmentClass.BUCHI, ltl.Always(ltl.Eventually(p))),
            (FragmentClass.COBUCHI, ltl.Eventually(ltl.Always(p))),
        ):
            tracker = objective_tracker(objective)
            u, image = game_as_unfolding(g)
            nodes, game = reference_tracker_product(u, 1, tracker)
            won_nodes = {nodes[k] for k in solve_parity(game).protagonist}
            letter = u.letters()
            start = {
                s: (image[s], tracker.step(tracker.initial, letter[image[s]]))
                for s in g.states
            }
            if {s for s in g.states if start[s] in won_nodes} != oracle_fragment_region(
                g, kind, p
            ):
                mismatches += 1
        if not g.losing_sinks:
            pg = LabelledGame(
                g.succ, g.is_protagonist, [rng.randrange(0, 5) for _ in g.states],
                g.labels, g.losing_sinks,
            )
            if set(solve_parity(pg).protagonist) != oracle_parity_region(pg):
                mismatches += 1
        games += 1
    _report(
        "zero-sum regions match strategy enumeration",
        games >= 300 and mismatches == 0,
        f"{games} games, {mismatches} mismatches",
    )


# 5 ---------------------------------------------------------------------------


def test_criterion_5_ltl_consistency():
    rng = random.Random(11)
    pairs = mismatches = 0
    for _ in range(200):
        phi = random_formula(rng, rng.randrange(1, 4))
        stem, loop = random_word(rng)
        direct = ltl.eval_on_lasso(phi, stem, loop)
        via_nba = nba_accepts_lasso(ltl.to_nba(phi), stem, loop)
        if direct != via_nba:
            mismatches += 1
        pairs += 1
    _report(
        "lasso evaluation agrees with automaton membership",
        pairs >= 200 and mismatches == 0,
        f"{pairs} pairs, {mismatches} mismatches",
    )


# 6 ---------------------------------------------------------------------------


def test_criterion_6_unfolding_laws():
    rng = random.Random(13)
    pairs = violations = 0
    for _ in range(200):
        a = random_arena(rng)
        bounds = tuple(rng.randrange(0, 4) for _ in range(a.dimensions))
        u = unfold(a, bounds)
        prod = 1
        for b in bounds:
            prod *= b + 1
        if len(u.states) > len(a.states) * prod + 1:
            violations += 1
        for k, us in enumerate(u.states):
            if us is BOT:
                continue
            s, c = us
            expected = set()
            expect_sink = False
            for t in a.succ[s]:
                c2 = saturating_add(c, a.edges[(s, t)], bounds)
                if all(v >= 0 for v in c2):
                    expected.add((t, c2))
                else:
                    expect_sink = True
            got = {u.states[j] for j in u.succ[k]}
            if got - {BOT} != expected or (BOT in got) != expect_sink:
                violations += 1
        for _ in range(100):
            h = [a.initial]
            for _ in range(rng.randrange(0, 6)):
                h.append(rng.choice(a.succ[h[-1]]))
            try:
                uh = lift(a, bounds, h)
            except Exception:
                continue
            if project(uh) != h:
                violations += 1
        pairs += 1
    _report(
        "unfolding laws and projection round-trip",
        pairs >= 200 and violations == 0,
        f"{pairs} pairs, {violations} violations",
    )


# 7 ---------------------------------------------------------------------------


def test_criterion_7_reduction_faithfulness():
    agreed = 0
    for name, doc, has_witness, budget in CORPUS:
        ca = parse_counter_automaton(json.dumps(doc))
        run = simulate_reachability(ca, budget=budget)
        a = build_game(ca)
        if run is not None:
            bounds = recommended_bounds(ca, run)
            verdict = solve(a, bounds).status == SolveResult.SOLUTION
        else:
            verdict = solve(a, (7, 7)).status == SolveResult.SOLUTION
        if verdict == has_witness == (run is not None):
            agreed += 1
    _report(
        "counter-automaton reduction faithful on the corpus",
        agreed == len(CORPUS) and len(CORPUS) >= 10,
        f"{agreed}/{len(CORPUS)} agree",
    )


# 8 ---------------------------------------------------------------------------


def test_criterion_8_scaling_smoke():
    # fixed 10-state ring with two pumping loops; unfolding growth must stay
    # within the |S| * prod(B_i + 1) + 1 envelope at every capacity step
    from carefulsynth.arena import build_arena

    n = 10
    states = [f"s{i}" for i in range(n)]
    edges = {}
    for i in range(n):
        edges[(f"s{i}", f"s{(i + 1) % n}")] = (1, -1) if i % 2 == 0 else (-1, 1)
        edges[(f"s{i}", f"s{i}")] = (1, 1) if i % 3 == 0 else (0, 0)
    a = build_arena(
        players=2,
        dimensions=2,
        states=states,
        owner={s: 1 + (i % 2) for i, s in enumerate(states)},
        initial="s0",
        edges=edges,
        atoms=["goal"],
        labels={s: (["goal"] if s == "s5" else []) for s in states},
        system_objective=ltl.parse_ltl("F goal"),
        player_objectives=(ltl.TRUE, ltl.TRUE),
    )
    sizes = []
    ok = True
    for b in (2, 4, 8):
        u = unfold(a, (b, b))
        envelope = n * (b + 1) ** 2 + 1
        sizes.append((b, len(u.states), envelope))
        ok = ok and len(u.states) <= envelope
    ok = ok and sizes[0][1] < sizes[1][1] < sizes[2][1]
    _report(
        "unfolding size scales within the state-space envelope",
        ok,
        "; ".join(f"B=({b},{b}): {got}<={cap}" for b, got, cap in sizes),
    )

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from carefulsynth import ltl
from carefulsynth.arena import (
    Lasso,
    arena_to_document,
    build_arena,
    cumulative_costs,
    multi_energy_check_unbounded,
    parse_arena,
    serialize_arena,
    validate_lasso,
)
from carefulsynth.errors import (
    CostOverflowError,
    DocumentSemanticError,
    DocumentSyntaxError,
)
from carefulsynth.synthesis import solve

from genutils import random_arena


# ---------------------------------------------------------------------------
# Parsing and validation


def test_fig1_shape(fig1):
    assert fig1.players == 3
    assert fig1.dimensions == 2
    assert len(fig1.states) == 6
    # five inter-state edges plus five self-loops (a and c pump; sinks idle)
    assert len(fig1.edges) == 10
    assert fig1.owner["a"] == 1 and fig1.owner["b"] == 2 and fig1.owner["c"] == 3


def test_minimal_single_state_arena():
    a = build_arena(
        players=1,
        dimensions=1,
        states=["s"],
        owner={"s": 1},
        initial="s",
        edges={("s", "s"): (0,)},
        atoms=[],
        labels={"s": []},
        system_objective=ltl.TRUE,
        player_objectives=(ltl.TRUE,),
    )
    assert a.successors("s") == ("s",)


def test_state_without_successor_rejected(fig1_text):
    doc = json.loads(fig1_text)
    doc["edges"] = [e for e in doc["edges"] if e["src"] != "b"]
    with pytest.raises(DocumentSemanticError, match="state without successor"):
        parse_arena(json.dumps(doc))


def test_syntax_error_reports_position():
    with pytest.raises(DocumentSyntaxError, match=r"line \d+"):
        parse_arena("{\n  broken")


def test_dangling_edge_rejected(fig1_text):
    doc = json.loads(fig1_text)
    doc["edges"].append({"src": "a", "dst": "ghost", "cost": [0, 0]})
    with pytest.raises(DocumentSemanticError, match="dangling"):
        parse_arena(json.dumps(doc))


def test_dimension_mismatch_rejected(fig1_text):
    doc = json.loads(fig1_text)
    doc["edges"][0]["cost"] = [1]
    with pytest.raises(DocumentSemanticError, match="components"):
        parse_arena(json.dumps(doc))


def test_unknown_label_atom_rejected(fig1_text):
    doc = json.loads(fig1_text)
    doc["states"][0]["labels"] = ["mystery"]
    with pytest.raises(DocumentSemanticError, match="unknown atom"):
        parse_arena(json.dumps(doc))


def test_reserved_atom_rejected(fig1_text):
    doc = json.loads(fig1_text)
    doc["atoms"].append("bot")
    with pytest.raises(DocumentSemanticError, match="reserved"):
        parse_arena(json.dumps(doc))


def test_owner_out_of_range_rejected(fig1_text):
    doc = json.loads(fig1_text)
    doc["states"][0]["owner"] = 7
    with pytest.raises(DocumentSemanticError, match="owner"):
        parse_arena(json.dumps(doc))


def test_missing_player_objective_defaults_to_true(fig1_text):
    doc = json.loads(fig1_text)
    del doc["objectives"]["players"]["2"]
    a = parse_arena(json.dumps(doc))
    assert a.objective_of(2) == ltl.TRUE


def test_serialize_round_trip_is_byte_stable(fig1):
    text = serialize_arena(fig1)
    again = serialize_arena(parse_arena(text))
    assert text == again


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_on_random_arenas(seed):
    a = random_arena(random.Random(seed))
    text = serialize_arena(a)
    b = parse_arena(text)
    assert arena_to_document(a) == arena_to_document(b)
    assert serialize_arena(b) == text


# ---------------------------------------------------------------------------
# Cost arithmetic


def _cost(arena, h):
    """The unbounded cost of the whole history: the fold's last vector."""
    return list(cumulative_costs(arena, h))[-1]


def test_cost_of_three_pumps(fig1):
    assert _cost(fig1, ["a", "a", "a", "a"]) == (6, 3)


def test_cost_of_initial_alone(fig1):
    assert _cost(fig1, ["a"]) == (0, 0)


def test_cost_of_pump_then_descend(fig1):
    assert _cost(fig1, ["a", "a", "a", "a", "b", "c"]) == (4, 1)


def test_cost_is_additive_per_edge(fig1):
    h1 = ["a", "a", "a"]
    h2 = h1 + ["b"]
    c1 = _cost(fig1, h1)
    c2 = _cost(fig1, h2)
    edge = fig1.edges[("a", "b")]
    assert c2 == tuple(x + y for x, y in zip(c1, edge))


def test_cost_overflow_is_reported():
    big = 2**62
    a = build_arena(
        players=1,
        dimensions=1,
        states=["s"],
        owner={"s": 1},
        initial="s",
        edges={("s", "s"): (big,)},
        atoms=[],
        labels={"s": []},
        system_objective=ltl.TRUE,
        player_objectives=(ltl.TRUE,),
    )
    with pytest.raises(CostOverflowError):
        _cost(a, ["s", "s", "s"])


# ---------------------------------------------------------------------------
# Lassos and the multi-energy check


def test_golden_lasso_is_unbounded_careful(fig1):
    l = Lasso(stem=("a", "a", "a", "a", "b", "c"), loop=("circbox",))
    assert multi_energy_check_unbounded(fig1, l)


def test_early_descent_underflows(fig1):
    l = Lasso(stem=("a", "b"), loop=("box",))
    assert not multi_energy_check_unbounded(fig1, l)


def test_negative_loop_net_fails(fig1):
    # pumping c forever loses resource 2 every turn
    l = Lasso(stem=("a", "a", "a", "a", "b", "c"), loop=("c",))
    assert not multi_energy_check_unbounded(fig1, l)


def test_validate_lasso_accepts_the_solvers_own_outcome(fig1):
    # the cached trace holds bounded vectors, which only the certificate
    # checker verifies
    outcome = solve(fig1, (3, 3)).profile.outcome
    assert outcome.trace is not None
    validate_lasso(fig1, outcome)


def test_lasso_loop_must_close(fig1):
    l = Lasso(stem=("a", "b"), loop=("c", "boxdiam"))
    with pytest.raises(DocumentSemanticError):
        validate_lasso(fig1, l)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_energy_check_matches_three_fold_unrolling(seed):
    rng = random.Random(seed)
    a = random_arena(rng)
    # random walk to a lasso
    path = [a.initial]
    for _ in range(rng.randrange(1, 12)):
        path.append(rng.choice(a.successors(path[-1])))
    anchors = [i for i, s in enumerate(path[:-1]) if (path[-1], s) in a.edges]
    if not anchors:
        return
    k = rng.choice(anchors)
    l = Lasso(stem=tuple(path[:k]) or tuple(path[: k + 1]), loop=tuple(path[k:]))
    if not l.stem or (l.stem[-1], l.loop[0]) not in a.edges:
        l = Lasso(stem=tuple(path), loop=tuple(path[k:]))
        if (path[-1], path[k]) not in a.edges:
            return
    got = multi_energy_check_unbounded(a, l)
    # reference: explicit prefix sums over stem + 3 loop traversals, plus
    # the loop-net divergence condition
    seq = list(l.stem) + list(l.loop) * 3 + [l.loop[0]]
    acc = [0] * a.dimensions
    ok = True
    for x, y in zip(seq, seq[1:]):
        for i, v in enumerate(a.edges[(x, y)]):
            acc[i] += v
        if any(v < 0 for v in acc):
            ok = False
            break
    if ok:
        cyc = list(l.loop) + [l.loop[0]]
        net = [0] * a.dimensions
        for x, y in zip(cyc, cyc[1:]):
            for i, v in enumerate(a.edges[(x, y)]):
                net[i] += v
        ok = all(v >= 0 for v in net)
    assert got == ok


# ---------------------------------------------------------------------------
# Payoffs


def _holds(arena, l, player):
    stem = [arena.labels[s] for s in l.stem]
    loop = [arena.labels[s] for s in l.loop]
    return ltl.eval_on_lasso(arena.objective_of(player), stem, loop, atoms=arena.atoms)


def test_payoffs_on_golden_lasso(fig1):
    l = Lasso(stem=("a", "a", "a", "a", "b", "c"), loop=("circbox",))
    assert _holds(fig1, l, 1)  # F circ holds
    assert _holds(fig1, l, 2)  # F box holds
    assert not _holds(fig1, l, 3)  # F diam fails


def test_payoff_of_trivial_objective(fig1_text):
    doc = json.loads(fig1_text)
    doc["objectives"]["players"]["1"] = "true"
    a = parse_arena(json.dumps(doc))
    l = Lasso(stem=("a",), loop=("a",))
    assert _holds(a, l, 1)

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from carefulsynth import ltl
from carefulsynth.arena import build_arena
from carefulsynth.errors import (
    BudgetExceededError,
    DocumentSemanticError,
    UnderflowError,
)
from carefulsynth.unfolding import (
    BOT,
    lift,
    parse_ustate,
    render_ustate,
    step,
    to_dot,
    unfold,
    unfolded_to_arena,
)

from genutils import (
    project,
    random_arena,
    random_fragment_arena,
    random_many_player_arena,
    reference_unfold,
    saturating_add,
)


# ---------------------------------------------------------------------------
# Saturating arithmetic


def test_saturation_clips_at_capacity():
    assert saturating_add((3, 2), (2, 1), (3, 3)) == (3, 3)


def test_zero_is_identity():
    assert saturating_add((0, 0), (0, 0), (7, 9)) == (0, 0)


def test_negative_results_pass_through():
    assert saturating_add((1, 1), (1, -2), (3, 3)) == (2, -1)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=3),
    st.lists(st.integers(-5, 5), min_size=3, max_size=3),
)
def test_saturating_add_componentwise_law(bounds, w):
    d = len(bounds)
    c = tuple(min(x, b) for x, b in zip([2] * d, bounds))
    out = saturating_add(c, tuple(w[:d]), tuple(bounds))
    for i in range(d):
        assert out[i] == min(c[i] + w[i], bounds[i])


# ---------------------------------------------------------------------------
# Unfolding construction


def _successors(u, us):
    """The successor states of unfolded state `us`, read through the ids."""
    return [u.states[j] for j in u.succ[u.states.index(us)]]


def test_fig1_unfolding_contains_first_pump_edge(fig1):
    u = unfold(fig1, (3, 3))
    assert u.states[0] == ("a", (0, 0))
    assert ("a", (2, 1)) in _successors(u, ("a", (0, 0)))


def test_fig1_unfolding_routes_underflow_to_sink(fig1):
    # from (c,1,1) the move to the diamond sink costs (-3,0): underflow
    u = unfold(fig1, (3, 3))
    assert BOT in _successors(u, ("c", (1, 1)))


def test_degenerate_bounds_no_sink():
    a = build_arena(
        players=1,
        dimensions=2,
        states=["s"],
        owner={"s": 1},
        initial="s",
        edges={("s", "s"): (0, 0)},
        atoms=[],
        labels={"s": []},
        system_objective=ltl.TRUE,
        player_objectives=(ltl.TRUE,),
    )
    u = unfold(a, (0, 0))
    assert u.states == (("s", (0, 0)),)
    assert BOT not in u.states


def test_sink_is_absorbing_and_owned_by_player_one(fig1):
    u = unfold(fig1, (3, 3))
    sink = u.states.index(BOT)
    assert sink == len(u.states) - 1
    assert u.succ[sink] == [sink]
    assert u.owner[sink] == 1
    assert u.letters()[sink] == frozenset({"bot"})


def test_budget_exceeded(fig1):
    with pytest.raises(BudgetExceededError):
        unfold(fig1, (100, 100), max_states=5)


def _no_sink_arena():
    # every cost is nonnegative, so no move underflows
    return build_arena(
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


def _discovery(a, bounds):
    """The unfolded states in the order a breadth-first search over `step`,
    written here without `unfold`, first finds them."""
    order = [(a.initial, (0,) * a.dimensions)]
    for us in order:
        order += [t for t in step(a, bounds, us) if t not in order]
    return order


@pytest.mark.parametrize(
    "arena, bounds, size, sink_found",
    [
        ("fig1", (3, 3), 12, 3),  # the sink is found before most states
        ("fig1", (0, 0), 2, 2),  # the sink is the last state found
        ("no sink", (2,), 5, None),
    ],
)
def test_budget_boundary(fig1, arena, bounds, size, sink_found):
    # the budget counts every unfolded state, the sink included: exactly
    # `size` states fit in a budget of `size`, and not in one less
    a = fig1 if arena == "fig1" else _no_sink_arena()
    order = _discovery(a, bounds)
    assert len(order) == size
    assert (order.index(BOT) + 1 if BOT in order else None) == sink_found
    assert len(unfold(a, bounds, max_states=size).states) == size
    with pytest.raises(BudgetExceededError):
        unfold(a, bounds, max_states=size - 1)


def test_bad_bounds_rejected(fig1):
    with pytest.raises(DocumentSemanticError):
        unfold(fig1, (3,))
    with pytest.raises(DocumentSemanticError):
        unfold(fig1, (-1, 3))


def _check_laws(a, u, bounds):
    # every non-sink state within range, edges satisfy the saturating
    # equation in `a.successors` order, sink edges last and exactly when
    # some base edge underflows; states numbered in the order `_discovery`
    # finds them, from the initial state, 0, with the sink moved last, and
    # `clipped` exactly when some reachable edge saturates
    prod = 1
    for b in bounds:
        prod *= b + 1
    assert len(u.states) <= len(a.states) * prod + 1
    found = _discovery(a, bounds)
    assert list(u.states) == [us for us in found if us is not BOT] + [BOT] * (BOT in found)
    assert u.states[0] == (a.initial, (0,) * a.dimensions)
    assert len(u.succ) == len(u.owner) == len(u.states)
    clipped = False
    for k, us in enumerate(u.states):
        successors = tuple(u.states[j] for j in u.succ[k])
        if us is BOT:
            assert successors == (BOT,)
            assert u.owner[k] == 1
            continue
        s, c = us
        assert u.owner[k] == a.owner[s]
        assert all(0 <= ci <= bi for ci, bi in zip(c, bounds))
        expected = []
        expect_sink = False
        for t in a.successors(s):
            w = a.edges[(s, t)]
            clipped = clipped or any(ci + wi > bi for ci, wi, bi in zip(c, w, bounds))
            c2 = saturating_add(c, w, bounds)
            if all(v >= 0 for v in c2):
                expected.append((t, c2))
            else:
                expect_sink = True
        assert successors == tuple(expected + [BOT] * expect_sink)
    assert u.clipped == clipped


def test_unfolding_laws_on_fig1(fig1):
    for bounds in [(0, 0), (1, 2), (3, 3), (5, 1)]:
        _check_laws(fig1, unfold(fig1, bounds), bounds)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_unfolding_laws_on_random_arenas(seed):
    rng = random.Random(seed)
    a = random_arena(rng)
    bounds = tuple(rng.randrange(0, 4) for _ in range(a.dimensions))
    _check_laws(a, unfold(a, bounds), bounds)


def _unfolded(u):
    """`u` without the arena graph it unfolds, which the reference does not
    build, after checking that each node's graph node is its state's."""
    assert [u.graph.state[p] for p in u.at] == [s for s, _ in u.states[:len(u.at)]]
    assert u.graph.components == () and u.graph.is_arena
    return u._replace(graph=None, at=None)


def test_unfold_equals_the_reference():
    # the credits stepped by component against `credit_after` per (credit,
    # cost) pair: the same states, numbering, successors and `clipped`
    clipped = 0
    for seed in range(400):
        rng = random.Random(seed)
        a = random_arena(rng)
        bounds = tuple(rng.randrange(0, 4) for _ in range(a.dimensions))
        cases = [(a, bounds), random_fragment_arena(rng), random_many_player_arena(rng)]
        for arena, b in cases:
            u = unfold(arena, b)
            assert _unfolded(u) == reference_unfold(arena, b), seed
            clipped += u.clipped
    assert 100 <= clipped <= 1100


def _one_state_arena(costs):
    return build_arena(
        players=1,
        dimensions=len(costs[0]),
        states=["s"] + [f"t{k}" for k in range(len(costs))],
        owner={"s": 1, **{f"t{k}": 1 for k in range(len(costs))}},
        initial="s",
        edges={("s", f"t{k}"): w for k, w in enumerate(costs)}
        | {(f"t{k}", f"t{k}"): (0,) * len(costs[0]) for k in range(len(costs))},
        atoms=[],
        labels={},
        system_objective=ltl.TRUE,
        player_objectives=(ltl.TRUE,),
    )


def test_an_edge_that_underflows_while_it_saturates_is_clipped():
    # from (0, 0) at (1, 1) the cost (-1, 2) goes below zero in the first
    # component and above the bound in the second: the sink, and clipped
    for costs, clipped in [([(-1, 2)], True), ([(-1, 1)], False), ([(-1, 1), (0, 2)], True)]:
        a = _one_state_arena(costs)
        u = unfold(a, (1, 1))
        assert _unfolded(u) == reference_unfold(a, (1, 1))
        assert BOT in u.states and u.clipped == clipped


def test_unfold_allocates_nothing_per_unit_of_capacity():
    # costs at most 0 reach a few states at any capacity; a table over the
    # capacities would not fit in memory
    a = _one_state_arena([(0, 0, 0), (-1, 0, 0), (0, 0, -2)])
    tracemalloc.start()
    try:
        u = unfold(a, (10**12,) * 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(u.states) == 3 and u.states[-1] is BOT and not u.clipped
    assert peak < 2**20


# ---------------------------------------------------------------------------
# Projection


def test_lift_golden_history(fig1):
    got = lift(fig1, (3, 3), ["a", "a", "a", "a", "b", "c"])
    assert got == [
        ("a", (0, 0)),
        ("a", (2, 1)),
        ("a", (3, 2)),
        ("a", (3, 3)),
        ("b", (3, 2)),
        ("c", (1, 1)),
    ]


def test_lift_reports_first_underflowing_prefix(fig1):
    # a -> b costs (0,-1) from (0,0), so the second resource dips below zero
    # already at the two-step prefix
    with pytest.raises(UnderflowError) as e:
        lift(fig1, (3, 3), ["a", "b", "c"])
    assert e.value.prefix == ("a", "b")
    assert "resource 2" in str(e.value)


def test_project_rejects_sink():
    with pytest.raises(DocumentSemanticError):
        project([("a", (0, 0)), BOT])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_project_lift_round_trip(seed):
    rng = random.Random(seed)
    a = random_arena(rng)
    bounds = tuple(rng.randrange(0, 4) for _ in range(a.dimensions))
    for _ in range(20):
        h = [a.initial]
        for _ in range(rng.randrange(0, 8)):
            h.append(rng.choice(a.successors(h[-1])))
        try:
            uh = lift(a, bounds, h)
        except UnderflowError:
            continue
        assert project(uh) == h
        # and the stored vectors match the saturating fold
        c = (0,) * a.dimensions
        for (x, cx), (y, cy) in zip(uh, uh[1:]):
            c = saturating_add(c, a.edges[(x, y)], bounds)
            assert cy == c


# ---------------------------------------------------------------------------
# Rendering


def test_ustate_rendering_round_trip():
    assert parse_ustate(render_ustate(("s1", (2, 0)))) == ("s1", (2, 0))
    assert parse_ustate("BOT") is BOT


def test_unfolded_arena_document_and_dot(fig1):
    u = unfold(fig1, (1, 1))
    doc_arena = unfolded_to_arena(u)
    assert "BOT" in doc_arena.states
    assert "bot" in doc_arena.atoms
    dot = to_dot(u)
    assert dot.startswith("digraph")
    assert '"a@0,0"' in dot

import collections
import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from carefulsynth import ltl
from carefulsynth.arena import RESERVED_ATOM, build_arena, serialize_arena
from carefulsynth.errors import (
    BudgetExceededError,
    DocumentSemanticError,
    UnderflowError,
)
from carefulsynth.unfolding import (
    BOT,
    DEFAULT_STATE_BUDGET,
    lift,
    parse_ustate,
    render_ustate,
    step,
    to_dot,
    unfold,
    unfolded_to_arena,
)

from genutils import (
    one_node_per_state,
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
    # equation in `a.succ` order, sink edges last and exactly when
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
        for t in a.succ[s]:
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
    assert u.graph.components == () and one_node_per_state(u.graph)
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


def test_unfold_equals_the_reference_at_up_to_five_resources():
    # one to five resources at capacities 0-4, each edge's cost drawn from a
    # pool of two, so that there are fewer distinct costs than states and
    # every column is short, or drawn for itself, so that most costs are
    # distinct; both kinds, and saturation and the sink, at every number of
    # resources
    seen = collections.Counter()
    for seed in range(3000):
        rng = random.Random(seed)
        a = random_arena(rng, max_states=6, max_dims=5, costs=rng.choice([2, None]))
        bounds = tuple(rng.randrange(0, 5) for _ in range(a.dimensions))
        u = unfold(a, bounds)
        assert _unfolded(u) == reference_unfold(a, bounds), seed
        d = a.dimensions
        seen[d, len(set(a.edges.values())) < len(a.states)] += 1
        seen[d, "clipped"] += u.clipped
        seen[d, "sink"] += BOT in u.states
    for d in range(1, 6):
        assert min(seen[d, key] for key in (True, False, "clipped", "sink")) >= 100, d


def test_unfold_equals_the_reference_where_each_id_brings_a_new_credit():
    # one or two states at capacities 20-60, so that in many cases nearly
    # every id brings a credit that no id before it had, and each credit's
    # pair of column sums is looked up once: at one resource, where the
    # first half holds no digit, and at two
    fresh = collections.Counter()
    for seed in range(1000):
        rng = random.Random(seed)
        a = random_arena(rng, max_states=2)
        bounds = tuple(rng.randrange(20, 61) for _ in range(a.dimensions))
        u = unfold(a, bounds)
        assert _unfolded(u) == reference_unfold(a, bounds), seed
        ids = len(u.at)
        fresh[a.dimensions] += ids >= 20 and len({c for _, c in u.states[:ids]}) >= 0.9 * ids
    assert min(fresh[1], fresh[2]) >= 60, fresh


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
    # each case reaches a few states at any capacity: costs at most 0, and
    # at five resources costs that climb in both halves of the components;
    # a table over the capacities would not fit in memory
    cases = [([(0, 0, 0), (-1, 0, 0), (0, 0, -2)], 3),
             ([(0, 0, 0, 0, 0), (3, 0, 1, 0, 2), (0, -1, 0, 2, 0)], 4)]
    for costs, size in cases:
        a = _one_state_arena(costs)
        tracemalloc.start()
        try:
            u = unfold(a, (10**12,) * len(costs[0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(u.states) == size and u.states[-1] is BOT and not u.clipped
        assert peak < 2**20


def test_the_state_budget_binds_before_3_gib(fig1):
    # at (10^6, 1) each state of fig1's unfolding holds what the last did,
    # about 0.6 kB at the peak: 559 bytes at 20,000 states, 633 at 200,000
    n = 20_000
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            unfold(fig1, (10**6, 1), max_states=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n * DEFAULT_STATE_BUDGET <= 3 * 2**30


def test_an_unfolding_keeps_no_object_per_id(fig1):
    # what the returned unfolding holds: its lists over the ids and their
    # ints, about 190 bytes an id (186 at (20000, 1), 180 at (200000, 1)),
    # where a (state, credit) tuple per id kept about 320
    tracemalloc.start()
    try:
        u = unfold(fig1, (20000, 1))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(u.states) == 20002 and kept / len(u.states) <= 240


def test_states_reads_as_the_tuple_of_each_ids_state(fig1):
    for bounds in [(3, 3), (10, 1), (0, 0)]:
        u = unfold(fig1, bounds)
        want = reference_unfold(fig1, bounds).states
        states = u.states
        assert len(states) == len(want) and tuple(states) == want
        assert states == want and want == states and states != list(want)
        assert [states[k] for k in range(-len(want), 0)] == list(want)
        assert states[1:-1] == want[1:-1] and states[::-2] == want[::-2]
        assert all(states.index(s) == k for k, s in enumerate(want)) and BOT in states
        assert repr(states) == repr(want)
        for k in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                states[k]


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
            h.append(rng.choice(a.succ[h[-1]]))
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


# sha256 of the document `unfold data/fig1.json --bounds 3,3` printed while
# `unfolded_to_arena` still built its record through `build_arena`
FIG1_3_3_UNFOLD_SHA256 = "2157b49bc118b2c7adbe500bed31b0b7cecae4d0f59bed6ba4b82822d6ac28a1"


@pytest.mark.parametrize("bounds", [(1, 1), (3, 3)])
def test_unfolded_arena_record_is_sorted_and_serializes_as_before(fig1, fig1_path, bounds):
    u = unfold(fig1, bounds)
    r = unfolded_to_arena(u)
    assert len(r.states) == len(u.states) and list(r.states) == sorted(r.states)
    assert set(r.edges) == {(s, t) for s in r.states for t in r.succ[s]}
    assert all(list(r.succ[s]) == sorted(set(r.succ[s])) for s in r.states)
    assert sum(map(len, r.succ.values())) == sum(map(len, u.succ)) == len(r.edges)
    assert set(r.edges.values()) == {(0, 0)} and r.bounds is None
    assert r.labels["BOT"] == {RESERVED_ATOM} and RESERVED_ATOM in r.atoms
    text = serialize_arena(r)
    if bounds == (1, 1):
        assert text == fig1_path.with_name("fig1-1-1.unfold.json").read_text(encoding="utf-8")
    else:
        assert hashlib.sha256(text.encode()).hexdigest() == FIG1_3_3_UNFOLD_SHA256


def test_build_arena_refuses_the_reserved_atom(fig1):
    fields = {k: v for k, v in fig1._asdict().items() if k != "succ"}
    with pytest.raises(DocumentSemanticError, match="atom name 'bot' is reserved"):
        build_arena(**{**fields, "atoms": [*fig1.atoms, RESERVED_ATOM]})
    unknown = r"objective uses unknown atom\(s\) \['bot'\]"
    with pytest.raises(DocumentSemanticError, match="system " + unknown):
        build_arena(**{**fields, "system_objective": ltl.parse_ltl("G ! bot")})
    objectives = list(fig1.player_objectives)
    objectives[1] = ltl.parse_ltl("F bot")
    with pytest.raises(DocumentSemanticError, match="player 2 " + unknown):
        build_arena(**{**fields, "player_objectives": objectives})

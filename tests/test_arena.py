import copy
import json
import random
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from carefulsynth import arena as arena_module, errors, ltl
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

from genutils import random_arena, reference_parse_arena


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
    assert a.succ["s"] == ("s",)


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
    for a in (fig1, fig1._replace(bounds=(2**63 - 1, 0))):
        text = serialize_arena(a)
        again = parse_arena(text)
        assert again.bounds == a.bounds
        assert serialize_arena(again) == text


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_on_random_arenas(seed):
    a = random_arena(random.Random(seed))
    text = serialize_arena(a)
    b = parse_arena(text)
    assert arena_to_document(a) == arena_to_document(b)
    assert serialize_arena(b) == text


# ---------------------------------------------------------------------------
# The reader against its member-by-member reference


_MISSING = object()
# wrong for every member, or right for some: both readers must agree either way
_WRONG = [True, None, 1.5, [[1]], [], "x", 7, {}, _MISSING]


def _arena_document(rng: random.Random, n_states: int, players: int = 4) -> dict:
    atoms = [f"a{i}" for i in range(6)]
    states = [f"s{i}" for i in range(n_states)]
    return {
        "players": players,
        "dimensions": 2,
        "bounds": [3, 3],
        "atoms": atoms,
        "states": [{"id": s, "owner": rng.randint(1, players), "labels": rng.sample(atoms, 2)}
                   for s in states],
        "initial": "s0",
        "edges": [{"src": s, "dst": t, "cost": [rng.randint(-2, 2), rng.randint(-2, 2)]}
                  for s in states for t in rng.sample(states, 3)],
        "objectives": {"system": "F a0",
                       "players": {str(i): f"G F a{i}" for i in range(1, players + 1)}},
    }


def _base_documents(fig1_text) -> dict[str, dict]:
    rng = random.Random(7)
    bases = {"fig1": json.loads(fig1_text), "generated": _arena_document(rng, 6)}
    while len(bases) < 4:
        a = random_arena(rng, max_states=5, max_players=3, max_dims=3)
        if len(a.states) >= 3:
            doc = arena_to_document(a)
            doc["bounds"] = [3] * doc["dimensions"]
            bases[f"random-{len(bases) - 2}"] = doc
    return bases


def _member_paths(doc, path=()):
    """The path of every object member and list element, parents first."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield path + (key,)
        yield from _member_paths(value, path + (key,))


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    if value is _MISSING:
        del doc[last]  # an element of a list drops out of it
    else:
        doc[last] = value


def _defects(doc) -> list:
    """(name, mutation) for every single defect of `doc`: each member set
    to each wrong value, and the structural defects a type check does not
    see."""
    defects = [
        (f"{'.'.join(map(str, path))} = {value!r}", lambda d, p=path, v=value: _set(d, p, v))
        for path in _member_paths(doc) for value in _WRONG
    ]
    for k, edge in enumerate(doc["edges"]):
        defects += [
            (f"edges.{k} twice", lambda d, e=edge: d["edges"].append(copy.deepcopy(e))),
            (f"edges.{k} dangling", lambda d, k=k: _set(d, ("edges", k, "dst"), "nowhere")),
            (f"edges.{k} long cost", lambda d, k=k: d["edges"][k]["cost"].append(0)),
            (f"edges.{k} cost over", lambda d, k=k: _set(d, ("edges", k, "cost", 0), 2**63)),
            (f"edges.{k} cost under", lambda d, k=k: _set(d, ("edges", k, "cost", -1), -(2**63) - 1)),
        ]
    for k, state in enumerate(doc["states"]):
        defects.append((f"states.{k} twice", lambda d, s=state: d["states"].append(copy.deepcopy(s))))
    return defects


def _outcome(reader, doc):
    try:
        return reader(json.dumps(doc))
    except Exception as e:  # the class and message must match, whatever they are
        return (type(e), str(e))


def _both_readers(base, mutations):
    doc = copy.deepcopy(base)
    for mutate in mutations:
        mutate(doc)
    return _outcome(parse_arena, doc), _outcome(reference_parse_arena, doc)


_BASES = ["fig1", "generated", "random-0", "random-1"]


@pytest.mark.parametrize("base", _BASES)
def test_reader_agrees_with_its_reference_on_single_defects(fig1_text, base):
    doc = _base_documents(fig1_text)[base]
    assert parse_arena(json.dumps(doc)) == reference_parse_arena(json.dumps(doc))
    defects = _defects(doc)
    errors_seen = 0
    for name, mutate in defects:
        new, ref = _both_readers(doc, [mutate])
        assert new == ref, name
        errors_seen += not isinstance(ref, arena_module.Arena)  # an Arena is a tuple too
    assert len(defects) > 300 and errors_seen > len(defects) // 2


@pytest.mark.parametrize("base", _BASES)
def test_reader_agrees_with_its_reference_on_two_defects(fig1_text, base):
    doc = _base_documents(fig1_text)[base]
    defects = _defects(doc)
    rng = random.Random(base)
    for _ in range(200):
        (n1, m1), (n2, m2) = rng.sample(defects, 2)
        try:
            new, ref = _both_readers(doc, [m1, m2])
        except (KeyError, IndexError, TypeError):
            continue  # the first defect removed what the second changes
        assert new == ref, (n1, n2)


@pytest.mark.parametrize("mutations, message", [
    # states are read before edges
    ([("states", 3, "owner", True), ("edges", 0, "cost", "x")],
     "owner of 'box' must be an integer, got True"),
    # state by state, each state's members in order
    ([("states", 4, "labels", None), ("states", 1, "owner", "2")],
     "owner of 'b' must be an integer, got '2'"),
    # a wrong type is found while reading, before any edge is checked against the states
    ([("edges", 0, "dst", "nowhere"), ("edges", 6, "cost", [True, 0])],
     "cost of edge ('c', 'circbox') must be a list of integers, got [True, 0]"),
    # the arena's own checks go edge by edge
    ([("edges", 3, "dst", "nowhere"), ("edges", 1, "cost", [2**63, 0])],
     "edge ('a', 'b'): cost component 9223372036854775808 not a 64-bit integer"),
    ([("edges", 0, "dst", "nowhere"), ("edges", 5, "cost", [1])],
     "edge ('a', 'nowhere'): dangling endpoint"),
    ([("edges", 5, "src", "a"), ("edges", 5, "dst", "b"), ("edges", 2, "src", 5)],
     "edge source must be a string, got 5"),
    ([("edges", 5, "src", "a"), ("edges", 5, "dst", "b"), ("edges", 7, "cost", [0])],
     "duplicate edge ('a', 'b')"),
])
def test_first_defect_in_document_order_is_reported(fig1_text, mutations, message):
    doc = json.loads(fig1_text)
    for *path, value in mutations:
        _set(doc, path, value)
    text = json.dumps(doc)
    for reader in (parse_arena, reference_parse_arena):
        with pytest.raises(DocumentSemanticError) as e:
            reader(text)
        assert str(e.value) == message


@pytest.mark.parametrize("value, read, built", [
    (True, "cost of edge ('a', 'a') must be a list of integers, got [2, True]",
     "edge ('s', 's'): cost component True not a 64-bit integer"),
    (1.5, "cost of edge ('a', 'a') must be a list of integers, got [2, 1.5]",
     "edge ('s', 's'): cost component 1.5 not a 64-bit integer"),
    (2**63, "edge ('a', 'a'): cost component 9223372036854775808 not a 64-bit integer",
     "edge ('s', 's'): cost component 9223372036854775808 not a 64-bit integer"),
], ids=["true", "float", "over"])
def test_a_wrong_cost_component_gets_one_message_on_each_path(fig1_text, value, read, built):
    # `parse_arena` type-checks a component while reading it and skips
    # `build_arena`'s type checks; `build_arena` makes them before the rest
    doc = json.loads(fig1_text)
    _set(doc, ("edges", 0, "cost", 1), value)
    with pytest.raises(DocumentSemanticError) as e:
        parse_arena(json.dumps(doc))
    assert str(e.value) == read
    with pytest.raises(DocumentSemanticError) as e:
        build_arena(players=1, dimensions=1, states=["s"], owner={"s": 1}, initial="s",
                    edges={("s", "s"): [value]}, atoms=[], labels={},
                    system_objective=ltl.TRUE, player_objectives=[ltl.TRUE])
    assert str(e.value) == built


_ONE_STATE = dict(players=1, dimensions=1, states=["s"], owner={"s": 1}, initial="s",
                  edges={("s", "s"): [0]}, atoms=[], labels={},
                  system_objective=ltl.TRUE, player_objectives=[ltl.TRUE])


@pytest.mark.parametrize("field, value, message", [
    ("owner", {"s": 1, "t": 1}, "owner map must cover exactly the states"),
    ("player_objectives", [], "expected 1 player objectives, got 0"),
    ("edges", {("s", "s"): 5}, "edge ('s', 's'): cost must be a list of integers, got 5"),
], ids=["owner", "objectives", "cost"])
def test_build_arena_names_what_is_wrong(field, value, message):
    assert build_arena(**_ONE_STATE).states == ("s",)
    with pytest.raises(DocumentSemanticError) as e:
        build_arena(**dict(_ONE_STATE, **{field: value}))
    assert str(e.value) == message


def test_member_calls_do_not_grow_with_the_arena(monkeypatch):
    calls = []

    def counting_member(*args, **kwargs):
        calls.append(args[1])
        return errors.member(*args, **kwargs)

    monkeypatch.setattr(arena_module, "member", counting_member)
    rng = random.Random(40)
    counts = {}
    for n in (10, 40):
        calls.clear()
        a = parse_arena(json.dumps(_arena_document(rng, n)))
        assert len(a.states) == n and len(a.edges) == 3 * n
        counts[n] = len(calls)
    # the top-level members and one per player objective, none per state or edge
    assert counts[10] == counts[40] <= 11 + 4


class _Level(IntEnum):
    LOW = 1


_KIND_VALUES = {
    "int": 3, "negative": -2, "true": True, "false": False, "float": 1.0, "enum": _Level.LOW,
    "str": "ab", "empty str": "", "null": None, "object": {"a": 1},
    "empty list": [], "ints": [1, 2], "bools": [True], "enums": [_Level.LOW], "mixed": [1, "a"],
    "strs": ["a"], "objects": [{}], "int lists": [[1], []], "bool lists": [[False]],
    "flat in nested": [1, [2]],
}

_ANY_LIST = {k for k, v in _KIND_VALUES.items() if isinstance(v, list)}


@pytest.mark.parametrize("kind, name, accepted", [
    (int, "an integer", {"int", "negative", "enum"}),
    (str, "a string", {"str", "empty str"}),
    (list, "a list", _ANY_LIST),
    (dict, "an object", {"object"}),
    ([int], "a list of integers", {"empty list", "ints", "enums"}),
    ([str], "a list of strings", {"empty list", "strs"}),
    ([dict], "a list of objects", {"empty list", "objects"}),
    ([[int]], "a list of lists of integers", {"empty list", "int lists"}),
], ids=["int", "str", "list", "dict", "[int]", "[str]", "[dict]", "[[int]]"])
def test_expect_kinds(kind, name, accepted):
    for label, v in _KIND_VALUES.items():
        if label in accepted:
            assert errors.expect(v, kind, "it") is v, label
        else:
            with pytest.raises(DocumentSemanticError) as e:
                errors.expect(v, kind, "it")
            assert str(e.value) == f"it must be {name}, got {v!r}", label


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
        path.append(rng.choice(a.succ[path[-1]]))
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

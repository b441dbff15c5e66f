import json

import pytest

from carefulsynth.arena import parse_arena, serialize_arena
from carefulsynth.certificate import check_certificate
from carefulsynth.errors import DocumentSemanticError
from carefulsynth.reduction import (
    CounterRun,
    build_game,
    parse_counter_automaton,
    recommended_bounds,
    simulate_reachability,
)
from carefulsynth.synthesis import SolveResult, solve

from corpus import CORPUS, TRIV, _doc


def _parse(doc):
    return parse_counter_automaton(json.dumps(doc))


FREE = _parse(CORPUS[0][1])
PUMP_DRAIN = _parse(CORPUS[1][1])
NONZERO = _parse(CORPUS[5][1])


# ---------------------------------------------------------------------------
# Parsing and validation


def test_parse_shape():
    assert PUMP_DRAIN.locations == ("l0", "l1", "t")
    assert PUMP_DRAIN.initial == "l0"
    assert PUMP_DRAIN.target == "t"
    assert PUMP_DRAIN.transitions[1].guards == ((1, "omega"), (0, "omega"))


def test_only_two_counters_supported():
    doc = dict(CORPUS[0][1], counters=3)
    with pytest.raises(DocumentSemanticError, match="two-counter"):
        _parse(doc)


def test_unknown_location_rejected():
    doc = _doc(["l0", "t"], "l0", "ghost", [])
    with pytest.raises(DocumentSemanticError, match="unknown location"):
        _parse(doc)


def test_bad_guard_rejected():
    doc = _doc(["l0", "t"], "l0", "t", [
        {"src": "l0", "dst": "t", "weights": [0, 0],
         "guards": [[3, 1], [0, "omega"]]},
    ])
    with pytest.raises(DocumentSemanticError, match="upper guard"):
        _parse(doc)
    doc["transitions"][0]["guards"] = [[-1, "omega"], [0, "omega"]]
    with pytest.raises(DocumentSemanticError, match="lower guard"):
        _parse(doc)


# ---------------------------------------------------------------------------
# Simulation


def test_free_move_has_length_one_witness():
    run = simulate_reachability(FREE)
    assert run is not None
    assert len(run.locations) - 1 == 1
    assert run.locations == ("l0", "t")
    assert run.counters == ((0, 0), (0, 0))


def test_pump_drain_witness_passes_through_one():
    run = simulate_reachability(PUMP_DRAIN)
    assert run == CounterRun(
        locations=("l0", "l1", "t"), counters=((0, 0), (1, 0), (0, 0))
    )


def test_nonzero_target_yields_no_witness():
    # the target is reached, but never with both counters at zero
    assert simulate_reachability(NONZERO) is None


def test_a_step_that_drives_a_counter_negative_is_skipped():
    # the lower guard 0 admits the decrement at 0, but a counter never goes
    # below zero, so the increment back to (0, 0) at the target is unreachable
    guards = [[0, "omega"], [0, "omega"]]
    ca = _parse(_doc(["l0", "l1", "t"], "l0", "t", [
        {"src": "l0", "dst": "l1", "weights": [-1, 0], "guards": guards},
        {"src": "l1", "dst": "t", "weights": [1, 0], "guards": guards},
    ]))
    assert simulate_reachability(ca) is None
    assert simulate_reachability(ca._replace(initial="l1", target="l1")).locations == ("l1",)


def test_explicit_target_overrides_document():
    # zero-ending reachability of the *initial* location is immediate
    run = simulate_reachability(NONZERO._replace(target="l0"))
    assert run is not None and run.locations == ("l0",)


def test_budget_must_be_positive():
    with pytest.raises(DocumentSemanticError):
        simulate_reachability(FREE, budget=0)


# ---------------------------------------------------------------------------
# Game construction


def test_encoded_game_size():
    for _, doc, _, _ in CORPUS:
        ca = _parse(doc)
        a = build_game(ca)
        assert len(a.states) == len(ca.locations) + 2 * len(ca.transitions) + 4


def test_encoded_game_is_a_valid_document():
    for _, doc, _, _ in CORPUS:
        a = build_game(_parse(doc))
        assert serialize_arena(parse_arena(serialize_arena(a))) == serialize_arena(a)


def test_encoded_game_shape():
    a = build_game(PUMP_DRAIN)
    assert a.players == 2 and a.dimensions == 2
    assert a.initial == "l0"
    # the lower-guard subtraction is restored together with the net weight
    assert a.edges[("t0_hi", "t0_lo")] == (0, 0)
    assert a.edges[("t1_hi", "t1_lo")] == (-1, 0)
    assert a.edges[("t1_lo", "t")] == (0, 0)
    # zero-test escapes at the target gadget
    assert a.edges[("t_done", "win2a")] == (-1, 0)
    assert a.edges[("t_done", "win2b")] == (0, -1)


def test_recommended_bounds_cover_run_and_guards():
    run = simulate_reachability(PUMP_DRAIN)
    assert recommended_bounds(PUMP_DRAIN, run) == (3, 3)  # peak 1 + guard 1 + 1


# ---------------------------------------------------------------------------
# Faithfulness: witness iff the encoded game has a solution


def test_free_move_game_solvable():
    result = solve(build_game(FREE), (1, 1))
    assert result.status == SolveResult.SOLUTION
    assert 1 in result.profile.winners


def test_nonzero_target_game_unsolvable():
    assert solve(build_game(NONZERO), (2, 2)).status == SolveResult.NO_SOLUTION


def test_corpus_faithfulness():
    for name, doc, has_witness, budget in CORPUS:
        ca = _parse(doc)
        run = simulate_reachability(ca, budget=budget)
        assert (run is not None) == has_witness, name
        a = build_game(ca)
        if has_witness:
            bounds = recommended_bounds(ca, run)
            # witness counters replay consistently
            for (x, cx), (y, cy) in zip(
                zip(run.locations, run.counters),
                list(zip(run.locations, run.counters))[1:],
            ):
                assert all(v >= 0 for v in cy)
            result = solve(a, bounds)
            assert result.status == SolveResult.SOLUTION, name
            assert check_certificate(a, bounds, result.profile) == [], name
        else:
            result = solve(a, (7, 7))
            assert result.status == SolveResult.NO_SOLUTION, name

import gc
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import carefulsynth
from carefulsynth.arena import MAX_PLAYERS, serialize_arena
from carefulsynth.cli import EXIT_ERROR, EXIT_NEGATIVE, EXIT_POSITIVE, run
from carefulsynth.zerosum import MAX_PRIORITY

from corpus import CORPUS
from genutils import oracle_bounded_careful, random_arena, random_lasso


@pytest.fixture
def lasso_file(tmp_path):
    path = tmp_path / "lasso.json"
    path.write_text(
        json.dumps({"stem": ["a", "a", "a", "a", "b", "c"], "loop": ["circbox"]})
    )
    return str(path)


def _run(capsys, *argv):
    code = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve


def test_solve_finds_solution(fig1_path, capsys):
    code, out, _ = _run(capsys, "solve", fig1_path, "--bounds", "3,3")
    assert code == EXIT_POSITIVE
    doc = json.loads(out)
    assert doc["status"] == "solution"
    assert doc["outcome"]["stem"] == ["a", "a", "a", "a", "b", "c"]
    assert doc["outcome"]["loop"] == ["circbox"]
    assert doc["winners"] == [1, 2]
    assert doc["bounds"] == [3, 3]


def test_solve_reports_no_solution(fig1_path, capsys):
    code, out, _ = _run(capsys, "solve", fig1_path, "--bounds", "10,10")
    assert code == EXIT_NEGATIVE
    doc = json.loads(out)
    assert doc["status"] == "no-solution"
    assert doc["diagnostics"]


def test_solve_without_bounds_is_refused(fig1_path, capsys):
    code, out, err = _run(capsys, "solve", fig1_path)
    assert code == EXIT_ERROR
    assert "undecidable" in err


REFUSALS = {
    "solve": "no capacity bounds given (neither --bounds nor the arena document); "
             "unbounded careful synthesis is undecidable and is refused",
    "unfold": "unfold requires --bounds (or bounds in the arena document)",
    "check": "check requires --bounds (or bounds in the arena document)",
    "mc": None,
    "stats": None,
}


@pytest.mark.parametrize("command", sorted(REFUSALS))
def test_every_arena_command_reads_its_bounds_alike(
    command, fig1_text, fig1_path, lasso_file, tmp_path, capsys
):
    operands = {
        "check": [fig1_path.with_name("fig1-3-3.solution.json")],
        "mc": [lasso_file, "F circ"],
    }.get(command, [])
    doc = json.loads(fig1_text)
    doc.pop("bounds", None)
    bare, bounded = tmp_path / "bare.json", tmp_path / "bounded.json"
    bare.write_text(json.dumps(doc))
    bounded.write_text(json.dumps({**doc, "bounds": [10, 10]}))

    # neither --bounds nor the document: refused, or read without bounds
    code, out, err = _run(capsys, command, bare, *operands)
    if REFUSALS[command] is None:
        assert (code, err) == (EXIT_POSITIVE, "")
    else:
        assert (code, out, err) == (EXIT_ERROR, "", f"error: {REFUSALS[command]}\n")
    # --bounds over different document bounds warns once; over equal ones not
    _, _, err = _run(capsys, command, bounded, *operands, "--bounds", "3,3")
    assert err.count("overrides") == 1
    assert "warning: --bounds 3,3 overrides the arena's bounds 10,10\n" in err
    _, _, err = _run(capsys, command, bounded, *operands, "--bounds", "10,10")
    assert "overrides" not in err


def test_solve_bounds_flag_overrides_document(fig1_text, tmp_path, capsys):
    doc = json.loads(fig1_text)
    doc["bounds"] = [10, 10]
    path = tmp_path / "arena.json"
    path.write_text(json.dumps(doc))
    # document bounds alone: no solution
    code, _, _ = _run(capsys, "solve", str(path))
    assert code == EXIT_NEGATIVE
    # flag overrides, with a warning
    code, out, err = _run(capsys, "solve", str(path), "--bounds", "3,3")
    assert code == EXIT_POSITIVE
    assert "overrides" in err
    assert json.loads(out)["bounds"] == [3, 3]


def test_solve_fig1_prints_the_committed_certificate(fig1_path, capsys):
    golden = fig1_path.with_name("fig1-3-3.solution.json").read_text(encoding="utf-8")
    assert _run(capsys, "solve", fig1_path, "--bounds", "3,3")[1] == golden


def test_solve_output_is_byte_identical_across_runs(fig1_path, capsys):
    _, out1, _ = _run(capsys, "solve", fig1_path, "--bounds", "3,3")
    _, out2, _ = _run(capsys, "solve", fig1_path, "--bounds", "3,3")
    assert out1 == out2


# Two Büchi players whose punishment tables come from multi-target
# attractors; the tie-breaking order once followed string hashing.
HASH_SENSITIVE_ARENA = {
    "players": 2,
    "dimensions": 1,
    "atoms": ["x", "y"],
    "states": [
        {"id": "s0", "owner": 2, "labels": ["y"]},
        {"id": "s1", "owner": 2, "labels": ["x"]},
        {"id": "s2", "owner": 1, "labels": ["x"]},
        {"id": "s3", "owner": 1, "labels": ["y"]},
        {"id": "s4", "owner": 1, "labels": []},
        {"id": "s5", "owner": 2, "labels": ["x"]},
    ],
    "initial": "s0",
    "edges": [
        {"src": x, "dst": y, "cost": [c]}
        for x, y, c in [
            ("s0", "s0", 0), ("s0", "s5", 1), ("s1", "s0", 0), ("s1", "s3", -1),
            ("s2", "s1", -1), ("s2", "s2", 1), ("s2", "s4", 1), ("s3", "s3", 0),
            ("s4", "s0", -1), ("s4", "s4", 0), ("s4", "s5", 1), ("s5", "s2", 1),
        ]
    ],
    "objectives": {"system": "true", "players": {"1": "G F x", "2": "G F y"}},
}


def test_solve_output_is_byte_identical_across_hash_seeds(tmp_path):
    path = tmp_path / "arena.json"
    path.write_text(json.dumps(HASH_SENSITIVE_ARENA))
    src = str(pathlib.Path(carefulsynth.__file__).resolve().parent.parent)
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "carefulsynth.cli", "solve", str(path), "--bounds", "2"],
            env=env, capture_output=True, check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_saturation_warning_only_when_a_step_clips(fig1_path, tmp_path, capsys):
    _, _, err = _run(capsys, "solve", fig1_path, "--bounds", "3,3")
    assert "capacity saturation" in err
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({
        "players": 1,
        "dimensions": 1,
        "atoms": [],
        "states": [{"id": "s", "owner": 1, "labels": []}],
        "initial": "s",
        "edges": [{"src": "s", "dst": "s", "cost": [0]}],
        "objectives": {"system": "true", "players": {"1": "true"}},
    }))
    code, _, err = _run(capsys, "solve", str(path), "--bounds", "1")
    assert code == EXIT_POSITIVE
    assert "capacity saturation" not in err


def test_solve_pretty_appends_trace(fig1_path, capsys):
    code, out, _ = _run(capsys, "solve", fig1_path, "--bounds", "3,3", "--pretty")
    assert code == EXIT_POSITIVE
    lines = out.splitlines()
    assert "  stem: a@0,0 a@2,1 a@3,2 a@3,3 b@3,2 c@1,1" in lines
    assert "  loop: (circbox@0,0)^omega" in lines
    assert "  winners: [1, 2]" in lines


def test_solve_unsupported_objective_errors(fig1_text, fig1_path, tmp_path, capsys):
    # `check` once printed a line of its own for it
    doc = json.loads(fig1_text)
    doc["objectives"]["players"]["1"] = "F (circ & X box)"
    path = tmp_path / "arena.json"
    path.write_text(json.dumps(doc))
    certificate = fig1_path.with_name("fig1-3-3.solution.json")
    line = ("error: unsupported objective: player 1: objective (F (circ & (X box))) is outside "
            "the solvable fragments; supply a deterministic parity automaton\n")
    assert _run(capsys, "solve", path, "--bounds", "3,3") == (EXIT_ERROR, "", line)
    assert _run(capsys, "check", path, certificate, "--bounds", "3,3") == (EXIT_ERROR, "", line)


def test_running_out_of_memory_is_an_error_with_a_message(fig1_path, capsys, monkeypatch):
    # a traceback would exit 1, the code of a negative verdict
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(carefulsynth.synthesis, "solve", exhausted)
    assert _run(capsys, "solve", fig1_path, "--bounds", "3,3") == (
        EXIT_ERROR, "", "error: out of memory\n")


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_the_collector_and_restores_the_callers_setting(
    enabled, fig1_path, capsys, monkeypatch
):
    # the command runs with the cyclic collector off; after a verdict, an
    # error the command raises and a usage error, the caller's setting is back
    solve, seen = carefulsynth.synthesis.solve, []

    def recorded(*args, **kwargs):
        seen.append(gc.isenabled())
        return solve(*args, **kwargs)

    monkeypatch.setattr(carefulsynth.synthesis, "solve", recorded)
    cases = [(("solve", fig1_path, "--bounds", "3,3"), EXIT_POSITIVE),
             (("solve", fig1_path), EXIT_ERROR),  # a CarefulSynthError: no bounds
             (("solve", fig1_path, "--no-such-flag"), EXIT_ERROR)]
    try:
        for argv, want in cases:
            gc.enable() if enabled else gc.disable()
            assert _run(capsys, *argv)[0] == want, argv
            assert gc.isenabled() == enabled, argv
    finally:
        gc.enable()
    assert seen == [False]


DEEP_FORMULAS = {
    "parentheses": "(" * 300 + "F circ" + ")" * 300,
    "next": "X " * 2000 + "circ",
    "until": " U ".join(["circ"] * 1200),
    "and": " & ".join(["F circ"] * 1500),
}


@pytest.mark.parametrize("shape", DEEP_FORMULAS)
def test_deeply_nested_objective_is_an_error(fig1_text, tmp_path, capsys, shape):
    doc = json.loads(fig1_text)
    doc["objectives"]["system"] = DEEP_FORMULAS[shape]
    path = tmp_path / "arena.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "solve", str(path), "--bounds", "3,3")
    assert code == EXIT_ERROR
    assert "nested deeper than" in err and "Traceback" not in err


def test_deeply_nested_mc_formula_is_an_error(fig1_path, lasso_file, capsys):
    code, _, err = _run(capsys, "mc", fig1_path, lasso_file, DEEP_FORMULAS["parentheses"])
    assert code == EXIT_ERROR
    assert "nested deeper than" in err and "Traceback" not in err


def test_solve_with_automaton_objective(fig1_path, tmp_path, capsys):
    dpa = {
        "states": ["wait", "good"],
        "initial": "wait",
        "priorities": {"wait": 1, "good": 2},
        "transitions": [
            {"src": "wait", "pos": ["circ"], "dst": "good"},
            {"src": "wait", "neg": ["circ"], "dst": "wait"},
            {"src": "good", "dst": "good"},
        ],
    }
    path = tmp_path / "dpa.json"
    path.write_text(json.dumps(dpa))
    code, out, _ = _run(
        capsys, "solve", fig1_path, "--bounds", "3,3", "--dpa", f"1={path}"
    )
    assert code == EXIT_POSITIVE
    assert json.loads(out)["winners"] == [1, 2]


def test_automaton_objective_beyond_the_tableau_cap(tmp_path, capsys):
    # twelve p in a row: its closure has 25 members, over the tableau's cap
    # of 20, so the winner's objective is tracked only by its automaton
    objective = "p"
    for _ in range(11):
        objective = f"p & X ({objective})"
    arena = tmp_path / "arena.json"
    arena.write_text(json.dumps({
        "players": 1,
        "dimensions": 1,
        "atoms": ["p", "q"],
        "states": [
            {"id": "x", "owner": 1, "labels": ["p"]},
            {"id": "y", "owner": 1, "labels": ["q"]},
        ],
        "initial": "x",
        "edges": [
            {"src": a, "dst": b, "cost": [0]} for a, b in [("x", "x"), ("x", "y"), ("y", "y")]
        ],
        "objectives": {"system": "F q", "players": {"1": f"F ({objective})"}},
    }))
    counts = [f"c{k}" for k in range(12)] + ["good"]
    dpa = tmp_path / "dpa.json"
    dpa.write_text(json.dumps({
        "states": counts,
        "initial": "c0",
        "priorities": {c: 2 if c == "good" else 1 for c in counts},
        "transitions": [
            t
            for c, up in zip(counts, counts[1:])
            for t in ({"src": c, "pos": ["p"], "dst": up}, {"src": c, "neg": ["p"], "dst": "c0"})
        ] + [{"src": "good", "dst": "good"}],
    }))
    code, out, _ = _run(capsys, "solve", arena, "--bounds", "0", "--dpa", f"1={dpa}")
    assert code == EXIT_POSITIVE
    doc = json.loads(out)
    assert doc["winners"] == [1]
    assert doc["outcome"]["stem"].count("x") == 12 and doc["outcome"]["loop"] == ["y"]
    certificate = tmp_path / "certificate.json"
    certificate.write_text(out)
    check = _run(capsys, "check", arena, certificate, "--bounds", "0", "--dpa", f"1={dpa}")
    assert check[0] == EXIT_POSITIVE


# ---------------------------------------------------------------------------
# check


def test_solve_then_check_round_trip(fig1_path, tmp_path, capsys):
    _, out, _ = _run(capsys, "solve", fig1_path, "--bounds", "3,3")
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(out)
    code, out2, _ = _run(
        capsys, "check", fig1_path, str(profile_path), "--bounds", "3,3"
    )
    assert code == EXIT_POSITIVE
    assert json.loads(out2) == {"verdict": "ok", "violations": []}


def test_check_rejects_tampered_profile(fig1_path, tmp_path, capsys):
    _, out, _ = _run(capsys, "solve", fig1_path, "--bounds", "3,3")
    original = json.loads(out)
    # the last three name players the three-player arena lacks
    for tampering in [{"winners": [1, 2, 3]}, {"winners": [1, 2, 99]}, {"winners": [0, 1, 2]},
                      {"punishment": dict(original["punishment"], **{"7": {}})}]:
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps({**original, **tampering}))
        code, out2, _ = _run(
            capsys, "check", fig1_path, str(profile_path), "--bounds", "3,3"
        )
        assert code == EXIT_NEGATIVE
        verdict = json.loads(out2)
        assert verdict["verdict"] == "invalid"
        assert verdict["violations"]


# ---------------------------------------------------------------------------
# unfold


def test_unfold_emits_arena_document(fig1_path, capsys):
    code, out, _ = _run(capsys, "unfold", fig1_path, "--bounds", "1,1")
    assert code == EXIT_POSITIVE
    doc = json.loads(out)
    assert "BOT" in [s["id"] for s in doc["states"]]
    assert "bot" in doc["atoms"]


def test_unfold_writes_dot_file(fig1_path, tmp_path, capsys):
    dot_path = tmp_path / "u.dot"
    code, _, _ = _run(
        capsys, "unfold", fig1_path, "--bounds", "1,1", "--dot", str(dot_path)
    )
    assert code == EXIT_POSITIVE
    assert dot_path.read_text().startswith("digraph")


def test_unfold_fig1_prints_the_committed_document_and_dot(fig1_path, tmp_path, capsys):
    dot_path = tmp_path / "u.dot"
    _, out, _ = _run(capsys, "unfold", fig1_path, "--bounds", "1,1", "--dot", str(dot_path))
    golden = fig1_path.with_name("fig1-1-1.unfold.json").read_text(encoding="utf-8")
    assert out == golden
    golden_dot = fig1_path.with_name("fig1-1-1.unfold.dot").read_text(encoding="utf-8")
    assert dot_path.read_text(encoding="utf-8") == golden_dot


# ---------------------------------------------------------------------------
# mc


def test_mc_formula_holds(fig1_path, lasso_file, capsys):
    code, out, _ = _run(capsys, "mc", fig1_path, lasso_file, "F circ")
    assert code == EXIT_POSITIVE
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["energy"]["unbounded_careful"] is True


def test_mc_formula_fails(fig1_path, lasso_file, capsys):
    code, out, _ = _run(capsys, "mc", fig1_path, lasso_file, "F diam")
    assert code == EXIT_NEGATIVE
    assert json.loads(out)["holds"] is False


@pytest.mark.parametrize(
    "lasso, formula, bounds, careful, last",
    [
        (
            {"stem": ["a", "a", "a", "a", "b", "c"], "loop": ["circbox"]},
            "F circ", "3,3", True, [0, 0],
        ),
        # the loop c costs (1,-2) per pass: the head falls (10,4), (10,2),
        # (10,0) and the next pass underflows, past the first pass's trace
        ({"stem": ["a"] * 11 + ["b", "c"], "loop": ["c"]}, "true", "10,10", False, [9, 6]),
    ],
    ids=["golden", "draining-loop"],
)
def test_mc_bounded_energy_report(
    fig1_path, tmp_path, capsys, lasso, formula, bounds, careful, last
):
    path = tmp_path / "lasso.json"
    path.write_text(json.dumps(lasso))
    code, out, _ = _run(capsys, "mc", fig1_path, path, formula, "--bounds", bounds)
    assert code == EXIT_POSITIVE
    bounded = json.loads(out)["energy"]["bounded"]
    assert bounded["careful"] is careful
    assert len(bounded["trace"]) == len(lasso["stem"]) + len(lasso["loop"])
    assert bounded["trace"][0] == [0, 0]
    assert bounded["trace"][-1] == last


def test_mc_bounded_verdict_matches_explicit_simulation(tmp_path, capsys):
    # seeded random lassos of random arenas, the verdict against simulating
    # stem . loop^k until the vector at the loop head repeats
    rng = random.Random(7)
    arena_path, lasso_path = tmp_path / "arena.json", tmp_path / "lasso.json"
    verdicts = []
    while len(verdicts) < 1200:
        a = random_arena(rng)
        arena_path.write_text(serialize_arena(a))
        for _ in range(4):
            lasso = random_lasso(rng, a)
            bounds = tuple(rng.randrange(0, 9) for _ in range(a.dimensions))
            lasso_path.write_text(json.dumps({"stem": lasso[0], "loop": lasso[1]}))
            _, out, _ = _run(
                capsys, "mc", arena_path, lasso_path, "true",
                "--bounds", ",".join(map(str, bounds)),
            )
            careful = json.loads(out)["energy"]["bounded"]["careful"]
            expected = oracle_bounded_careful(a, bounds, *lasso)
            assert careful == expected, (serialize_arena(a), lasso, bounds)
            verdicts.append(careful)
    assert 100 <= sum(verdicts) <= len(verdicts) - 100


def test_mc_pretty_appends_the_bounded_trace(fig1_path, lasso_file, capsys):
    code, out, _ = _run(capsys, "mc", fig1_path, lasso_file, "F circ", "--bounds", "3,3",
                        "--pretty")
    assert code == EXIT_POSITIVE
    assert out.endswith("\n\ntrace: a@0,0 a@2,1 a@3,2 a@3,3 b@3,2 c@1,1 circbox@0,0\n")
    assert json.loads(out[:out.index("\n\ntrace:")])["energy"]["bounded"]["careful"] is True


@pytest.mark.parametrize("bounds", ["3", "3,3,3"])
def test_mc_bounds_of_the_wrong_length_are_an_error(fig1_path, lasso_file, capsys, bounds):
    code, out, err = _run(capsys, "mc", fig1_path, lasso_file, "F circ", "--bounds", bounds)
    assert code == EXIT_ERROR
    assert "bounds must be 2 nonnegative components" in err
    assert out == ""


def test_mc_formula_syntax_error_is_an_error_with_its_position(fig1_path, lasso_file, capsys):
    code, out, err = _run(capsys, "mc", fig1_path, lasso_file, "F circ box")
    assert (code, out, err) == (EXIT_ERROR, "", "error: at position 7: trailing input 'box'\n")


@pytest.mark.parametrize(
    "text",
    [
        '{"stem": ["a", "a"], "loop"',
        '{"stem": ["a", "a"]}',
        '["a"]',
        '{"stem": "a", "loop": ["a"]}',
        '{"stem": ["a"], "loop": "a"}',
    ],
)
def test_mc_malformed_lasso_document_is_an_error(fig1_path, tmp_path, capsys, text):
    # truncated JSON, a missing key, the wrong shape, a string where a list
    # of states belongs (not read as its characters)
    path = tmp_path / "lasso.json"
    path.write_text(text)
    code, _, err = _run(capsys, "mc", fig1_path, str(path), "F circ")
    assert code == EXIT_ERROR
    assert err.startswith("error:")


def test_mc_rejects_invalid_lasso(fig1_path, tmp_path, capsys):
    path = tmp_path / "lasso.json"
    path.write_text(json.dumps({"stem": ["a"], "loop": ["boxdiam"]}))
    code, _, err = _run(capsys, "mc", fig1_path, str(path), "F circ")
    assert code == EXIT_ERROR
    assert err


def test_mc_cost_overflow_is_an_error(tmp_path, capsys):
    # every pass of the self-loop adds 2^62, so the cumulative cost of
    # stem . loop leaves 64 bits at the third edge
    arena = {
        "players": 1, "dimensions": 1, "atoms": [],
        "states": [{"id": "s", "owner": 1}], "initial": "s",
        "edges": [{"src": "s", "dst": "s", "cost": [2**62]}],
        "objectives": {"system": "true"},
    }
    arena_path, lasso_path = tmp_path / "arena.json", tmp_path / "lasso.json"
    arena_path.write_text(json.dumps(arena))
    lasso_path.write_text(json.dumps({"stem": ["s", "s"], "loop": ["s"]}))
    code, out, err = _run(capsys, "mc", arena_path, lasso_path, "true")
    assert code == EXIT_ERROR
    assert "overflows 64 bits" in err
    assert out == ""


# ---------------------------------------------------------------------------
# gen-reduction and stats


def test_gen_reduction_emits_valid_arena(tmp_path, capsys):
    ca_path = tmp_path / "ca.json"
    ca_path.write_text(json.dumps(CORPUS[1][1]))
    code, out, _ = _run(capsys, "gen-reduction", str(ca_path))
    assert code == EXIT_POSITIVE
    from carefulsynth.arena import parse_arena

    a = parse_arena(out)
    assert a.players == 2
    # pipe the generated arena straight into solve
    arena_path = tmp_path / "arena.json"
    arena_path.write_text(out)
    code, out2, _ = _run(capsys, "solve", str(arena_path), "--bounds", "3,3")
    assert code == EXIT_POSITIVE


@pytest.mark.parametrize("name", ["win1", "t_done"])
def test_gen_reduction_refuses_a_location_named_like_a_state_it_adds(name, tmp_path, capsys):
    # the encoding adds win1, win2a, win2b, t{k}_hi and t{k}_lo per transition,
    # and {target}_done; the target here is t
    ca_path = tmp_path / "ca.json"
    ca_path.write_text(json.dumps(CORPUS[1][1]).replace('"l1"', json.dumps(name)))
    code, out, err = _run(capsys, "gen-reduction", str(ca_path))
    message = f"error: location {name!r} clashes with a state the encoding adds\n"
    assert (code, out, err) == (EXIT_ERROR, "", message)


def test_gen_reduction_refuses_duplicate_location_names(tmp_path, capsys):
    doc = CORPUS[1][1]
    ca_path = tmp_path / "ca.json"
    ca_path.write_text(json.dumps(dict(doc, locations=doc["locations"] + doc["locations"][:1])))
    code, out, err = _run(capsys, "gen-reduction", str(ca_path))
    assert (code, out, err) == (EXIT_ERROR, "", "error: duplicate location names\n")


def test_stats_reports_sizes(fig1_path, capsys):
    code, out, _ = _run(capsys, "stats", fig1_path, "--bounds", "3,3")
    assert code == EXIT_POSITIVE
    doc = json.loads(out)
    assert doc["states"] == 6 and doc["edges"] == 10
    assert doc["players"] == 3
    assert doc["unfolded_states"] == 12 and doc["unfolded_edges"] == 19


# ---------------------------------------------------------------------------
# scripts


SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

# each script with its arguments and a pattern one whole line of its output matches
SCRIPT_CASES = [
    pytest.param(
        "output_digest.py", ["--workloads", "fig1-sweep", "--seeds", "1"],
        re.compile("fig1-sweep seed 1: 5 instances, "
                   "certificates [0-9a-f]{64}, regions [0-9a-f]{64}, "
                   "witness regions [0-9a-f]{64}"),
        id="output_digest.py",
    ),
    pytest.param(
        "layer_times.py", ["--workload", "fig1-sweep", "--seed", "1", "--repeat", "1"],
        re.compile("fig1@80,80( \\d+\\.\\d\\d){7} -?\\d+\\.\\d\\d no-solution unfold=8/6/1374 "
                   "ids=1671 edges=2779 scc=466( region\\d=1671/credits){3} "
                   "pre_images=42 searched=4 pruned=4"),
        id="layer_times.py",
    ),
    pytest.param(
        "layer_times.py", ["--workload", "fig1-sweep", "--seed", "1", "--repeat", "1", "--check"],
        re.compile("fig1@3,3( \\d+\\.\\d\\d){7}"),
        id="layer_times.py --check",
    ),
    pytest.param(
        "layer_times.py", ["--workload", "many-players", "--seed", "4", "--repeat", "1"],
        re.compile("many-players/8/4( \\d+\\.\\d\\d){7} -?\\d+\\.\\d\\d no-solution "
                   "unfold=25/113/16 ids=582 edges=1592 scc=1 "
                   "pre_images=0 searched=0 pruned=256"),
        id="layer_times.py many-players",
    ),
    pytest.param(
        "layer_times.py", ["--workload", "many-resources", "--seed", "1", "--repeat", "1"],
        re.compile("many-resources/3/1( \\d+\\.\\d\\d){7} -?\\d+\\.\\d\\d solution "
                   "unfold=65/199/111 ids=3795 edges=10288 scc=1245 "
                   "region1=3795/zielonka region4=3795/zielonka pre_images=0 searched=1 pruned=8"),
        id="layer_times.py many-resources",
    ),
]


@pytest.mark.parametrize("script, args, line", SCRIPT_CASES)
def test_scripts_run(script, args, line):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.fullmatch(out) for out in proc.stdout.splitlines()), proc.stdout


def test_every_script_has_a_case():
    assert {p.name for p in SCRIPTS.glob("*.py")} == {case.values[0] for case in SCRIPT_CASES}


# ---------------------------------------------------------------------------
# error handling


def test_missing_file_is_an_error(fig1_path, tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code, _, err = _run(capsys, "solve", missing, "--bounds", "1,1")
    assert code == EXIT_ERROR
    assert err == f"error: cannot read {missing}: No such file or directory\n"
    # a directory, a file that is not UTF-8, and DOT targets that cannot be
    # written: each is named with the reason, without a traceback
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"players": "\xe9"}')
    cases = [
        (("solve", tmp_path, "--bounds", "1,1"), f"cannot read {tmp_path}: Is a directory"),
        (("solve", latin, "--bounds", "1,1"), f"cannot read {latin}: 'utf-8' codec"),
        (("unfold", fig1_path, "--bounds", "1,1", "--dot", tmp_path),
         f"cannot write {tmp_path}: Is a directory"),
        (("unfold", fig1_path, "--bounds", "1,1", "--dot", tmp_path / "no" / "x.dot"),
         f"cannot write {tmp_path / 'no' / 'x.dot'}: No such file or directory"),
    ]
    for argv, message in cases:
        code, out, err = _run(capsys, *argv)
        assert code == EXIT_ERROR and out == "", argv
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, argv


def test_deeply_nested_json_is_an_error(fig1_path, tmp_path, capsys):
    # the JSON decoder recurses once per level; every document reader
    # refuses the document instead of ending in a RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    p = fig1_path
    for argv in [
        ("solve", deep, "--bounds", "1,1"),
        ("solve", p, "--bounds", "3,3", "--dpa", f"1={deep}"),
        ("check", p, deep, "--bounds", "3,3"),
        ("mc", p, deep, "F circ"),
        ("gen-reduction", deep),
    ]:
        code, out, err = _run(capsys, *argv)
        assert code == EXIT_ERROR and out == "", argv
        assert err == "error: document nested too deeply to decode\n", argv


def test_bad_bounds_flag_is_an_error(fig1_path, capsys):
    code, _, _ = _run(capsys, "solve", fig1_path, "--bounds", "x,y")
    assert code == EXIT_ERROR


def test_negative_bounds_flag_is_an_error(fig1_path, capsys):
    code, _, _ = _run(capsys, "solve", fig1_path, "--bounds", "-1,3")
    assert code == EXIT_ERROR


def test_bounds_flag_has_one_spelling_of_zero(fig1_path, capsys):
    # `-0` once read as 0; every other negative bound meets the capacity rule
    code, out, err = _run(capsys, "stats", fig1_path, "--bounds=-0,3")
    assert (code, out) == (EXIT_ERROR, "")
    assert err.endswith("error: argument --bounds: a bound must be a natural number in "
                        "ASCII digits, with no sign or leading zero, got '-0'\n"), err
    code, _, err = _run(capsys, "stats", fig1_path, "--bounds=3,-7")
    assert code == EXIT_ERROR
    assert err == "error: bounds must be 2 nonnegative components below 2**63, got (3, -7)\n"


def test_dpa_flag_with_a_non_numeric_player_is_an_error(fig1_path, tmp_path, capsys):
    dpa_path = tmp_path / "dpa.json"
    dpa_path.write_text("{}")
    code, _, err = _run(
        capsys, "solve", fig1_path, "--bounds", "3,3", "--dpa", f"x={dpa_path}"
    )
    assert code == EXIT_ERROR
    assert err == ("error: a --dpa player must be a natural number in ASCII digits, "
                   "with no sign or leading zero, got 'x'\n")


# spellings int() reads but `str` never writes: digit separators, spaces,
# signs, leading zeros and non-ASCII digits (Arabic-Indic three, fullwidth one)
_OTHER_SPELLINGS = ["1_0", " 3", "3 ", "+3", "03", "\u0663", "\uff11"]


@pytest.mark.parametrize("number", _OTHER_SPELLINGS)
def test_bounds_flag_reads_only_ascii_digits(fig1_path, capsys, number):
    for bounds in (f"{number},3", f"3,{number}"):
        code, out, err = _run(capsys, "stats", fig1_path, "--bounds", bounds)
        assert (code, out) == (EXIT_ERROR, ""), bounds
        assert sum("error:" in line for line in err.splitlines()) == 1, err
        assert err.endswith(f"error: argument --bounds: a bound must be a natural number in "
                            f"ASCII digits, with no sign or leading zero, got {number!r}\n"), err
    # a negative bound is read, and refused by the capacity rule
    code, _, err = _run(capsys, "stats", fig1_path, "--bounds=-1,3")
    assert code == EXIT_ERROR
    assert err == "error: bounds must be 2 nonnegative components below 2**63, got (-1, 3)\n"


@pytest.mark.parametrize("number", _OTHER_SPELLINGS)
def test_dpa_flag_reads_only_ascii_digits(fig1_path, tmp_path, capsys, number):
    # "١=FILE" once applied FILE to player 1
    dpa_path = tmp_path / "dpa.json"
    dpa_path.write_text(json.dumps(_DPA))
    for player in (number, "\u0661"):
        code, out, err = _run(
            capsys, "solve", fig1_path, "--bounds", "3,3", "--dpa", f"{player}={dpa_path}"
        )
        assert (code, out) == (EXIT_ERROR, ""), player
        assert err == (f"error: a --dpa player must be a natural number in ASCII digits, "
                       f"with no sign or leading zero, got {player!r}\n"), err
    code, _, err = _run(capsys, "solve", fig1_path, "--bounds", "3,3", "--dpa", "1")
    assert (code, err) == (EXIT_ERROR, "error: --dpa expects player=file, got '1'\n")


def test_a_dpa_flag_does_not_carry_over_to_the_next_run(fig1_path, tmp_path, capsys):
    # the parser is built once per process, so each run must start from its
    # defaults: an unreadable automaton given once fails that run only
    dpa_path = tmp_path / "dpa.json"
    dpa_path.write_text("{}")
    code, _, _ = _run(capsys, "solve", fig1_path, "--bounds", "3,3", "--dpa", f"1={dpa_path}")
    assert code == EXIT_ERROR
    golden = fig1_path.with_name("fig1-3-3.solution.json").read_text(encoding="utf-8")
    assert _run(capsys, "solve", fig1_path, "--bounds", "3,3")[:2] == (EXIT_POSITIVE, golden)


def test_a_dpa_flag_repeating_a_player_is_an_error(fig1_path, tmp_path, capsys):
    # the second automaton for one player once replaced the first silently
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(json.dumps(_DPA))
    second.write_text(json.dumps(_DPA))
    certificate = fig1_path.with_name("fig1-3-3.solution.json")
    for command in (("solve", fig1_path), ("check", fig1_path, certificate)):
        distinct = _run(capsys, *command, "--bounds", "3,3", "--dpa", f"1={first}",
                        "--dpa", f"2={second}")
        assert distinct[0] in (EXIT_POSITIVE, EXIT_NEGATIVE), command
        code, out, err = _run(capsys, *command, "--bounds", "3,3", "--dpa", f"1={first}",
                              "--dpa", f"1={second}")
        assert (code, out) == (EXIT_ERROR, ""), command
        assert err == "error: --dpa player 1 given twice\n", err


def test_a_dpa_flag_naming_no_player_of_the_arena_is_an_error(fig1_path, tmp_path, capsys):
    path = tmp_path / "dpa.json"
    path.write_text(json.dumps(_DPA))
    certificate = fig1_path.with_name("fig1-3-3.solution.json")
    for command in (("solve", fig1_path), ("check", fig1_path, certificate)):
        code, out, err = _run(capsys, *command, "--bounds", "3,3", "--dpa", f"4={path}")
        assert (code, out, err) == (EXIT_ERROR, "", "error: --dpa player 4 out of range\n")


def test_every_command_describes_the_dpa_option_alike(capsys):
    # each option is declared once, so `check` gives `--dpa` the help `solve` gives it
    for command in ("solve", "check"):
        code, out, _ = _run(capsys, command, "-h")
        assert code == EXIT_POSITIVE
        assert ("--dpa PLAYER=FILE deterministic parity automaton for a player's objective"
                in " ".join(out.split())), out


def _one_state_document():
    return {
        "players": 1,
        "dimensions": 1,
        "bounds": [1],
        "atoms": [],
        "states": [{"id": "s", "owner": 1, "labels": []}],
        "initial": "s",
        "edges": [{"src": "s", "dst": "s", "cost": [0]}],
        "objectives": {"system": "true"},
    }


@pytest.mark.parametrize("field", ["players", "dimensions", "owner", "cost", "bounds"])
def test_json_booleans_are_not_integers(tmp_path, capsys, field):
    doc = _one_state_document()
    path = tmp_path / "arena.json"
    path.write_text(json.dumps(doc))
    assert _run(capsys, "solve", str(path))[0] == EXIT_POSITIVE
    if field in ("players", "dimensions"):
        doc[field] = True
    elif field == "owner":
        doc["states"][0]["owner"] = True
    elif field == "cost":
        doc["edges"][0]["cost"] = [False]
    else:
        doc["bounds"] = [True]
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "solve", str(path))
    assert code == EXIT_ERROR
    assert err.startswith("error:")


@pytest.mark.parametrize("path, value, message", [
    pytest.param(("players",), "1", "players must be an integer, got '1'", id="players"),
    pytest.param(("dimensions",), "1", "dimensions must be an integer, got '1'", id="dimensions"),
    pytest.param(("bounds",), 5, "bounds must be a list of integers, got 5", id="bounds"),
    pytest.param(("bounds",), [1.0], "bounds must be a list of integers, got [1.0]", id="bound"),
    pytest.param(("atoms",), [["p"]], "atoms must be a list of strings, got [['p']]", id="atoms"),
    pytest.param(("states",), 5, "states must be a list of objects, got 5", id="states"),
    pytest.param(("states", 0), ["s"], "states must be a list of objects, got [['s']]", id="state"),
    pytest.param(("states", 0, "id"), ["s"], "state id must be a string, got ['s']", id="id"),
    pytest.param(("states", 0, "owner"), "1", "owner of 's' must be an integer, got '1'",
                 id="owner"),
    pytest.param(("states", 0, "labels"), [1], "labels of 's' must be a list of strings, got [1]",
                 id="labels"),
    pytest.param(("states", 0, "labels"), None,
                 "labels of 's' must be a list of strings, got None", id="labels-null"),
    pytest.param(("initial",), ["s"], "initial state must be a string, got ['s']", id="initial"),
    pytest.param(("edges",), {}, "edges must be a list of objects, got {}", id="edges"),
    pytest.param(("edges", 0, "src"), ["s"], "edge source must be a string, got ['s']", id="src"),
    pytest.param(("edges", 0, "dst"), 5, "edge target must be a string, got 5", id="dst"),
    pytest.param(("edges", 0, "cost"), 5,
                 "cost of edge ('s', 's') must be a list of integers, got 5", id="cost"),
    pytest.param(("edges", 0, "cost"), [[0]],
                 "cost of edge ('s', 's') must be a list of integers, got [[0]]",
                 id="cost-component"),
    pytest.param(("objectives",), "true", "objectives must be an object, got 'true'",
                 id="objectives"),
    pytest.param(("objectives", "system"), 5, "system objective must be a string, got 5",
                 id="system"),
    pytest.param(("objectives", "players"), [], "player objectives must be an object, got []",
                 id="player-objectives"),
    pytest.param(("objectives", "players"), {"1": 5}, "player 1 objective must be a string, got 5",
                 id="objective"),
])
def test_wrong_typed_arena_fields_are_errors(tmp_path, capsys, path, value, message):
    doc = _one_state_document()
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    parent[last] = value
    arena_path = tmp_path / "arena.json"
    arena_path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "solve", str(arena_path))
    assert code == EXIT_ERROR
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["solve", "unfold", "stats"])
@pytest.mark.parametrize("bound", [2**63, -1])
def test_bounds_flag_meets_the_rule_of_document_bounds(tmp_path, capsys, command, bound):
    # `stats --bounds 9223372036854775808` once passed, as a document's did not
    doc = _one_state_document()
    path = tmp_path / "arena.json"
    doc["bounds"] = [bound]
    path.write_text(json.dumps(doc))
    from_document = _run(capsys, command, path)
    del doc["bounds"]
    path.write_text(json.dumps(doc))
    from_flag = _run(capsys, command, path, f"--bounds={bound}")
    message = f"error: bounds must be 1 nonnegative components below 2**63, got ({bound},)\n"
    assert from_flag == from_document == (EXIT_ERROR, "", message)


@pytest.mark.parametrize("players", [MAX_PLAYERS + 1, 10**30])
def test_player_count_is_capped_before_any_loop_over_players(tmp_path, capsys, players):
    # 10**30 would hang in the loop over player objectives, and a count
    # just over the cap would have solve try 2^17 winner sets
    doc = _one_state_document()
    doc["players"] = players
    path = tmp_path / "arena.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "solve", str(path))
    assert code == EXIT_ERROR
    assert err.startswith("error: players") and str(MAX_PLAYERS) in err


@pytest.mark.parametrize("part", ["stem", "loop"])
def test_outcome_entries_must_be_state_ids(fig1_path, tmp_path, capsys, part):
    _, out, _ = _run(capsys, "solve", fig1_path, "--bounds", "3,3")
    doc = json.loads(out)
    doc["outcome"][part][-1] = [doc["outcome"][part][-1]]
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "check", fig1_path, str(path), "--bounds", "3,3")
    assert code == EXIT_ERROR
    assert err.startswith("error:") and f"outcome {part}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "field", ["winners", "punishment", "table", "trace_bool", "trace_float"]
)
def test_profile_players_must_be_json_integers(fig1_path, tmp_path, capsys, field):
    # booleans and floats compare equal to the integers of a trace
    _, out, _ = _run(capsys, "solve", fig1_path, "--bounds", "3,3")
    doc = json.loads(out)
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(doc))
    assert _run(capsys, "check", fig1_path, str(path), "--bounds", "3,3")[0] == EXIT_POSITIVE
    if field == "winners":
        doc[field] = [True, 2.9]
    elif field == "trace_bool":
        doc["outcome"]["trace"][0] = [False, False]
    elif field == "trace_float":
        doc["outcome"]["trace"][0] = [0.0, 0.0]
    elif field == "punishment":
        doc[field] = []
    else:
        doc["punishment"]["1"] = []
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "check", fig1_path, str(path), "--bounds", "3,3")
    assert code == EXIT_ERROR
    assert err.startswith("error:")


@pytest.mark.parametrize("key", ["03", "\u0663", "+3", " 3"])
def test_profile_player_keys_must_be_canonical(fig1_path, tmp_path, capsys, key):
    # player 3's table alone is refused; a second spelling of player 3 after
    # it must not silently replace it
    _, out, _ = _run(capsys, "solve", fig1_path, "--bounds", "3,3")
    doc = json.loads(out)
    doc["punishment"]["3"] = {"a@0,0|False": "circbox@0,0"}
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "check", fig1_path, str(path), "--bounds", "3,3")
    assert code == EXIT_NEGATIVE and "not an edge" in out
    doc["punishment"][key] = {}
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "check", fig1_path, str(path), "--bounds", "3,3")
    assert code == EXIT_ERROR
    assert err.startswith("error:") and repr(key) in err and "Traceback" not in err


def test_profile_node_key_without_a_credit_is_an_error(fig1_path, tmp_path, capsys):
    doc = json.loads(fig1_path.with_name("fig1-3-3.solution.json").read_text(encoding="utf-8"))
    doc["punishment"]["3"] = {"a|False": "circbox@0,0"}
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "check", fig1_path, str(path), "--bounds", "3,3")
    assert (code, out, err) == (EXIT_ERROR, "", "error: bad unfolded state id 'a'\n")


def test_profile_with_a_repeated_key_is_an_error(fig1_path, tmp_path, capsys):
    # the decoder would keep the last of player 3's two tables, and the
    # checker would pass a document that holds a table it rejects
    _, out, _ = _run(capsys, "solve", fig1_path, "--bounds", "3,3")
    doc = json.loads(out)
    doc["punishment"]["3"] = {"a@0,0|False": "circbox@0,0"}
    table = '"3": {"a@0,0|False": "circbox@0,0"}'
    text = json.dumps(doc)
    assert text.count(table) == 1
    path = tmp_path / "certificate.json"
    path.write_text(text.replace(table, table + ', "3": {}'))
    code, out, err = _run(capsys, "check", fig1_path, str(path), "--bounds", "3,3")
    assert (code, out, err) == (EXIT_ERROR, "", "error: repeated key '3'\n")


# each reader's document, and the same document with one key repeated
_REPEATED = {
    "initial": ('"initial": "a"', '"initial": "b", "initial": "a"'),
    "owner": ('"id": "c", "owner": 3', '"id": "c", "owner": 1, "owner": 3'),
    "dpa": {"states": ["n"], "initial": "n", "priorities": {"n": 2},
            "transitions": [{"src": "n", "dst": "n"}]},
    "lasso": {"stem": ["a"], "loop": ["a"]},
    "automaton": CORPUS[1][1],
}


@pytest.mark.parametrize("reader", _REPEATED)
def test_every_reader_refuses_a_repeated_key(fig1_path, fig1_text, tmp_path, capsys, reader):
    # a reader that kept the last copy would read "initial": "a" here, or
    # state c owned by player 3, and answer as if the document were fine
    path = tmp_path / "doc.json"
    argv = {
        "dpa": ("solve", fig1_path, "--bounds", "3,3", "--dpa", f"1={path}"),
        "lasso": ("mc", fig1_path, path, "F circ"),
        "automaton": ("gen-reduction", path),
    }.get(reader, ("stats", path))
    if reader in ("initial", "owner"):
        key, (old, new) = reader, _REPEATED[reader]
        before, text = fig1_text, fig1_text.replace(old, new)
    else:
        key, before = next(iter(_REPEATED[reader])), json.dumps(_REPEATED[reader])
        text = before.replace("{", f'{{"{key}": 0, ', 1)
    path.write_text(before)
    assert _run(capsys, *argv)[0] in (EXIT_POSITIVE, EXIT_NEGATIVE)
    assert text.count(f'"{key}"') == before.count(f'"{key}"') + 1
    path.write_text(text)
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (EXIT_ERROR, "", f"error: repeated key {key!r}\n")


LONG = "1" * 5000  # beyond Python's default limit of 4,300 digits on int()


@pytest.mark.parametrize("where", ["winners", "player key"])
def test_over_long_integers_in_a_profile_are_errors(fig1_path, tmp_path, capsys, where):
    _, out, _ = _run(capsys, "solve", fig1_path, "--bounds", "3,3")
    doc = json.loads(out)
    if where == "winners":
        doc["winners"] = "LONG"
    else:
        doc["punishment"][LONG] = {}
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(doc).replace('"LONG"', LONG))
    code, out, err = _run(capsys, "check", fig1_path, str(path), "--bounds", "3,3")
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    if where == "winners":
        assert err == "error: integer too long to decode\n"


def test_an_arena_with_over_long_dimensions_is_an_error(fig1_text, tmp_path, capsys):
    path = tmp_path / "arena.json"
    path.write_text(fig1_text.replace('"dimensions": 2', f'"dimensions": {LONG}', 1))
    assert LONG in path.read_text()
    for argv in [("solve", path, "--bounds", "3,3"), ("stats", path)]:
        code, out, err = _run(capsys, *argv)
        assert (code, out, err) == (EXIT_ERROR, "", "error: integer too long to decode\n"), argv


@pytest.mark.parametrize("field", ["priorities", "states", "pos"])
def test_dpa_fields_must_be_well_typed(fig1_path, tmp_path, capsys, field):
    dpa = {
        "states": ["n", "y"],
        "initial": "n",
        "priorities": {"n": 1, "y": 2},
        "transitions": [
            {"src": "n", "pos": ["circ"], "dst": "y"},
            {"src": "n", "neg": ["circ"], "dst": "n"},
            {"src": "y", "dst": "y"},
        ],
    }
    path = tmp_path / "dpa.json"
    argv = ("solve", fig1_path, "--bounds", "3,3", "--dpa", f"1={path}")
    path.write_text(json.dumps(dpa))
    assert _run(capsys, *argv)[0] == EXIT_POSITIVE
    if field == "priorities":
        dpa[field] = {"n": True, "y": 2.5}
    elif field == "states":
        dpa[field] = ["n", ["y"]]
    else:
        dpa["transitions"][0][field] = "circ"  # not the atoms c, i, r
    path.write_text(json.dumps(dpa))
    code, _, err = _run(capsys, *argv)
    assert code == EXIT_ERROR
    assert err.startswith("error:") and field in err


def test_dpa_priorities_above_the_bound_are_refused(tmp_path, capsys):
    # the player wins at the first winner set, so no parity game ever sees
    # the automaton; the document is refused on reading, by solve and check
    dpa = {
        "states": ["start", "ok"],
        "initial": "start",
        "priorities": {"start": 1, "ok": 2},
        "transitions": [{"src": "start", "dst": "ok"}, {"src": "ok", "dst": "ok"}],
    }
    arena = tmp_path / "arena.json"
    arena.write_text(json.dumps(_one_state_document()))
    path = tmp_path / "dpa.json"
    path.write_text(json.dumps(dpa))
    code, out, _ = _run(capsys, "solve", arena, "--dpa", f"1={path}")
    assert code == EXIT_POSITIVE and json.loads(out)["winners"] == [1]
    certificate = tmp_path / "certificate.json"
    certificate.write_text(out)
    check = ("check", arena, certificate, "--dpa", f"1={path}")
    assert _run(capsys, *check)[0] == EXIT_POSITIVE
    # a negative priority escaped the bound: distinct ones from -2 down to
    # -1501 drove Zielonka into a RecursionError
    for priority in [MAX_PRIORITY + 1, -1]:
        dpa["priorities"]["start"] = priority
        path.write_text(json.dumps(dpa))
        for argv in [("solve", arena, "--dpa", f"1={path}"), check]:
            code, _, err = _run(capsys, *argv)
            assert code == EXIT_ERROR
            assert err.startswith("error: priorities") and str(priority) in err


def test_dpa_state_names_with_a_bar_are_refused(tmp_path, capsys):
    # a table key reads s@c|q and is split at its last |, so a state name
    # holding | would make check misread the solver's own certificate
    dpa = {
        "states": ["start", "o|k"],
        "initial": "start",
        "priorities": {"start": 1, "o|k": 2},
        "transitions": [{"src": "start", "dst": "o|k"}, {"src": "o|k", "dst": "o|k"}],
    }
    arena = tmp_path / "arena.json"
    arena.write_text(json.dumps(_one_state_document()))
    path = tmp_path / "dpa.json"
    path.write_text(json.dumps(dpa))
    certificate = tmp_path / "certificate.json"
    certificate.write_text("{}")
    for argv in [("solve", arena), ("check", arena, certificate)]:
        code, _, err = _run(capsys, *argv, "--dpa", f"1={path}")
        assert code == EXIT_ERROR
        assert err.startswith("error: state names must not contain '|'")


def _cli_env() -> dict:
    """The environment with this package first on `PYTHONPATH`, for
    `python -m carefulsynth.cli` in a child process."""
    src = str(pathlib.Path(carefulsynth.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _cli_with_closed(stream: str, *argv):
    """`python -m carefulsynth.cli argv` through `sh`, started with
    `stream` (`>&-` or `2>&-`) closed."""
    script = f'"$0" -m carefulsynth.cli "$@" {stream}'
    return subprocess.run(["sh", "-c", script, sys.executable, *map(str, argv)],
                          env=_cli_env(), capture_output=True, text=True, timeout=60)


def test_a_closed_stdout_exits_2_without_a_traceback(fig1_path):
    # the reader of stdout goes away before the document is written
    for command in ("solve", "unfold", "stats"):
        proc = subprocess.Popen(
            [sys.executable, "-m", "carefulsynth.cli", command, str(fig1_path), "--bounds", "3,3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_ERROR, (command, err)
        assert "Traceback" not in err and "Error" not in err, (command, err)
    # or stdout is closed at start: Python sets it to None, and calling a
    # method on it once ended in a traceback and exit 1, a negative verdict
    for argv in [("stats", fig1_path), ("solve", fig1_path, "--bounds", "3,3")]:
        proc = _cli_with_closed(">&-", *argv)
        assert (proc.returncode, proc.stderr) == (EXIT_ERROR, "error: stdout is closed\n"), argv


def _fig1_with_suffixed_ids(fig1_text, suffix):
    doc = json.loads(fig1_text)
    doc["initial"] += suffix
    for state in doc["states"]:
        state["id"] += suffix
    for edge in doc["edges"]:
        edge["src"] += suffix
        edge["dst"] += suffix
    return json.dumps(doc)


@pytest.mark.parametrize("suffix, encoding", [("\ud800", None), ("\u00e9", "ascii")],
                         ids=["lone-surrogate", "non-ascii-under-ascii-stdout"])
def test_every_name_is_written_in_utf8_with_escapes_for_the_rest(
    fig1_text, tmp_path, suffix, encoding
):
    # a lone surrogate, which UTF-8 cannot encode, and a non-ASCII letter
    # under an ASCII stdout once ended in UnicodeEncodeError and exit 1
    env = _cli_env()
    env.pop("PYTHONIOENCODING", None)
    if encoding is not None:
        env["PYTHONIOENCODING"] = encoding
    arena, dot, certificate = (tmp_path / n for n in ("arena.json", "u.dot", "cert.json"))
    arena.write_text(_fig1_with_suffixed_ids(fig1_text, suffix))
    written = f"a{suffix}@0,0".encode("utf-8", "backslashreplace")

    def cli(*argv):
        proc = subprocess.run([sys.executable, "-m", "carefulsynth.cli", *map(str, argv)],
                              env=env, capture_output=True, timeout=60)
        assert "Traceback" not in proc.stderr.decode("utf-8", "replace"), argv
        return proc

    unfolded = cli("unfold", arena, "--bounds", "1,1", "--dot", dot)
    assert unfolded.returncode == EXIT_POSITIVE
    assert written in unfolded.stdout and written in dot.read_bytes()
    ids = [s["id"] for s in json.loads(unfolded.stdout.decode("utf-8"))["states"]]
    assert f"a{suffix}@0,0" in ids
    pretty = cli("solve", arena, "--bounds", "3,3", "--pretty")
    assert pretty.returncode == EXIT_POSITIVE
    assert b"  stem: " + written in pretty.stdout
    solved = cli("solve", arena, "--bounds", "3,3")
    assert solved.returncode == EXIT_POSITIVE
    certificate.write_bytes(solved.stdout)
    assert json.loads(solved.stdout.decode("utf-8"))["outcome"]["stem"][0] == f"a{suffix}"
    checked = cli("check", arena, certificate, "--bounds", "3,3")
    assert (checked.returncode, json.loads(checked.stdout)["verdict"]) == (EXIT_POSITIVE, "ok")


def test_a_closed_stderr_drops_warnings_and_keeps_stdout_json(fig1_text, tmp_path):
    # `print(file=None)` writes to stdout, so a warning once landed in the
    # JSON; here `--bounds` overrides the document's and (3,3) saturates
    arena = tmp_path / "fig1-bounded.json"
    arena.write_text(json.dumps(dict(json.loads(fig1_text), bounds=[1, 1])))
    proc = _cli_with_closed("2>&-", "solve", arena, "--bounds", "3,3")
    assert proc.returncode == EXIT_POSITIVE
    assert json.loads(proc.stdout)["status"] == "solution"
    proc = _cli_with_closed("2>&-", "solve", arena, "--bounds", "0,0")
    assert proc.returncode == EXIT_NEGATIVE
    assert json.loads(proc.stdout)["status"] == "no-solution"


# ---------------------------------------------------------------------------
# seeded mutations of every reader's document

_MARK = "\x00mark"  # a placeholder value, replaced in the encoded text
# a value of another type than the one it replaces; an upper guard of a
# counter automaton may be an integer or "omega", so "omega" is never
# swapped for an integer
_SWAPS = [7, "x", 1.5, True, [], {}]
_LITERALS = {
    "long": lambda rng: "9" * 5000,
    "nan": lambda rng: rng.choice(["NaN", "Infinity", "-Infinity"]),
    "deep": lambda rng: "[" * 100000 + "]" * 100000,
}


def _paths(doc, path=()):
    yield path
    if isinstance(doc, (dict, list)):
        for k, v in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _paths(v, (*path, k))


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _mutant(rng: random.Random, doc) -> str:
    """`doc` encoded with one defect: a value of the wrong type, a repeated
    key, a 5,000-digit integer, a NaN or infinity, or nesting too deep to
    decode."""
    doc = json.loads(json.dumps(doc))
    holders = [p for p in _paths(doc) if isinstance(_at(doc, p), dict) and _at(doc, p)]
    kind = rng.choice(["swap", *_LITERALS, *["repeat"] * bool(holders)])
    if kind == "repeat":
        holder = _at(doc, rng.choice(holders))
        key = rng.choice(list(holder))
        holder[_MARK] = holder[key]
        return json.dumps(doc).replace(json.dumps(_MARK), json.dumps(key))
    path = rng.choice([p for p in _paths(doc) if p])
    old = _at(doc, path)
    if kind == "swap":
        _at(doc, path[:-1])[path[-1]] = rng.choice(
            [v for v in _SWAPS if type(v) is not type(old) and not (old == "omega" and type(v) is int)]
        )
        return json.dumps(doc)
    _at(doc, path[:-1])[path[-1]] = _MARK
    return json.dumps(doc).replace(json.dumps(_MARK), _LITERALS[kind](rng))


_DPA = {
    "states": ["wait", "good"],
    "initial": "wait",
    "priorities": {"wait": 1, "good": 2},
    "transitions": [{"src": "wait", "pos": ["circ"], "dst": "good"},
                    {"src": "wait", "neg": ["circ"], "dst": "wait"},
                    {"src": "good", "dst": "good"}],
}


@pytest.mark.parametrize("reader", ["arena", "certificate", "dpa", "lasso", "automaton", "bounds"])
def test_every_reader_refuses_seeded_mutations(fig1_path, fig1_text, tmp_path, capsys, reader):
    # each mutant is read through `run` as the command line reads it: exit
    # 2, nothing on stdout, and one `error:` line on stderr, never a
    # traceback; the document itself is first accepted
    path = tmp_path / "doc.json"
    if reader == "certificate":
        doc = json.loads(_run(capsys, "solve", fig1_path, "--bounds", "3,3")[1])
    else:
        doc = {"arena": json.loads(fig1_text), "dpa": _DPA, "automaton": CORPUS[1][1],
               "lasso": {"stem": ["a", "a", "b"], "loop": ["box"]}}.get(reader)
    argv = {
        "arena": ("stats", path),
        "certificate": ("check", fig1_path, path, "--bounds", "3,3"),
        "dpa": ("solve", fig1_path, "--bounds", "3,3", "--dpa", f"1={path}"),
        "lasso": ("mc", fig1_path, path, "F circ"),
        "automaton": ("gen-reduction", path),
    }.get(reader)
    if reader == "bounds":
        doc, argv = [3, 3], ("solve", fig1_path, "--bounds", path)
    path.write_text(json.dumps(doc))
    if reader == "bounds":
        argv = ("solve", fig1_path, "--bounds", "3,3")
    assert _run(capsys, *argv)[0] in (EXIT_POSITIVE, EXIT_NEGATIVE)
    rng = random.Random(reader)
    # the flag's one repeat is a component written twice
    texts = [_mutant(rng, doc) if case or reader != "bounds" else "[3, 3, 3]"
             for case in range(60)]
    if reader == "bounds":  # and components in spellings int() reads but `str` never writes
        texts += [f"[{x}]" for x in ("1_0, 3", "3, \u0663", "+3, 3", "3, \uff13")]
    for case, text in enumerate(texts):
        if reader == "bounds":  # the flag's list written without brackets
            argv = ("solve", fig1_path, "--bounds", text[1:-1].replace(" ", ""))
        else:
            path.write_text(text)
        code, out, err = _run(capsys, *argv)
        lines = err.splitlines()
        assert code == EXIT_ERROR and out == "", (case, text[:200], err)
        assert "Traceback" not in err and sum("error:" in line for line in lines) == 1, (case, err)
        if reader != "bounds":  # argparse writes its usage first
            assert len(lines) == 1 and lines[0].startswith("error: "), (case, err)


@pytest.mark.parametrize("member, value", [("status", 7), ("status", "no-solution"),
                                           ("bounds", "3,3"), ("bounds", [3, 1.5])])
def test_certificate_status_and_bounds_are_read(fig1_path, tmp_path, capsys, member, value):
    # members `solve` writes that the check does not use are still read:
    # a certificate with a status other than "solution", or bounds that
    # are not a list of integers, is malformed
    doc = json.loads(_run(capsys, "solve", fig1_path, "--bounds", "3,3")[1])
    doc[member] = value
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "check", fig1_path, path, "--bounds", "3,3")
    assert (code, out) == (EXIT_ERROR, "") and err.startswith("error: ") and err.count("\n") == 1

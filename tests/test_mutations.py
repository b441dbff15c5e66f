"""Single-field mutations of every document type the CLI reads.

Each case deletes one field (an object member or a list entry) of a small
valid document, or replaces it with one value from a fixed pool of JSON
values, and runs the document through `cli.run`. The run must end in a
verdict or a document error (exit 0, 1 or 2), never in an exception: a
traceback exits 1, which the CLI reserves for a negative verdict. The
cases are enumerated exhaustively, so the test is deterministic.
"""

import json
import pathlib

import pytest

from carefulsynth.cli import EXIT_ERROR, EXIT_NEGATIVE, EXIT_POSITIVE, run

from corpus import CORPUS

POOL = [None, True, 0, -1, 1.5, "x", [], {}, [1], ["a"], {"a": 1}, 10**30]

DPA = {
    "states": ["n", "y"],
    "initial": "n",
    "priorities": {"n": 1, "y": 2},
    "transitions": [
        {"src": "n", "pos": ["circ"], "dst": "y"},
        {"src": "n", "neg": ["circ"], "dst": "n"},
        {"src": "y", "dst": "y"},
    ],
}

README_LASSO = {"stem": ["a", "a", "a", "a", "b", "c"], "loop": ["circbox"]}

_DELETE = object()


def _paths(node, prefix=()):
    """The path of every object member and list entry below `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutants(doc):
    text = json.dumps(doc)
    for path in _paths(doc):
        for value in [_DELETE, *POOL]:
            mutant = parent = json.loads(text)
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield mutant


DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
FIG1 = str(DATA / "fig1.json")

CASES = {
    # document type: a valid document, and the argv that reads it from {doc}
    "arena": (
        # with its capacity in the document, so that `bounds` is mutated too:
        # a number there escaped as a TypeError
        dict(json.loads((DATA / "fig1.json").read_text(encoding="utf-8")), bounds=[3, 3]),
        ["solve", "{doc}"],
    ),
    "profile": (
        json.loads((DATA / "fig1-3-3.solution.json").read_text(encoding="utf-8")),
        ["check", FIG1, "{doc}", "--bounds", "3,3"],
    ),
    "dpa": (DPA, ["solve", FIG1, "--bounds", "3,3", "--dpa", "1={doc}"]),
    "counter automaton": (CORPUS[1][1], ["gen-reduction", "{doc}"]),
    "lasso": (README_LASSO, ["mc", FIG1, "{doc}", "F circ", "--bounds", "3,3"]),
}


@pytest.mark.parametrize("kind", list(CASES))
def test_single_field_mutations_end_in_an_exit_code(kind, tmp_path, capsys):
    valid, command = CASES[kind]
    path = tmp_path / "document.json"
    argv = [a.replace("{doc}", str(path)) for a in command]
    path.write_text(json.dumps(valid))
    assert run(argv) == EXIT_POSITIVE
    escapes = []
    for mutant in _mutants(valid):
        text = json.dumps(mutant)
        path.write_text(text)
        try:
            code = run(argv)
        except Exception as e:  # at the command line, a traceback and exit 1
            escapes.append(f"{type(e).__name__}: {e} <- {text}")
            continue
        assert code in (EXIT_POSITIVE, EXIT_NEGATIVE, EXIT_ERROR), text
        assert "Traceback" not in capsys.readouterr().err, text
    assert not escapes, f"{len(escapes)} of the mutants escape, the first: {escapes[0]}"

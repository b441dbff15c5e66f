"""The package holds only what the CLI, the solver, the benchmark and the
scripts run: every module-level function and class in `src/carefulsynth`
is referenced somewhere in `src/`, `bench/` or `scripts/` outside its own
definition, and every defaulted parameter of a function or method there is
passed at some call of its name in `src/`, `bench/` or `scripts/`, as a
test is not a caller; the state budgets are the only exceptions. Test-only
helpers live in `tests/genutils.py`. Importing the package generates no
code: no module uses `dataclasses`. Every name the benchmark's tracer wraps
is a callable of the package. Each module loads only the layers beneath it,
and the package itself loads none; `_graphs` holds only what two modules
import."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "carefulsynth"


def _references(tree: ast.AST) -> set[str]:
    """Names read as a bare name or as an attribute anywhere in `tree`."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _unreferenced() -> list[str]:
    statements = [
        (path, stmt)
        for folder in (PACKAGE, ROOT / "bench", ROOT / "scripts")
        for path in sorted(folder.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    reads = [(stmt, _references(stmt)) for _, stmt in statements]
    return [
        f"{path.stem}.{stmt.name}"
        for path, stmt in statements
        if path.parent == PACKAGE
        and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not any(stmt.name in names for other, names in reads if other is not stmt)
    ]


def test_every_definition_in_the_package_is_used_outside_the_tests():
    assert _unreferenced() == []


def _defaulted_parameters() -> list[tuple[str, str, str, int | None]]:
    """(module, callable name, parameter, its index among the positional
    arguments of a call) for every defaulted parameter of a module-level
    function or method in the package; the index is None for keyword-only
    parameters."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            defs = [(stmt, 0)] if isinstance(stmt, ast.FunctionDef) else []
            if isinstance(stmt, ast.ClassDef):
                defs = [(f, 1) for f in stmt.body if isinstance(f, ast.FunctionDef)]
            for f, bound in defs:
                a = f.args
                positional = a.posonlyargs + a.args
                defaulted = [
                    (p.arg, k - bound) for k, p in enumerate(positional)
                ][len(positional) - len(a.defaults):]
                defaulted += [
                    (p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
                ]
                name = stmt.name if f.name == "__init__" else f.name
                out += [(path.stem, name, arg, index) for arg, index in defaulted]
    return out


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in `src/`, `bench/` and `scripts/`, by the name it calls
    (a bare name or an attribute)."""
    out: dict[str, list[ast.Call]] = {}
    for folder in ("src", "bench", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    out.setdefault(name, []).append(node)
    return out


def _passes(call: ast.Call, arg: str, index: int | None) -> bool:
    """Does `call` pass the parameter, by position, by keyword, or through
    `*` or `**`?"""
    starred = any(isinstance(x, ast.Starred) for x in call.args)
    if index is not None and (starred or len(call.args) > index):
        return True
    return any(k.arg in (arg, None) for k in call.keywords)


# safety limits on the states a call may build, which only tests set below
# their default
STATE_BUDGETS = {"unfolding.unfold(max_states)", "certificate.check_certificate(max_states)"}


def test_every_defaulted_parameter_is_passed_somewhere():
    calls = _calls()
    unused = [
        f"{module}.{name}({arg})"
        for module, name, arg, index in _defaulted_parameters()
        if not any(_passes(call, arg, index) for call in calls.get(name, []))
    ]
    assert [u for u in unused if u not in STATE_BUDGETS] == []


def _dataclass_uses() -> list[str]:
    """Where a module of the package imports `dataclasses` or names
    `dataclass`, as a decorator, a call or an attribute."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").partition(".")[0]]
            else:
                names = [getattr(node, "id", None) or getattr(node, "attr", None)]
            if {"dataclasses", "dataclass"} & set(names):
                out.append(f"{path.name}:{node.lineno}")
    return out


def test_no_module_in_the_package_uses_dataclasses():
    # a dataclass compiles and execs its generated methods when its module
    # is imported, which every command pays before it does any work
    assert _dataclass_uses() == []


def test_every_name_the_tracer_wraps_is_a_callable_of_the_package():
    # `bench/run.py --trace 1` wraps each name at `Tracer.install`, so a
    # renamed or moved function breaks it there; the file is read, not
    # imported, so nothing is written next to it
    path = ROOT / "bench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer.__dict__)
    missing = []
    for name in tracer.WRAPPED:
        module, _, attr = name.partition(".")
        if not callable(getattr(importlib.import_module(f"carefulsynth.{module}"), attr, None)):
            missing.append(name)
    assert tracer.WRAPPED and missing == []


ABOVE_CERTIFICATE = {"zerosum", "synthesis", "reduction", "cli"}
ABOVE_UNFOLDING = {"certificate", *ABOVE_CERTIFICATE}

# what a fresh `import` of each module must not load: the package loads no
# module, and no module loads one above it (`errors` and `_graphs`, then
# `ltl`, `arena`, `unfolding`, `zerosum`, `synthesis` and `cli`, with
# `certificate` and `reduction` beside `unfolding`), so the checker
# (`certificate`, over its own step in `arena`) loads no game solver and
# no `unfold`
ABOVE = {
    "carefulsynth": {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"},
    "carefulsynth.errors": ABOVE_UNFOLDING,
    "carefulsynth._graphs": ABOVE_UNFOLDING,
    "carefulsynth.ltl": ABOVE_UNFOLDING,
    "carefulsynth.arena": {"unfolding", *ABOVE_UNFOLDING},
    "carefulsynth.unfolding": ABOVE_UNFOLDING,
    "carefulsynth.certificate": {"unfolding", *ABOVE_CERTIFICATE},
    "carefulsynth.zerosum": {"synthesis", "reduction", "cli"},
    "carefulsynth.reduction": {"unfolding", "certificate", "zerosum", "synthesis", "cli"},
    "carefulsynth.synthesis": {"reduction", "cli"},
}


@pytest.mark.parametrize("module", ABOVE)
def test_a_module_loads_no_layer_above_it(module):
    code = f"import sys, {module}; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = {m.removeprefix("carefulsynth.") for m in proc.stdout.split()
              if m.startswith("carefulsynth.")}
    assert sorted(loaded & ABOVE[module]) == []


def test_every_function_of_the_graph_kernel_is_imported_by_two_modules():
    # a helper with one caller lives beside it, so the checker, which
    # imports `_graphs`, carries none of the solver's own passes
    importers: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "_graphs":
                for alias in node.names:
                    importers.setdefault(alias.name, set()).add(path.stem)
    tree = ast.parse((PACKAGE / "_graphs.py").read_text(encoding="utf-8"))
    functions = [stmt.name for stmt in tree.body if isinstance(stmt, ast.FunctionDef)]
    assert functions and [f for f in functions if len(importers.get(f, ())) < 2] == []

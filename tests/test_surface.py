"""The package holds only what the CLI, the solver, the benchmark and the
scripts run: every module-level function and class in `src/carefulsynth`
is referenced somewhere in `src/`, `bench/` or `scripts/` outside its own
definition, and every defaulted parameter of a function or method there is
passed at some call of its name in `src/`, `bench/`, `scripts/` or
`tests/`. Test-only helpers live in `tests/genutils.py`. Importing the
package generates no code: no module uses `dataclasses`."""

import ast
import pathlib

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
        if path.name != "__init__.py"  # its exports are not uses
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
    """Every call in `src/`, `bench/`, `scripts/` and `tests/`, by the name
    it calls (a bare name or an attribute)."""
    out: dict[str, list[ast.Call]] = {}
    for folder in ("src", "bench", "scripts", "tests"):
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


def test_every_defaulted_parameter_is_passed_somewhere():
    calls = _calls()
    unused = [
        f"{module}.{name}({arg})"
        for module, name, arg, index in _defaulted_parameters()
        if not any(_passes(call, arg, index) for call in calls.get(name, []))
    ]
    assert unused == []


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

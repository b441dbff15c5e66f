"""The package holds only what the CLI, the solver, the benchmark and the
scripts run: every module-level function and class in `src/carefulsynth`
is referenced somewhere in `src/`, `bench/` or `scripts/` outside its own
definition. Test-only helpers live in `tests/genutils.py`."""

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

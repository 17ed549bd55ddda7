"""Every JSON text fracvis writes comes from fractals.json_text."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _json_writes(path: Path) -> list:
    """(enclosing function, line) of each json.dump or json.dumps call."""
    hits = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
                and node.func.attr in ("dump", "dumps")):
            hits.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return hits


def _sources() -> list:
    files = sorted((ROOT / "src").rglob("*.py"))
    assert len(files) > 5
    return files


def test_json_dumps_is_called_only_in_json_text():
    hits = {f"{path.relative_to(ROOT)}:{line}": func
            for path in _sources() for func, line in _json_writes(path)}
    assert list(hits.values()) == ["json_text"], hits


def test_no_float_is_formatted_as_17_digit_text():
    assert [str(path.relative_to(ROOT)) for path in _sources()
            if ".17g" in path.read_text(encoding="utf-8")] == []


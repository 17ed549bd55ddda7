"""The package's public names: ``fracvis.__all__`` against its imports."""

import ast
from pathlib import Path

import fracvis


def _imported_public_names() -> set:
    tree = ast.parse(Path(fracvis.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_names_are_bound_and_every_import_is_listed():
    unbound = [name for name in fracvis.__all__ if not hasattr(fracvis, name)]
    assert unbound == []
    assert len(set(fracvis.__all__)) == len(fracvis.__all__)
    assert _imported_public_names() <= set(fracvis.__all__)

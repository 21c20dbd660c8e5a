"""The package's public names: ``__all__`` lists exactly what ``__init__`` imports."""

import ast
from pathlib import Path

import spiketrac


def imported_public_names() -> list[str]:
    tree = ast.parse(Path(spiketrac.__file__).read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def test_all_has_no_duplicates():
    assert len(spiketrac.__all__) == len(set(spiketrac.__all__))


def test_every_name_in_all_resolves():
    missing = [name for name in spiketrac.__all__ if not hasattr(spiketrac, name)]
    assert missing == []


def test_all_equals_the_imported_public_names():
    imported = imported_public_names()
    assert len(imported) == len(set(imported))
    assert sorted(spiketrac.__all__) == sorted(imported)

"""The package's public names: ``__all__`` is built from the lazy table ``_EXPORTS``, sorted,
and every name in it resolves to the object its module defines."""

import importlib

import spiketrac


def test_all_has_no_duplicates():
    assert len(spiketrac.__all__) == len(set(spiketrac.__all__))


def test_every_name_in_all_resolves():
    missing = [name for name in spiketrac.__all__ if not hasattr(spiketrac, name)]
    assert missing == []


def test_all_equals_the_imported_public_names():
    table = [name for names in spiketrac._EXPORTS.values() for name in names]
    assert len(table) == len(set(table))
    assert spiketrac.__all__ == sorted(table)
    for module, names in spiketrac._EXPORTS.items():
        library = importlib.import_module(f"spiketrac.{module}")
        for name in names:
            assert getattr(spiketrac, name) is getattr(library, name), name
    assert set(dir(spiketrac)) >= set(spiketrac.__all__)

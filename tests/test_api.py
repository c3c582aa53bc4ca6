"""The package's public names."""

import ast
import importlib
import inspect

import pytest

import nfalgebra
from nfalgebra import analysis, automaton

# Set-based simulators that now live in ``tests/oracles.py`` only.
MOVED = ["UnknownStateError", "dfa_accepts", "epsilon_closure", "step"]


def test_every_listed_name_resolves():
    assert "run_cli" in nfalgebra.__all__
    for name in nfalgebra.__all__:
        assert getattr(nfalgebra, name) is not None, name


@pytest.mark.parametrize("module", [nfalgebra, automaton, analysis])
def test_moved_names_are_gone(module):
    for name in MOVED:
        assert name not in module.__all__
        assert not hasattr(module, name)


@pytest.mark.parametrize("module", sorted(nfalgebra._EXPORTS))
def test_export_table_matches_each_module(module):
    # Each module builds its ``__all__`` from ``_EXPORTS``, the one list;
    # this keeps a module from listing a name of its own that the package
    # does not export.
    owner = importlib.import_module(f"nfalgebra.{module}")
    listed = set(nfalgebra._EXPORTS[module])
    assert listed <= set(owner.__all__)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(inspect.getsource(owner)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(owner.__all__) - imported <= listed

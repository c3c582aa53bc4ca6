"""The package's public names."""

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

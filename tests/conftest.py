import sys

import pytest

from nfalgebra import Concat, Device, fixtures

# Leaves of the deep chain: more than the recursion limit the deep tests set.
DEEP_LEAVES = 400


@pytest.fixture(scope="session")
def n1():
    return fixtures.n1()


@pytest.fixture(scope="session")
def n2():
    return fixtures.n2()


@pytest.fixture(scope="session")
def env(n1, n2):
    return {"N1": n1, "N2": n2}


@pytest.fixture(scope="session")
def deep_chain():
    """A right-nested ``;`` chain of N1, N2, N1, ... with ``DEEP_LEAVES``
    leaves: (names, expression, its minimal text, a member word)."""
    names = ["N1", "N2"] * (DEEP_LEAVES // 2)
    expr = Device(names[-1])
    for name in reversed(names[:-1]):
        expr = Concat(Device(name), expr)
    text = " ; (".join(names[:-1]) + f" ; {names[-1]}" + ")" * (len(names) - 2)
    return names, expr, text, "baaa" * (DEEP_LEAVES // 2)


@pytest.fixture
def shallow_stack():
    """Run the test under a recursion limit below ``DEEP_LEAVES``."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)

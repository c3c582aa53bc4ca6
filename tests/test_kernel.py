"""The integer kernel against the set-based references it replaced.

``accepts``, ``witness``, ``determinize``, ``equivalent`` and
``enumerate_language`` run on a dense
bitmask form compiled once per automaton.  Each is compared for exact
equality with the set-based reference in ``tests/oracles.py``, which runs
on the public ``step``/``epsilon_closure``/``product``/``is_empty`` and
never touches the kernel.
"""

import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfalgebra import (
    EPSILON,
    Automaton,
    UnknownStateError,
    UnknownSymbolError,
    accepts,
    determinize,
    enumerate_language,
    equivalent,
    instantiate,
    letter,
    state,
    witness,
    word,
)

from .oracles import (
    oracle_accepts,
    reference_determinize,
    reference_enumerate_language,
    reference_equivalent,
    reference_witness,
)
from .strategies import (
    GHOSTS,
    LETTERS,
    automata,
    invalid_automata,
    seeded_automata,
    words,
)

A, B = letter("a"), letter("b")
S0, S1, S2 = state("s0"), state("s1"), state("s2")

# s0 -eps-> s1 -eps-> s0 is a cycle of empty-string moves; s2 is final.
EPSILON_CYCLE = Automaton(
    alphabet=frozenset(LETTERS),
    states=frozenset({S0, S1, S2}),
    initial=S0,
    transitions={
        (S0, EPSILON): frozenset({S1}),
        (S1, EPSILON): frozenset({S0}),
        (S1, A): frozenset({S2}),
        (S2, EPSILON): frozenset({S0}),
        (S2, B): frozenset({S2}),
    },
    finals=frozenset({S2}),
)


class TestAgainstReferences:
    @given(automata(), words())
    @example(EPSILON_CYCLE, word("aba"))
    @settings(max_examples=200)
    def test_accepts_and_witness(self, automaton, input_word):
        assert accepts(automaton, input_word) == oracle_accepts(automaton, input_word)
        assert witness(automaton, input_word) == reference_witness(
            automaton, input_word
        )

    @given(automata())
    @example(EPSILON_CYCLE)
    @settings(max_examples=150)
    def test_determinize(self, automaton):
        assert determinize(automaton) == reference_determinize(automaton)

    @given(automata(), automata())
    @example(EPSILON_CYCLE, instantiate(EPSILON_CYCLE, "X"))
    @settings(max_examples=150)
    def test_equivalent(self, left, right):
        assert equivalent(left, right) == reference_equivalent(left, right)

    def test_wider_alphabet_on_one_side(self, n1, n2):
        wide = Automaton(
            alphabet=frozenset({A, letter("c")}),
            states=frozenset({S0}),
            initial=S0,
            transitions={(S0, letter("c")): frozenset({S0})},
            finals=frozenset({S0}),
        )
        for left, right in ((n1, wide), (wide, n2), (n2, n1)):
            assert equivalent(left, right) == reference_equivalent(left, right)


def outcome(function, *args):
    """The result of ``function(*args)``, or the type and text of the
    simulation error it raises."""
    try:
        return function(*args)
    except (UnknownStateError, UnknownSymbolError) as error:
        return type(error), str(error)


# s0 -a-> s1 -a-> g0 and s0 -b-> g1, with g0 and g1 undeclared: the move
# into g1 is met first breadth first, the one into g0 first in prefix order.
DEEP_GHOST = Automaton(
    alphabet=frozenset(LETTERS),
    states=frozenset({S0, S1}),
    initial=S0,
    transitions={
        (S0, A): frozenset({S1}),
        (S1, A): frozenset({GHOSTS[0]}),
        (S0, B): frozenset({GHOSTS[1]}),
    },
    finals=frozenset({S1}),
)


class TestEnumerateLanguage:
    @given(seeded_automata(), st.integers(0, 6))
    @example(EPSILON_CYCLE, 5)
    @settings(max_examples=150)
    def test_matches_reference(self, automaton, max_len):
        assert enumerate_language(automaton, max_len) == (
            reference_enumerate_language(automaton, max_len)
        )

    @given(invalid_automata(), st.integers(0, 4))
    @example(DEEP_GHOST, 2)
    @example(DEEP_GHOST, 1)
    @settings(max_examples=300)
    def test_invalid_automata_raise_as_the_reference(self, automaton, max_len):
        assert outcome(enumerate_language, automaton, max_len) == outcome(
            reference_enumerate_language, automaton, max_len
        )

    def test_first_failure_in_prefix_order(self):
        assert outcome(enumerate_language, DEEP_GHOST, 2) == (
            UnknownStateError,
            "unknown states: g0",
        )
        assert outcome(enumerate_language, DEEP_GHOST, 1) == (
            UnknownStateError,
            "unknown states: g1",
        )


class TestInvalidAutomata:
    def test_undeclared_endpoint_raises_unknown_state(self):
        dangling = Automaton(
            alphabet=frozenset({A}),
            states=frozenset({S0}),
            initial=S0,
            transitions={(S0, A): frozenset({state("ghost")})},
            finals=frozenset(),
        )
        assert not accepts(dangling, ())
        with pytest.raises(UnknownStateError):
            accepts(dangling, word("a"))
        # witness never checked declarations and still does not.
        assert witness(dangling, word("a")) is None

    def test_undeclared_initial_raises_unknown_state(self):
        adrift = Automaton(
            alphabet=frozenset({A}),
            states=frozenset({S0}),
            initial=state("ghost"),
            transitions={},
            finals=frozenset(),
        )
        with pytest.raises(UnknownStateError):
            accepts(adrift, ())

    def test_unknown_letter_is_reported_before_states(self):
        adrift = Automaton(
            alphabet=frozenset({A}),
            states=frozenset({S0}),
            initial=state("ghost"),
            transitions={},
            finals=frozenset(),
        )
        with pytest.raises(UnknownSymbolError, match="^symbol z is not a letter"):
            accepts(adrift, (A, letter("z")))
        with pytest.raises(UnknownSymbolError):
            accepts(adrift, (EPSILON,))


class TestCache:
    def test_value_semantics_unchanged(self, n1):
        fresh = Automaton(
            n1.alphabet, n1.states, n1.initial, dict(n1.transitions), n1.finals
        )
        before = repr(fresh)
        assert accepts(fresh, word("baa"))
        assert repr(fresh) == before
        assert fresh == n1

    def test_threads_share_one_fresh_automaton(self, n1):
        fresh = Automaton(
            n1.alphabet, n1.states, n1.initial, dict(n1.transitions), n1.finals
        )
        inputs = [word("ab" * k + "baa") for k in range(12)]
        expected = [
            (oracle_accepts(n1, w), reference_witness(n1, w)) for w in inputs
        ]
        results: list = [None] * 8
        start = threading.Barrier(len(results))

        def work(slot: int) -> None:
            start.wait(timeout=10)
            results[slot] = [(accepts(fresh, w), witness(fresh, w)) for w in inputs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * len(results)

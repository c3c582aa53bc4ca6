"""Core automaton semantics: values, validation, simulation, witnesses."""

import random

import pytest
from hypothesis import given, settings

from nfalgebra import (
    EPSILON,
    Automaton,
    Symbol,
    UnknownStateError,
    UnknownSymbolError,
    accepts,
    check_witness,
    concat,
    epsilon_closure,
    letter,
    pad_alphabet,
    parallel,
    state,
    step,
    validate,
    witness,
    word,
)
from nfalgebra.properties import all_words, random_automaton

from .oracles import as_text, in_l1, in_l2, oracle_accepts
from .strategies import automata, words

A, B = letter("a"), letter("b")


class TestSymbol:
    def test_epsilon_is_unique(self):
        assert Symbol(None) == EPSILON
        assert EPSILON.is_epsilon
        assert str(EPSILON) == "eps"

    def test_reserved_spelling_rejected(self):
        with pytest.raises(ValueError):
            Symbol("eps")

    # '#' would render as a comment and ',' splits input words.
    @pytest.mark.parametrize("bad", ["", "a b", "a\tb", "x\n", "x#y", "a,b"])
    def test_malformed_letters_rejected(self, bad):
        with pytest.raises(ValueError):
            Symbol(bad)


class TestStateId:
    def test_dotted_parse(self):
        parsed = state("L.R.p0")
        assert parsed.namespace == ("L", "R")
        assert parsed.local == "p0"
        assert str(parsed) == "L.R.p0"

    def test_ordering_is_namespace_then_local(self):
        assert state("p0") < state("L.p0")  # empty namespace first
        assert state("L.p0") < state("L.p1")
        assert state("L.p1") < state("R.p0")

    @pytest.mark.parametrize("bad", ["", ".p0", "p0.", "L..p0", "a b", "s#1", "L#.p0"])
    def test_malformed_names_rejected(self, bad):
        with pytest.raises(ValueError):
            state(bad)


class TestValidate:
    def test_bundled_device_is_clean(self, n1):
        assert validate(n1) == []

    def test_initial_not_in_states(self):
        bad = Automaton(
            alphabet=frozenset({A}),
            states=frozenset({state("s0")}),
            initial=state("ghost"),
            transitions={},
            finals=frozenset(),
        )
        assert [v.code for v in validate(bad)] == ["initial-not-in-states"]

    def test_unknown_symbol(self):
        s0 = state("s0")
        bad = Automaton(
            alphabet=frozenset({A}),
            states=frozenset({s0}),
            initial=s0,
            transitions={(s0, letter("c")): frozenset({s0})},
            finals=frozenset(),
        )
        assert [v.code for v in validate(bad)] == ["unknown-symbol"]

    def test_dangling_endpoint_and_final(self):
        s0 = state("s0")
        bad = Automaton(
            alphabet=frozenset({A}),
            states=frozenset({s0}),
            initial=s0,
            transitions={(s0, A): frozenset({state("ghost")})},
            finals=frozenset({state("gone")}),
        )
        codes = {v.code for v in validate(bad)}
        assert codes == {"endpoint-not-in-states", "final-not-in-states"}

    def test_epsilon_stored_in_alphabet(self):
        s0 = state("s0")
        bad = Automaton(
            alphabet=frozenset({A, EPSILON}),
            states=frozenset({s0}),
            initial=s0,
            transitions={},
            finals=frozenset(),
        )
        assert [v.code for v in validate(bad)] == ["epsilon-in-alphabet"]

    def test_empty_finals_is_legal(self, n1):
        degenerate = Automaton(
            n1.alphabet, n1.states, n1.initial, dict(n1.transitions), frozenset()
        )
        assert validate(degenerate) == []


class TestEpsilonClosure:
    def test_no_epsilon_edges(self, n1):
        assert epsilon_closure(n1, {state("p0")}) == {state("p0")}

    def test_bridge_of_sequential_composite(self, n1, n2):
        composite = concat(n1, n2)
        assert epsilon_closure(composite, {state("p3")}) == {state("p3"), state("q0")}

    def test_fork_of_parallel_composite(self, n1, n2):
        composite = parallel(n1, n2)
        assert epsilon_closure(composite, {state("r0")}) == {
            state("r0"),
            state("p0"),
            state("q0"),
        }

    def test_unknown_state_raises(self, n1):
        with pytest.raises(UnknownStateError):
            epsilon_closure(n1, {state("nope")})

    @given(automata())
    @settings(max_examples=60)
    def test_idempotent(self, automaton):
        closed = epsilon_closure(automaton, automaton.states)
        assert epsilon_closure(automaton, closed) == closed
        start = epsilon_closure(automaton, (automaton.initial,))
        assert epsilon_closure(automaton, start) == start


class TestStep:
    def test_branching_move(self, n2):
        assert step(n2, {state("q0")}, A) == {state("q0"), state("q1")}

    def test_dead_move(self, n2):
        assert step(n2, {state("q1")}, A) == frozenset()

    def test_nondeterministic_move(self, n1):
        assert step(n1, {state("p0")}, B) == {state("p0"), state("p1")}

    def test_epsilon_is_not_a_letter(self, n1):
        with pytest.raises(UnknownSymbolError):
            step(n1, {state("p0")}, EPSILON)

    def test_unknown_letter_raises(self, n1):
        with pytest.raises(UnknownSymbolError):
            step(n1, {state("p0")}, letter("z"))


class TestAccepts:
    def test_third_from_right(self, n1):
        assert accepts(n1, word("abaabaa"))

    def test_single_a(self, n2):
        assert accepts(n2, word("a"))

    def test_empty_input_needs_three_letters(self, n1):
        assert not accepts(n1, ())

    def test_unknown_symbol_raises_even_after_dead_frontier(self, n2):
        with pytest.raises(UnknownSymbolError):
            accepts(n2, (B, letter("z")))

    @pytest.mark.parametrize("text", ["", "a", "ab", "bab", "aabaa", "aabab"])
    def test_matches_direct_predicates(self, n1, n2, text):
        assert accepts(n1, word(text)) == in_l1(text)
        assert accepts(n2, word(text)) == in_l2(text)

    def test_predicates_exhaustively_to_length_six(self, n1, n2):
        for w in all_words(max_len=6):
            text = as_text(w)
            assert accepts(n1, w) == in_l1(text)
            assert accepts(n2, w) == in_l2(text)


class TestWitness:
    def test_canonical_run(self, n1):
        run = witness(n1, word("baa"))
        assert [str(s) for s in run.states] == ["p0", "p1", "p2", "p3"]
        assert run.symbols == word("baa")

    def test_rejected_input_has_no_witness(self, n2):
        assert witness(n2, word("b")) is None

    def test_bridge_appears_in_composite_witness(self, n1, n2):
        run = witness(concat(n1, n2), word("baaa"))
        index = run.states.index(state("p3"))
        assert run.states[index + 1] == state("q0")
        assert run.symbols[index] == EPSILON
        assert run.erased() == word("baaa")

    @given(automata(), words())
    @settings(max_examples=120)
    def test_witness_iff_accepts_and_revalidates(self, automaton, input_word):
        run = witness(automaton, input_word)
        if accepts(automaton, input_word):
            assert run is not None
            assert check_witness(automaton, run, input_word) == []
        else:
            assert run is None


class TestOracleAgreement:
    @given(automata(), words())
    @settings(max_examples=150)
    def test_accepts_matches_run_enumeration(self, automaton, input_word):
        assert accepts(automaton, input_word) == oracle_accepts(automaton, input_word)

    def test_exhaustive_on_seeded_devices(self):
        rng = random.Random(97)
        lexicon = all_words(max_len=6)
        for _ in range(40):
            automaton = random_automaton(rng)
            for w in lexicon:
                assert accepts(automaton, w) == oracle_accepts(automaton, w)


class TestPadAlphabet:
    def test_language_unchanged(self, n2):
        padded = pad_alphabet(n2, {letter("c")})
        assert letter("c") in padded.alphabet
        for text in ("", "a", "ab", "ba"):
            assert accepts(padded, word(text)) == accepts(n2, word(text))
        assert not accepts(padded, (letter("c"),))

    def test_epsilon_rejected(self, n2):
        with pytest.raises(ValueError):
            pad_alphabet(n2, {EPSILON})

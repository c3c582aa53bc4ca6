"""Subset construction, equivalence, and bounded enumeration; and the
product and emptiness oracles in ``tests/oracles.py``."""

import random

import pytest
from hypothesis import given, settings

from nfalgebra import (
    EPSILON,
    Automaton,
    Dfa,
    EnumerationBoundError,
    accepts,
    concat,
    determinize,
    dfa_to_automaton,
    enumerate_language,
    equivalent,
    instantiate,
    letter,
    pad_alphabet,
    parallel,
    state,
    symbol_key,
    word,
)
from nfalgebra.properties import all_words, random_automaton

from .oracles import (
    AlphabetMismatchError,
    as_text,
    dfa_accepts,
    in_l1,
    in_l2,
    is_empty,
    product,
)
from .strategies import automata

A = letter("a")


def local_subsets(dfa):
    return {tuple(s.local for s in subset) for subset in dfa.states}


class TestDeterminize:
    def test_bundled_device_with_branching(self, n2):
        dfa = determinize(n2)
        assert local_subsets(dfa) == {("q0",), ("q0", "q1"), ("q1",), ()}
        assert dfa.states[0] == (state("q0"),)

    def test_three_letter_memory_needs_eight_subsets(self, n1):
        assert len(determinize(n1).states) == 8

    def test_degenerate_single_state(self):
        s0 = state("s0")
        lonely = Automaton(
            alphabet=frozenset({A}),
            states=frozenset({s0}),
            initial=s0,
            transitions={},
            finals=frozenset(),
        )
        dfa = determinize(lonely)
        assert local_subsets(dfa) == {("s0",), ()}  # live state plus the sink
        assert is_empty(dfa) is None

    @given(automata())
    @settings(max_examples=60)
    def test_table_is_total_and_language_preserved(self, automaton):
        dfa = determinize(automaton)
        assert len(dfa.transition) == len(dfa.states)
        for row in dfa.transition:
            assert len(row) == len(dfa.alphabet)
            assert all(0 <= target < len(dfa.states) for target in row)
        for input_word in all_words(max_len=4):
            assert dfa_accepts(dfa, input_word) == accepts(automaton, input_word)

    def test_language_preserved_on_seeded_devices(self):
        rng = random.Random(31)
        lexicon = all_words(max_len=6)
        for _ in range(30):
            automaton = random_automaton(rng)
            dfa = determinize(automaton)
            for input_word in lexicon:
                assert dfa_accepts(dfa, input_word) == accepts(automaton, input_word)


class TestProduct:
    def test_xor_with_itself_is_empty(self, n1):
        dfa = determinize(n1)
        assert is_empty(product(dfa, dfa, lambda x, y: x != y)) is None

    def test_or_product_agrees_with_parallel_composite(self, n1, n2):
        disjunction = product(determinize(n1), determinize(n2), lambda x, y: x or y)
        composite = parallel(n1, n2)
        for input_word in all_words(max_len=6):
            assert dfa_accepts(disjunction, input_word) == accepts(
                composite, input_word
            )

    def test_and_product_agrees_with_joint_predicate(self, n1, n2):
        conjunction = product(determinize(n1), determinize(n2), lambda x, y: x and y)
        for input_word in all_words(max_len=8):
            text = as_text(input_word)
            assert dfa_accepts(conjunction, input_word) == (in_l1(text) and in_l2(text))

    def test_alphabet_mismatch_rejected(self, n1):
        padded = determinize(pad_alphabet(n1, {letter("c")}))
        with pytest.raises(AlphabetMismatchError):
            product(determinize(n1), padded, lambda x, y: x or y)


class TestEquivalent:
    def test_parallel_commutes(self, n1, n2):
        left = parallel(instantiate(n1, "L"), instantiate(n2, "R"))
        right = parallel(instantiate(n2, "L"), instantiate(n1, "R"))
        assert equivalent(left, right).equivalent

    def test_concat_does_not_commute_here(self, n1, n2):
        left = concat(instantiate(n1, "L"), instantiate(n2, "R"))
        right = concat(instantiate(n2, "L"), instantiate(n1, "R"))
        verdict = equivalent(left, right)
        assert not verdict.equivalent
        assert verdict.counterexample == word("abaa")
        # The counterexample must be accepted by exactly one side.
        assert accepts(left, verdict.counterexample) != accepts(
            right, verdict.counterexample
        )

    @given(automata())
    @settings(max_examples=40)
    def test_renaming_preserves_language(self, automaton):
        assert equivalent(automaton, instantiate(automaton, "X")).equivalent

    @given(automata(max_states=3), automata(max_states=3))
    @settings(max_examples=40)
    def test_counterexamples_revalidate(self, left, right):
        verdict = equivalent(left, right)
        if verdict.counterexample is not None:
            assert not verdict.equivalent
            assert accepts(left, verdict.counterexample) != accepts(
                right, verdict.counterexample
            )
        else:
            assert verdict.equivalent

    def test_agreement_with_enumeration_up_to_pumping_bound(self):
        # For pairs whose DFAs are small enough, language equality is the
        # same thing as enumeration agreeing up to |DA| * |DB|.
        rng = random.Random(12)
        checked = 0
        for _ in range(300):
            left = random_automaton(rng, max_states=3)
            right = random_automaton(rng, max_states=3)
            bound = len(determinize(left).states) * len(determinize(right).states)
            if bound > 7:
                continue
            checked += 1
            same_enumeration = enumerate_language(
                left, bound, cap=bound
            ) == enumerate_language(right, bound, cap=bound)
            assert equivalent(left, right).equivalent == same_enumeration
            if checked >= 10:
                break
        assert checked >= 5


class TestIsEmpty:
    def test_least_accepted_word(self, n1):
        assert is_empty(determinize(n1)) == word("baa")

    def test_empty_when_left_operand_has_no_finals(self, n1, n2):
        hollow = Automaton(
            n1.alphabet, n1.states, n1.initial, dict(n1.transitions), frozenset()
        )
        composite = concat(hollow, instantiate(n2, "R"))
        assert is_empty(determinize(composite)) is None


class TestEnumerateLanguage:
    def test_growing_prefix_language(self, n2):
        assert enumerate_language(n2, 2) == [word("a"), word("aa"), word("ab")]

    def test_too_short_for_membership(self, n1):
        assert enumerate_language(n1, 2) == []

    def test_empty_word_never_accepted_here(self, n2):
        assert () not in enumerate_language(n2, 5)

    def test_bound_is_enforced(self, n2):
        with pytest.raises(EnumerationBoundError):
            enumerate_language(n2, 11)
        assert enumerate_language(n2, 11, cap=11)  # explicit cap lifts it
        with pytest.raises(ValueError, match="^max_len must be >= 0$"):
            enumerate_language(n2, -1)

    @given(automata())
    @settings(max_examples=40)
    def test_order_and_agreement_with_accepts(self, automaton):
        listed = enumerate_language(automaton, 4)
        keys = [(len(w), tuple(symbol_key(s) for s in w)) for w in listed]
        assert keys == sorted(set(keys))  # strictly increasing, duplicate-free
        members = set(listed)
        for input_word in all_words(max_len=4):
            assert (input_word in members) == accepts(automaton, input_word)


class TestDfaToAutomaton:
    def test_round_trip_language(self, n1):
        repacked = dfa_to_automaton(determinize(n1))
        assert equivalent(repacked, n1).equivalent
        assert {s.local for s in repacked.states} == {f"d{i}" for i in range(8)}

    def test_unreachable_rows_are_named_by_row_index(self):
        # Row i is named d{i}, reachable from row 0 or not: here rows 3 and
        # 4 are reached from nowhere and keep their places.
        s0, s1, s2 = state("s0"), state("s1"), state("s2")
        a, b = letter("a"), letter("b")
        subsets = [(s2,), (s1,), (s0,), (s0, s1), (s1, s2)]
        rows = [(1, 2), (1, 0), (2, 2), (0, 4), (3, 2)]
        dfa = Dfa({a, b}, subsets, rows, {2, 3})
        name = [state(f"d{i}") for i in range(5)]
        assert dfa_to_automaton(dfa) == Automaton(
            alphabet=frozenset({a, b}),
            states=frozenset(name),
            initial=name[0],
            transitions={
                (name[source], sym): frozenset({name[target]})
                for source, row in enumerate(rows)
                for sym, target in zip((a, b), row)
            },
            finals=frozenset({name[2], name[3]}),
        )

    @given(automata())
    @settings(max_examples=30)
    def test_result_is_deterministic_and_equivalent(self, automaton):
        repacked = dfa_to_automaton(determinize(automaton))
        assert repacked.initial == state("d0")
        assert all(not sym.is_epsilon for _, sym in repacked.transitions)
        for source in repacked.states:
            for sym in repacked.alphabet:
                assert len(repacked.targets(source, sym)) == 1
        assert equivalent(repacked, automaton).equivalent


S0, S1 = (state("s0"),), (state("s1"),)


AB = {letter("a"), letter("b")}


class TestDfaTable:
    @pytest.mark.parametrize(
        ("alphabet", "states", "transition", "finals", "message"),
        [
            (AB, [], [], [], "a Dfa needs at least one state"),
            (AB, [S0, S1], [(0, 0)], [], "1 transition rows for 2 states"),
            (AB, [S0, S1], [(0, 1), (1,)], [], "row 1 has 1 targets for 2 letters"),
            (AB, [S0], [(0, 0, 0)], [], "row 0 has 3 targets for 2 letters"),
            (AB, [S0, S1], [(0, 1), (2, 0)], [], r"target 2 is outside range\(2\)"),
            (AB, [S0, S1], [(0, -1), (1, 1)], [], r"target -1 is outside range\(2\)"),
            (AB, [S0, S1], [(0, 1), (1, 1)], [1, 2], r"final 2 is outside range\(2\)"),
            (AB, [S0], [(0, 0)], [-1], r"final -1 is outside range\(1\)"),
            (
                {EPSILON, letter("a")},
                [()],
                [(0, 0)],
                [0],
                "the alphabet holds the empty-string symbol",
            ),
        ],
        ids=[
            "no-states",
            "row-count",
            "short-row",
            "long-row",
            "target-past-end",
            "negative-target",
            "final-past-end",
            "negative-final",
            "epsilon-letter",
        ],
    )
    def test_inconsistent_table_is_rejected(
        self, alphabet, states, transition, finals, message
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dfa(alphabet, states, transition, finals)

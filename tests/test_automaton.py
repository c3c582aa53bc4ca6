"""Core automaton semantics: values, validation, simulation, witnesses."""

import copy
import dataclasses
import itertools
import pickle
import random
import sys
import threading
import uuid

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfalgebra import (
    EPSILON,
    Automaton,
    RunWitness,
    StateId,
    Symbol,
    UnknownSymbolError,
    accepts,
    check_witness,
    concat,
    letter,
    pad_alphabet,
    parallel,
    state,
    validate,
    witness,
    word,
)
from nfalgebra.automaton import _state_order
from nfalgebra.properties import all_words, random_automaton

from .oracles import (
    UnknownStateError,
    as_text,
    epsilon_closure,
    in_l1,
    in_l2,
    oracle_accepts,
    reference_validate,
    step,
)
from .strategies import automata, invalid_automata, words

A, B = letter("a"), letter("b")


class TestSymbol:
    def test_epsilon_is_unique(self):
        assert Symbol(None) == EPSILON
        assert EPSILON.is_epsilon
        assert str(EPSILON) == "eps"

    def test_reserved_spelling_rejected(self):
        with pytest.raises(ValueError):
            Symbol("eps")
        with pytest.raises(ValueError, match="use EPSILON for the empty string"):
            letter(None)

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


def build_in_threads(build, count: int = 8) -> list:
    """Run ``build()`` in ``count`` threads released at once; their results."""
    results: list = [None] * count
    start = threading.Barrier(count)

    def work(slot: int) -> None:
        start.wait(timeout=10)
        results[slot] = build()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


# Name parts over the characters the flat key escapes (NUL and \x01), the
# two that spell them escaped, and plain letters.
NAME_PARTS = st.text(
    ["\x00", "\x01", "\x02", "\x03", "a", "L", "R"], min_size=1, max_size=4
)


class TestValueSemantics:
    """What ``StateId`` and ``Symbol`` promise as values."""

    def test_repr(self):
        assert repr(state("L.R.p0")) == "StateId(namespace=('L', 'R'), local='p0')"
        assert repr(state("p0")) == "StateId(namespace=(), local='p0')"
        assert repr(A) == "Symbol(token='a')"
        assert repr(EPSILON) == "Symbol(token=None)"

    def test_match_args(self):
        assert StateId.__match_args__ == ("namespace", "local")
        assert Symbol.__match_args__ == ("token",)

    def test_assignment_raises(self):
        for value, field in ((state("L.p0"), "local"), (A, "token")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field, "x")
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, field)
        assert str(state("L.p0")) == "L.p0" and A.token == "a"

    def test_sorted_is_by_namespace_then_local(self):
        names = ["R.p0", "p1", "L.R.p0", "L.p1", "p0", "L.p0", "R.L.p0", "L.L.q"]
        states = [state(text) for text in names]
        assert sorted(states) == sorted(
            states, key=lambda s: (s.namespace, s.local)
        )
        assert state("L.p0") <= state("L.p0") >= state("L.p0")
        assert state("R.p0") > state("L.p9")

    @settings(max_examples=1000, deadline=None)
    @example([(("L",), "p"), (("L", "R"), "p")])
    @example([(("a",), "p"), (("a\x00",), "p")])
    @example([((), "q\x01"), ((), "q"), ((), "q\x02"), (("q",), "\x01")])
    @given(
        st.lists(st.tuples(st.lists(NAME_PARTS, max_size=4), NAME_PARTS), max_size=8)
    )
    def test_flat_key_orders_as_the_name_tuple(self, names):
        states = [StateId(namespace, local) for namespace, local in names]

        def fields(s):
            return s.namespace, s.local

        assert sorted(states, key=_state_order) == sorted(states, key=fields)
        for s, t in itertools.product(states, repeat=2):
            assert (s < t) == (fields(s) < fields(t))
            assert (s._key == t._key) == (s is t)
        # The key costs one character more than the dotted spelling.
        for s in states:
            if "\x00" not in str(s) and "\x01" not in str(s):
                assert len(s._key) == len(str(s)) + 1

    def test_symbols_are_unordered(self):
        with pytest.raises(TypeError):
            Symbol("a") < Symbol("b")  # noqa: B015
        with pytest.raises(TypeError):
            sorted([letter("b"), letter("a")])

    def test_state_and_other_values_never_compare(self):
        assert state("a") != letter("a")
        assert state("a") != ((), "a")
        with pytest.raises(TypeError):
            state("a") < ((), "a")  # noqa: B015

    def test_separately_built_values_are_equal(self):
        pairs = [
            (state("L.R.p0"), StateId(("L", "R"), "p0")),
            (StateId(namespace=("L",), local="q"), state("L.q")),
            (letter("a"), Symbol("a")),
            (Symbol(None), EPSILON),
        ]
        for first, second in pairs:
            assert first == second
            assert hash(first) == hash(second)
            assert len({first, second}) == 1
        assert state("L.p0") != state("R.p0") and letter("a") != letter("b")

    def test_pickle_and_copy_round_trips(self):
        values = [state("L.R.p0"), state("p0"), letter("a"), EPSILON]
        for value in values:
            for copied in (
                pickle.loads(pickle.dumps(value)),
                copy.copy(value),
                copy.deepcopy(value),
            ):
                assert copied == value
                assert hash(copied) == hash(value)
                assert repr(copied) == repr(value)
        assert pickle.loads(pickle.dumps(values)) == values

    def test_threads_build_equal_values(self):
        prefix = f"race{uuid.uuid4().hex}"
        names = [f"{prefix}.s{i}" for i in range(500)]
        results = build_in_threads(
            lambda: [(state(text), letter(text)) for text in names]
        )
        expected = [(state(text), letter(text)) for text in names]
        assert results == [expected] * len(results)


class TestInterning:
    """Equal values are one object, so ``==`` and ``hash`` are identity."""

    def test_equal_values_are_one_object(self):
        assert state("L.R.p0") is StateId(("L", "R"), "p0")
        assert StateId(["L"], "q") is state("L.q")
        assert Symbol("a") is letter("a")
        assert Symbol(None) is EPSILON

    def test_round_trips_return_the_interned_object(self):
        for value in (state("L.R.p0"), letter("a"), EPSILON):
            assert pickle.loads(pickle.dumps(value)) is value
            assert copy.copy(value) is value
            assert copy.deepcopy(value) is value

    def test_threads_get_one_object_per_name(self):
        prefix = f"race{uuid.uuid4().hex}"
        names = [f"{prefix}.s{i}" for i in range(500)]
        results = build_in_threads(
            lambda: [(state(text), letter(text)) for text in names]
        )
        for built in zip(*results):
            assert all(s is built[0][0] and t is built[0][1] for s, t in built)

    def test_rejected_names_raise_every_time(self):
        state("L.R.p0")
        for _ in range(2):
            with pytest.raises(ValueError, match="^state name 'a b' contains"):
                StateId(("L",), "a b")
            # Known segments are skipped; the first bad one is still named.
            with pytest.raises(ValueError, match="^namespace segment 'x y' contains"):
                StateId(("L", "R", "x y", "#"), "p0")
            with pytest.raises(ValueError, match="'#', the comment mark"):
                Symbol("x#y")


P0, GHOST = state("p0"), state("z9")


def over_p0(alphabet, transitions, finals=()) -> Automaton:
    """An automaton whose one declared state, ``p0``, is its initial state."""
    return Automaton(
        alphabet=frozenset(alphabet),
        states=frozenset({P0}),
        initial=P0,
        transitions=transitions,
        finals=frozenset(finals),
    )


class TestValidate:
    @given(invalid_automata())
    # An undeclared target that is the source of a later edge.
    @example(over_p0({A, B}, {(P0, A): {GHOST}, (GHOST, B): {P0}}))
    # A stray letter on an edge out of a ghost.
    @example(over_p0({A, B}, {(GHOST, letter("c")): {P0}}))
    # A ghost that is also an undeclared final.
    @example(over_p0({A}, {(P0, A): {GHOST}}, finals={GHOST}))
    # The empty-string symbol declared as a letter, with an edge on it.
    @example(over_p0({A, EPSILON}, {(P0, EPSILON): {P0}}))
    @settings(max_examples=500)
    def test_matches_the_reference(self, automaton):
        # Codes, messages and their order.
        assert validate(automaton) == reference_validate(automaton)

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

    def test_names_the_least_undeclared_state(self, n1):
        # A frozenset's iteration order depends on hashing, which differs
        # from process to process; the message must not.
        frontier = frozenset(state(f"g{i}") for i in range(8))
        with pytest.raises(UnknownStateError, match="^unknown state: g0$"):
            step(n1, frontier, A)


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

    # Broken runs of N1, one per problem ``check_witness`` can report; the
    # input is the run's erased word except in the case about that.
    @pytest.mark.parametrize(
        "states,symbols,input_text,problems",
        [
            ("", "", "", ["witness has no states"]),
            ("p0 p1", "", "b", ["states and symbols have mismatched lengths"]),
            ("p1 p2 p3", "aa", "aa", ["run starts at p1, not the initial state"]),
            ("p0 p2 p3", "ba", "ba", ["illegal move p0 -b-> p2"]),
            ("p0 p1 p2", "ba", "ba", ["run does not end in a final state"]),
            ("p0 p1 p2 p3", "baa", "bab", ["erased symbols do not match the input"]),
        ],
        ids=["empty", "lengths", "start", "move", "end", "input"],
    )
    def test_check_witness_names_each_problem(
        self, n1, states, symbols, input_text, problems
    ):
        run = RunWitness(tuple(map(state, states.split())), word(symbols))
        assert check_witness(n1, run, word(input_text)) == problems


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

"""The integer kernel against the set-based references it replaced.

``accepts``, ``witness``, ``determinize``, ``equivalent``,
``enumerate_language`` and ``splits`` run on a dense bitmask form compiled
once per automaton.  Each is compared for exact equality with its
reference in ``tests/oracles.py``, which runs on the ``step`` and
``epsilon_closure`` kept there, or on ``oracle_accepts``, and never
touches the kernel.  ``witness`` searches only the configurations that a
backward pass marks live; ``TestWitnessPruning`` checks that this leaves
every run as the reference finds it.  Compiling is the one validity gate:
every operation that simulates rejects an automaton ``validate`` rejects.
The subset searches step subsets through 8-bit chunk tables up to 24
states and bit by bit above; ``TestChunkTables`` takes them across the
chunk boundaries and that bound, which the four-state ``automata()`` never
reach.
"""

import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfalgebra import (
    EPSILON,
    Automaton,
    InvalidAutomatonError,
    StateId,
    UnknownSymbolError,
    accepts,
    determinize,
    dfa_to_automaton,
    elaborate,
    enumerate_language,
    equivalent,
    instantiate,
    letter,
    pad_alphabet,
    parallel_verdicts,
    parse_expression,
    splits,
    state,
    validate,
    witness,
    word,
)
from nfalgebra.analysis import _steps, _subsets
from nfalgebra.automaton import _gather, _Kernel, _kernel

from .oracles import (
    oracle_accepts,
    reference_determinize,
    reference_enumerate_language,
    reference_equivalent,
    reference_splits,
    reference_verdict,
    reference_witness,
)
from .strategies import (
    EXTRA,
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


# c* alone: over {c}, so beside EPSILON_CYCLE (over {a, b}) both operands
# of ``splits`` are padded to the union alphabet.
C_LOOP = Automaton(
    alphabet=frozenset({EXTRA}),
    states=frozenset({S0}),
    initial=S0,
    transitions={(S0, EXTRA): frozenset({S0})},
    finals=frozenset({S0}),
)


class TestSplits:
    @given(automata(), automata(), words())
    @example(EPSILON_CYCLE, EPSILON_CYCLE, word("abab"))
    @example(EPSILON_CYCLE, C_LOOP, ())
    @example(C_LOOP, C_LOOP, ())
    @example(EPSILON_CYCLE, C_LOOP, word("abcc"))
    @example(C_LOOP, EPSILON_CYCLE, word("ccab"))
    @settings(max_examples=200)
    def test_matches_reference(self, left, right, input_word):
        assert splits(left, right, input_word) == reference_splits(
            left, right, input_word
        )


def nth_from_right(n: int, names: list[int] | None = None) -> Automaton:
    """T_n, n + 1 states: the n-th letter from the right is b.  ``names``
    renames state ``i`` to ``s{names[i]}``, so S_n is T_n renamed."""
    names = names if names is not None else list(range(n + 1))
    states = [StateId((), f"s{name}") for name in names]
    transitions = {(states[0], A): {states[0]}, (states[0], B): {states[0], states[1]}}
    for source, target in zip(states[1:], states[2:]):
        transitions[(source, A)] = transitions[(source, B)] = {target}
    return Automaton(
        alphabet=frozenset(LETTERS),
        states=frozenset(states),
        initial=states[0],
        transitions=transitions,
        finals=frozenset({states[n]}),
    )


def scattered(count: int, rng: random.Random) -> Automaton:
    """``count`` states, each with up to three targets on each letter and
    an empty-string edge one time in five."""
    states = [StateId((), f"s{i:02}") for i in range(count)]
    transitions = {}
    for source in states:
        for symbol in LETTERS:
            transitions[(source, symbol)] = set(rng.sample(states, min(count, 3)))
        if rng.random() < 0.2:
            transitions[(source, EPSILON)] = {rng.choice(states)}
    return Automaton(
        alphabet=frozenset(LETTERS),
        states=frozenset(states),
        initial=states[0],
        transitions=transitions,
        finals=frozenset(rng.sample(states, 1)),
    )


class TestChunkTables:
    @pytest.mark.parametrize("count", [1, 7, 8, 9, 16, 17, 24, 25, 40])
    def test_lookups_equal_the_per_bit_forms(self, count):
        rng = random.Random(count)
        kernel = _kernel(scattered(count, rng))
        assert len(kernel.states) == count
        steps = _steps(kernel.successors)
        subset = _subsets(kernel.states)
        masks = [0, (1 << count) - 1, 1 << (count - 1)]
        masks += [rng.getrandbits(count) for _ in range(300)]
        for mask in masks:
            for step, row in zip(steps, kernel.successors):
                assert step(mask) == _gather(row, mask)
            members = [s for i, s in enumerate(kernel.states) if mask >> i & 1]
            assert subset(mask) == tuple(members)

    @pytest.mark.parametrize("n", [7, 8, 15, 16])
    def test_searches_on_nth_from_right(self, n):
        names = list(range(n + 1))
        random.Random(n).shuffle(names)
        t_n, s_n = nth_from_right(n), nth_from_right(n, names)
        # One alphabet, so ``reference_equivalent`` would pad nothing: each
        # reference DFA is built once and serves both checks.
        assert t_n.alphabet == s_n.alphabet
        expected_t, expected_s = reference_determinize(t_n), reference_determinize(s_n)
        assert determinize(t_n) == expected_t
        assert equivalent(t_n, s_n) == reference_verdict(expected_t, expected_s)

    def test_searches_above_the_table_bound(self):
        # The DFA of T_5 has 32 states, so it steps bit by bit; T_5 itself
        # steps through one chunk table.
        t_5 = nth_from_right(5)
        dfa = dfa_to_automaton(determinize(t_5))
        assert len(dfa.states) == 32
        assert determinize(dfa) == reference_determinize(dfa)
        for other in (t_5, nth_from_right(6)):
            assert equivalent(dfa, other) == reference_equivalent(dfa, other)

    @given(automata(max_states=12), automata(max_states=12))
    @settings(max_examples=30, deadline=None)
    def test_searches_on_larger_automata(self, left, right):
        assert determinize(left) == reference_determinize(left)
        assert equivalent(left, right) == reference_equivalent(left, right)


DEAD = state("d")

# From s0, the empty-string cycle s0 <-> s1 reaches both the live branch
# (s1 -a-> s2, final) and DEAD, which sorts before every live state and
# reads any word without reaching a final state.  The search meets DEAD's
# configurations first at every position it reaches s1.
DEAD_FIRST = Automaton(
    alphabet=frozenset(LETTERS),
    states=frozenset({DEAD, S0, S1, S2}),
    initial=S0,
    transitions={
        (S0, EPSILON): frozenset({S1}),
        (S1, EPSILON): frozenset({S0, DEAD}),
        (S1, A): frozenset({S2}),
        (DEAD, A): frozenset({DEAD}),
        (DEAD, B): frozenset({DEAD}),
        (S2, EPSILON): frozenset({S0}),
        (S2, B): frozenset({S2}),
    },
    finals=frozenset({S2}),
)


def member_word(rng: random.Random, n1_first: bool) -> str:
    """About 1500 letters in N1 ; N2, or in N2 ; N1 when ``n1_first`` is
    false: a random N1 word, b third from the right, and a's then b's."""
    in_n1 = [rng.choice("ab") for _ in range(rng.randint(700, 1000))]
    in_n1[-3] = "b"
    in_n2 = "a" * rng.randint(1, 300) + "b" * rng.randint(0, 300)
    return "".join(in_n1) + in_n2 if n1_first else in_n2 + "".join(in_n1)


class TestWitnessPruning:
    @given(seeded_automata(), words(max_len=10))
    @example(DEAD_FIRST, word("aab"))
    @example(DEAD_FIRST, word("abab"))
    @settings(max_examples=200)
    def test_matches_reference(self, automaton, input_word):
        assert witness(automaton, input_word) == reference_witness(
            automaton, input_word
        )

    def test_dead_first_is_met_before_the_live_branch(self):
        kernel = _kernel(DEAD_FIRST)
        indices = kernel.indices(word("aab"))
        dead = kernel.states.index(DEAD)
        assert dead == 0
        for reached, live in zip(kernel.run(indices), kernel.live(indices)):
            assert reached >> dead & 1 and not live >> dead & 1

    @pytest.mark.parametrize("text", ["N1 ; N2", "(N1 ; N2) | (N2 ; N1)"])
    def test_long_member_words(self, env, text):
        composite = elaborate(parse_expression(text), env)
        rng = random.Random(2024)
        inputs = [member_word(rng, True) for _ in range(2)]
        if "|" in text:
            inputs.append(member_word(rng, False))
        for member in inputs:
            input_word = word(member)
            run = witness(composite, input_word)
            assert run is not None and len(run.erased()) == len(member)
            assert run == reference_witness(composite, input_word)

    def test_unknown_letter_raises_before_any_search(self, n1, monkeypatch):
        def refuse(*args):
            raise AssertionError("searched before the alphabet check")

        monkeypatch.setattr(_Kernel, "live", refuse)
        monkeypatch.setattr(_Kernel, "moves", refuse)
        input_word = word("abaab") + (letter("z"),) + word("baa")
        with pytest.raises(UnknownSymbolError, match="^symbol z is not a letter"):
            witness(n1, input_word)


class TestEnumerateLanguage:
    @given(seeded_automata(), st.integers(0, 6))
    @example(EPSILON_CYCLE, 5)
    @settings(max_examples=150)
    def test_matches_reference(self, automaton, max_len):
        assert enumerate_language(automaton, max_len) == (
            reference_enumerate_language(automaton, max_len)
        )


# s0 -a-> ghost, with ghost undeclared: every operation must raise, also
# one whose run never takes that edge.
DANGLING = Automaton(
    alphabet=frozenset(LETTERS),
    states=frozenset({S0}),
    initial=S0,
    transitions={(S0, A): frozenset({state("ghost")})},
    finals=frozenset({S0}),
)

# The initial state is not declared.
ADRIFT = Automaton(
    alphabet=frozenset(LETTERS),
    states=frozenset({S0}),
    initial=state("ghost"),
    transitions={},
    finals=frozenset({S0}),
)

# An edge on c, which only WIDE declares: padding STRAY to the union
# alphabet of the two would make it valid.
STRAY = Automaton(
    alphabet=frozenset(LETTERS),
    states=frozenset({S0}),
    initial=S0,
    transitions={(S0, A): frozenset({S0}), (S0, EXTRA): frozenset({S0})},
    finals=frozenset({S0}),
)
WIDE = pad_alphabet(EPSILON_CYCLE, {EXTRA})


def rejection(*operands: Automaton) -> str | None:
    """What the gate must raise for these operands, checked in order: the
    codes of the first one that ``validate`` rejects, or None."""
    for automaton in operands:
        codes = [v.code for v in validate(automaton)]
        if codes:
            return "invalid automaton: " + "; ".join(codes)
    return None


def check_gate(a: Automaton, b: Automaton, input_word) -> None:
    """Every operation that simulates raises ``InvalidAutomatonError`` with
    ``validate``'s codes exactly when an operand is invalid as given, and
    otherwise equals its reference."""
    cases = [
        (rejection(a), accepts, (a, input_word), oracle_accepts),
        (rejection(a), witness, (a, input_word), reference_witness),
        (rejection(a), determinize, (a,), reference_determinize),
        (rejection(a), enumerate_language, (a, 3), reference_enumerate_language),
        (rejection(a, b), equivalent, (a, b), reference_equivalent),
        (rejection(b, a), equivalent, (b, a), reference_equivalent),
        (rejection(a, b), splits, (a, b, input_word), reference_splits),
        (
            rejection(a, b),
            parallel_verdicts,
            (a, b, input_word),
            lambda x, y, w: (oracle_accepts(x, w), oracle_accepts(y, w)),
        ),
    ]
    for expected, function, args, reference in cases:
        if expected is None:
            assert function(*args) == reference(*args)
        else:
            with pytest.raises(InvalidAutomatonError) as raised:
                function(*args)
            assert str(raised.value) == expected


class TestValidityGate:
    @given(invalid_automata(), invalid_automata(), words(max_len=4))
    @settings(max_examples=200)
    def test_invalid_operands_raise_and_valid_ones_match_the_references(
        self, a, b, input_word
    ):
        check_gate(a, b, input_word)

    @pytest.mark.parametrize(
        "broken, code, input_word",
        [
            pytest.param(DANGLING, "endpoint-not-in-states", (), id="dangling-edge"),
            pytest.param(
                DANGLING, "endpoint-not-in-states", word("a"), id="dangling-edge-run"
            ),
            pytest.param(
                ADRIFT, "initial-not-in-states", word("b"), id="undeclared-initial"
            ),
            pytest.param(
                STRAY, "unknown-symbol", word("ab"), id="letter-of-the-other-operand"
            ),
        ],
    )
    def test_examples(self, broken, code, input_word):
        assert rejection(broken) == f"invalid automaton: {code}"
        check_gate(broken, WIDE, input_word)
        check_gate(WIDE, broken, input_word)


class TestCache:
    def test_value_semantics_unchanged(self, n1):
        fresh = Automaton(
            n1.alphabet, n1.states, n1.initial, dict(n1.transitions), n1.finals
        )
        before = repr(fresh)
        assert accepts(fresh, word("baa"))
        assert repr(fresh) == before
        assert fresh == n1

    def test_lazy_tables_are_built_once_on_first_use(self, n1):
        fresh = Automaton(
            n1.alphabet, n1.states, n1.initial, dict(n1.transitions), n1.finals
        )
        assert accepts(fresh, word("baa"))
        kernel = _kernel(fresh)
        assert "moves" not in vars(kernel)
        assert "predecessors" not in vars(kernel)
        assert witness(fresh, word("baa")) == reference_witness(n1, word("baa"))
        moves, predecessors = vars(kernel)["moves"], vars(kernel)["predecessors"]
        assert witness(fresh, word("abaa")) == reference_witness(n1, word("abaa"))
        assert kernel.moves is moves
        assert kernel.predecessors is predecessors

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

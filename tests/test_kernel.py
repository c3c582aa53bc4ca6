"""The integer kernel against the set-based references it replaced.

``accepts``, ``witness``, ``determinize``, ``equivalent``,
``enumerate_language`` and ``splits`` run on a dense bitmask form compiled
once per automaton.  Each is compared for exact equality with its
reference in ``tests/oracles.py``, which runs on the ``step`` and
``epsilon_closure`` kept there, or on ``oracle_accepts``, and never
touches the kernel.  ``witness`` takes exact remaining distances from a
backward pass and walks them forward greedily; ``TestWitnessPruning``
checks that this gives every run as the reference's breadth-first search
finds it, and ``TestWitnessScaling`` that its memory and memo entries grow
no faster than the word and not with a composite's width.  Compiling is
the one validity gate: every operation that simulates rejects an
automaton ``validate`` rejects.
The subset searches step subsets through 8-bit chunk tables up to 24
states and through ``_gather`` above, which reads a sparse mask bit by bit
and a dense one with one ``compress``; ``TestChunkTables`` takes them
across the chunk boundaries, that bound and both sides of the density
rule, which the four-state ``automata()`` never reach, and
``TestWideChain`` runs every search on a 300-state kernel whose masks are
dense.
"""

import gc
import pickle
import random
import sys
import threading
import tracemalloc

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
    check_witness,
    concat,
    determinize,
    dfa_to_automaton,
    elaborate,
    enumerate_language,
    equivalent,
    instantiate,
    letter,
    parallel_verdicts,
    parse_expression,
    splits,
    state,
    validate,
    witness,
    word,
)
from nfalgebra import automaton as automaton_module
from nfalgebra.analysis import _steps, _subsets
from nfalgebra.automaton import _gather, _Kernel

from .oracles import (
    oracle_accepts,
    padded,
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
    operands,
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

    @given(operands(), operands())
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


# c* alone: over {c}, so beside EPSILON_CYCLE (over {a, b}) each operand of
# ``splits`` reads a letter that it lacks, on which none of its states moves.
C_LOOP = Automaton(
    alphabet=frozenset({EXTRA}),
    states=frozenset({S0}),
    initial=S0,
    transitions={(S0, EXTRA): frozenset({S0})},
    finals=frozenset({S0}),
)


class TestSplits:
    @given(operands(), operands(), words(letters=(*LETTERS, EXTRA)))
    @example(EPSILON_CYCLE, EPSILON_CYCLE, word("abab"))
    @example(EPSILON_CYCLE, C_LOOP, ())
    @example(C_LOOP, C_LOOP, ())
    @example(EPSILON_CYCLE, C_LOOP, word("abcc"))
    @example(C_LOOP, EPSILON_CYCLE, word("ccab"))
    @settings(max_examples=200)
    def test_matches_reference(self, left, right, input_word):
        # A word over the union alphabet.
        union = left.alphabet | right.alphabet
        input_word = tuple(s for s in input_word if s in union)
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


def per_bit_union(row: list[int], mask: int) -> int:
    """The union of ``row[i]`` over the set bits ``i`` of ``mask``, one
    index at a time: the reference for every form of a step."""
    out = 0
    for i, unit in enumerate(row):
        if mask >> i & 1:
            out |= unit
    return out


def sample_masks(width: int, rng: random.Random) -> list[int]:
    """0, the top bit alone, all ones, and random masks of ``width`` bits
    with 1, 2, 16 or 17 bits set or about one in 8 or one in 3 of them,
    each with the top bit set and clear: both sides of the density rule."""
    masks = [0, 1 << (width - 1), (1 << width) - 1]
    eighth = width // 8
    for count in (1, 2, 16, 17, eighth - 1, eighth, eighth + 1, eighth + 2, width // 3):
        count = min(max(count, 1), width)
        for top in (False, True):
            bits = rng.sample(range(width - top), count - top)
            masks.append(sum(1 << i for i in bits) | top << (width - 1))
    masks += [rng.getrandbits(width) for _ in range(300)]
    return masks


class TestChunkTables:
    @pytest.mark.parametrize("count", [1, 7, 8, 9, 16, 17, 24, 25, 40, 64, 65, 300])
    def test_lookups_equal_the_per_bit_forms(self, count):
        rng = random.Random(count)
        kernel = scattered(count, rng)._kernel
        assert len(kernel.states) == count
        steps = _steps(kernel.successors)
        subset = _subsets(kernel.states)
        for mask in sample_masks(count, rng):
            for step, row in zip(steps, kernel.successors):
                expected = per_bit_union(row, mask)
                assert _gather(row, mask) == expected
                assert step(mask) == expected
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


# The chain ``N1 ; N2 ; …`` of 100 leaves compiles to 300 states.  On the
# member word ``CHAIN_MEMBER`` its frontiers hold up to half of them, so
# its steps take ``_gather``'s dense path, both ways along the word.
CHAIN_LEAVES = 100
CHAIN_MEMBER = word("baaa" * (CHAIN_LEAVES // 2))


@pytest.fixture(scope="module")
def wide_chain(env):
    return elaborate(parse_expression(" ; ".join(["N1", "N2"] * (CHAIN_LEAVES // 2))), env)


@pytest.fixture
def oracle_stack():
    """Room for ``oracle_accepts``, which recurses once per move, on the
    chain's words of a few hundred letters."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(max(saved, 3000))
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


class TestWideChain:
    """Every search on a wide kernel whose masks are dense, against the
    references."""

    def test_frontiers_are_dense(self, wide_chain):
        kernel = wide_chain._kernel
        assert len(kernel.states) == 3 * CHAIN_LEAVES
        indices = kernel.indices(CHAIN_MEMBER)
        for masks in (kernel.run(indices), kernel.live(indices)):
            assert max(m.bit_count() for m in masks) * 3 > len(kernel.states)

    @pytest.mark.parametrize(
        "text, member",
        [
            ("baaa" * 50, True),
            ("baaab" * 50, True),
            ("baaa" * 50 + "ba", False),
            ("abaab" * 50, False),
        ],
        ids=["baaa*50", "baaab*50", "baaa*50+ba", "abaab*50"],
    )
    def test_accepts(self, wide_chain, oracle_stack, text, member):
        assert oracle_accepts(wide_chain, word(text)) is member
        assert accepts(wide_chain, word(text)) is member

    def test_witness(self, wide_chain):
        run = witness(wide_chain, CHAIN_MEMBER)
        assert run is not None
        assert check_witness(wide_chain, run, CHAIN_MEMBER) == []

    def test_splits(self, wide_chain, n2, oracle_stack):
        # N2 accepts the prefixes "a" and "ab"; the chain reads the rest.
        input_word = word("a") + CHAIN_MEMBER
        found = splits(n2, wide_chain, input_word)
        assert found == reference_splits(n2, wide_chain, input_word)
        assert 1 in found

    def test_equivalent_to_a_renamed_copy(self, wide_chain):
        verdict = equivalent(wide_chain, instantiate(wide_chain, "X"))
        assert verdict.equivalent and verdict.counterexample is None


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


T0, T1, T2, T3 = (state(f"t{i}") for i in range(4))

# On a^3n the shortest run moves by the empty string after every third a
# (t1's shortcut to t3 costs two such moves).  Counts held from a fixed
# base would grow along the word, so that no two positions shared a
# class; held from each position's least, they repeat.
EVERY_THIRD = Automaton(
    alphabet=frozenset(LETTERS),
    states=frozenset({T0, T1, T2, T3}),
    initial=T0,
    transitions={
        (T0, A): frozenset({T1}),
        (T0, B): frozenset({T0}),
        (T1, A): frozenset({T2}),
        (T1, EPSILON): frozenset({T3}),
        (T2, A): frozenset({T3}),
        (T3, EPSILON): frozenset({T0}),
    },
    finals=frozenset({T0}),
)

I, A1, A2, A3, B1, B2, B3 = map(state, ("i", "a1", "a2", "a3", "b1", "b2", "b3"))

# Two routes from i: route A moves by the empty string after every a,
# route B after every b.  On a^m b^m they tie, and the gap between their
# counts changes at every position, so no class recurs.
TWO_ROUTES = Automaton(
    alphabet=frozenset(LETTERS),
    states=frozenset({I, A1, A2, A3, B1, B2, B3}),
    initial=I,
    transitions={
        (I, EPSILON): frozenset({A1, B1}),
        (A1, A): frozenset({A2}),
        (A2, EPSILON): frozenset({A1}),
        (A1, B): frozenset({A3}),
        (A3, B): frozenset({A3}),
        (B1, A): frozenset({B1}),
        (B1, B): frozenset({B2}),
        (B2, EPSILON): frozenset({B3}),
        (B3, B): frozenset({B2}),
    },
    finals=frozenset({A3, B3}),
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

    @given(seeded_automata(), words(max_len=40))
    @example(EVERY_THIRD, word("aaab" * 10))
    @example(EVERY_THIRD, word("aa" * 20))
    @example(TWO_ROUTES, word("a" * 20 + "b" * 20))
    @example(TWO_ROUTES, word("a" * 20 + "b" * 19))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_longer_words(self, automaton, input_word):
        assert witness(automaton, input_word) == reference_witness(
            automaton, input_word
        )

    def test_dead_first_is_met_before_the_live_branch(self):
        kernel = DEAD_FIRST._kernel
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

        monkeypatch.setattr(_Kernel, "one_step", property(refuse))
        monkeypatch.setattr(_Kernel, "distances", refuse)
        monkeypatch.setattr(_Kernel, "walk", refuse)
        input_word = word("abaab") + (letter("z"),) + word("baa")
        with pytest.raises(UnknownSymbolError, match="^symbol z is not a letter"):
            witness(n1, input_word)


def traced_peak(automaton: Automaton, input_word) -> int:
    """The ``tracemalloc`` peak of one accepting ``witness`` call, with the
    kernel and its tables already built."""
    witness(automaton, input_word[:1])
    gc.collect()
    tracemalloc.start()
    try:
        run = witness(automaton, input_word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run is not None and len(run.erased()) == len(input_word)
    return peak


def memo_entries(monkeypatch, automaton: Automaton, input_word) -> list[int]:
    """The entries that ``witness``'s backward pass and forward walk put in
    their memos: each miss calls ``_settle`` or ``_descend`` once, and each
    makes one more call, for the end of the word, that no memo keeps."""
    calls = [0, 0]
    for slot, name in enumerate(("_settle", "_descend")):
        def counted(*args, slot=slot, step=getattr(automaton_module, name)):
            calls[slot] += 1
            return step(*args)

        monkeypatch.setattr(automaton_module, name, counted)
    assert witness(automaton, input_word) is not None
    monkeypatch.undo()
    return [made - 1 for made in calls]


def wide_parallel(env, leaves: int) -> Automaton:
    return elaborate(parse_expression(" | ".join(["N1"] * leaves)), env)


def ends_in_baa(length: int) -> tuple:
    rng = random.Random(length)
    return word("".join(rng.choice("ab") for _ in range(length - 3)) + "baa")


class TestWitnessScaling:
    """Scaling guards with no clock: ``tracemalloc`` peaks at size s and 2s,
    and memo entries.

    Bounds: on ``N1 | … | N1`` the peak may grow by at most a quarter from
    32 to 64 leaves, where a search that held every live configuration
    would double it, and stays under 2 MB at 64 leaves and 12000 letters.
    On ``TWO_ROUTES``, where no class recurs, the peak may grow at most 2.5
    times when the word doubles: linear, where a class that listed every
    count up to its largest would grow as the square.  No memo ever holds
    more entries than the word has letters, and on words whose classes
    recur the entries do not grow with the word.
    """

    def test_width_of_a_parallel_composite(self, env):
        input_word = ends_in_baa(3000)
        narrow, wide = (
            traced_peak(wide_parallel(env, k), input_word) for k in (32, 64)
        )
        assert wide <= 1.25 * narrow

    def test_sixty_four_leaves_on_a_long_word(self, env):
        assert traced_peak(wide_parallel(env, 64), ends_in_baa(12000)) < 2_000_000

    def test_length_of_a_word_where_no_class_recurs(self):
        short, long = (
            traced_peak(TWO_ROUTES, word("a" * m + "b" * m)) for m in (1000, 2000)
        )
        assert long <= 2.5 * short

    @pytest.mark.parametrize(
        "family, recurs",
        [
            (lambda env, n: (wide_parallel(env, 64), ends_in_baa(n)), True),
            (lambda env, n: (EVERY_THIRD, word("aaab" * (n // 4))), True),
            (lambda env, n: (TWO_ROUTES, word("a" * (n // 2) + "b" * (n // 2))), False),
        ],
        ids=["parallel", "every-third", "two-routes"],
    )
    def test_memo_entries(self, env, family, recurs, monkeypatch):
        short, long = (
            memo_entries(monkeypatch, *family(env, n)) for n in (2000, 4000)
        )
        assert max(short) <= 2000 and max(long) <= 4000
        if recurs:
            assert long == short


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
WIDE = padded(EPSILON_CYCLE, {EXTRA})


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


def test_the_gate_error_keeps_the_codes():
    broken = Automaton(
        ADRIFT.alphabet | {EPSILON}, ADRIFT.states, ADRIFT.initial, {}, ADRIFT.finals
    )
    with pytest.raises(InvalidAutomatonError) as raised:
        accepts(broken, word("a"))
    error = raised.value
    assert error.codes == "epsilon-in-alphabet; initial-not-in-states"
    assert str(error) == f"invalid automaton: {error.codes}"
    assert pickle.loads(pickle.dumps(error)).codes == error.codes


class TestLetterKeys:
    """The kernel keys a letter, and the empty-string symbol, by the
    interned ``Symbol`` itself, never by its token."""

    def test_no_step_asks_a_symbol_whether_it_is_empty(self, n1, n2, monkeypatch):
        built = concat(n1, n2)
        fresh = Automaton(
            built.alphabet, built.states, built.initial, dict(built.transitions),
            built.finals,
        )
        right = Automaton(
            n2.alphabet, n2.states, n2.initial, dict(n2.transitions), n2.finals
        )
        input_word = word("aabaaaab")
        run = reference_witness(built, input_word)
        cuts = reference_splits(n1, n2, input_word)
        assert run is not None and cuts

        def refuse(symbol):
            raise AssertionError(f"{symbol}.is_epsilon was asked")

        monkeypatch.setattr(automaton_module.Symbol, "is_epsilon", property(refuse))
        assert accepts(fresh, input_word)
        assert witness(fresh, input_word) == run
        assert check_witness(fresh, run, input_word) == []
        assert splits(n1, right, input_word) == cuts

    @pytest.mark.parametrize(
        "stray, shown", [("b", "b"), (letter("z"), "z"), (EPSILON, "eps")]
    )
    def test_a_stray_symbol_is_named(self, n1, stray, shown):
        # A plain string is no letter, even when it spells one: the error
        # names the item and its type.  A Symbol's message is unchanged.
        message = f"symbol {shown} is not a letter of the alphabet"
        if stray.__class__ is str:
            message = (
                f"word item {shown!r} (str) is not a Symbol:"
                " build words with word() or letter()"
            )
        with pytest.raises(UnknownSymbolError) as raised:
            accepts(n1, (letter("a"), stray, letter("a")))
        assert str(raised.value) == message


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
        kernel = fresh._kernel
        assert "one_step" not in vars(kernel)
        assert "predecessors" not in vars(kernel)
        assert witness(fresh, word("baa")) == reference_witness(n1, word("baa"))
        one_step = vars(kernel)["one_step"]
        assert "predecessors" not in vars(kernel)
        assert splits(n1, fresh, word("abaa")) == reference_splits(
            n1, n1, word("abaa")
        )
        predecessors = vars(kernel)["predecessors"]
        assert witness(fresh, word("abaa")) == reference_witness(n1, word("abaa"))
        assert splits(n1, fresh, word("baa")) == reference_splits(n1, n1, word("baa"))
        assert kernel.one_step is one_step
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

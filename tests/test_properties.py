"""The seeded generator and the composition-law suite."""

import random
import textwrap

from nfalgebra import (
    EPSILON,
    Automaton,
    Concat,
    elaborate,
    parse_expression,
    render_automaton,
    render_expression,
    run_cli,
    validate,
)
from nfalgebra import properties
from nfalgebra.properties import all_words, random_automaton, run_closure_suite

from .oracles import reference_enumerate_language
from .strategies import random_expression


def with_transitions(automaton, transitions):
    """``automaton`` with its transition map replaced."""
    return Automaton(
        alphabet=automaton.alphabet,
        states=automaton.states,
        initial=automaton.initial,
        transitions=transitions,
        finals=automaton.finals,
    )


def without_bridges(expr, env):
    """``elaborate``, with the ';' bridges dropped: a sequential composite
    then accepts nothing."""
    composite = elaborate(expr, env)
    if not isinstance(expr, Concat):
        return composite
    transitions = {
        key: frozenset(t for t in targets if t.namespace[:1] == key[0].namespace[:1])
        for key, targets in composite.transitions.items()
    }
    return with_transitions(composite, transitions)


def without_right_fork_edge(expr, env):
    """``elaborate``, with the '|' fork's edge into the right operand
    dropped: a branching composite then accepts only the left language."""
    composite = elaborate(expr, env)
    if isinstance(expr, Concat):
        return composite
    transitions = dict(composite.transitions)
    fork = (composite.initial, EPSILON)
    transitions[fork] = frozenset(
        t for t in transitions[fork] if t.namespace[:1] == ("L",)
    )
    return with_transitions(composite, transitions)


class TestRandomAutomaton:
    def test_same_seed_same_devices(self):
        first = [random_automaton(random.Random(9)) for _ in range(1)]
        second = [random_automaton(random.Random(9)) for _ in range(1)]
        assert first == second
        stream_a = random.Random(10)
        stream_b = random.Random(10)
        for _ in range(20):
            assert random_automaton(stream_a) == random_automaton(stream_b)

    def test_devices_are_always_valid(self):
        rng = random.Random(4)
        for _ in range(50):
            automaton = random_automaton(rng)
            assert validate(automaton) == []
            assert 1 <= len(automaton.states) <= 4


class TestAllWords:
    def test_count_and_order(self):
        lexicon = all_words(max_len=3)
        assert len(lexicon) == 1 + 2 + 4 + 8
        assert lexicon[0] == ()
        lengths = [len(w) for w in lexicon]
        assert lengths == sorted(lengths)


class TestRandomExpression:
    def test_round_trips_and_leaf_bounds(self):
        from nfalgebra import leaf_devices

        rng = random.Random(6)
        for _ in range(40):
            expr = random_expression(rng, ["A", "B"], max_leaves=4)
            assert 1 <= len(leaf_devices(expr)) <= 4
            assert parse_expression(render_expression(expr)) == expr


class TestClosureSuite:
    def test_smoke_run_passes(self):
        result = run_closure_suite(seed=11, cases=30, max_len=5)
        assert result.ok
        assert result.failures == ()
        assert (result.seed, result.cases, result.max_len) == (11, 30, 5)

    def test_reproducible(self):
        assert run_closure_suite(3, 10, 4) == run_closure_suite(3, 10, 4)

    def test_composites_come_from_elaborate(self, monkeypatch):
        monkeypatch.setattr(properties, "elaborate", without_bridges)
        result = run_closure_suite(42, 50)
        assert not result.ok
        assert {failure.law for failure in result.failures} == {"concat"}

    def test_cli_reports_the_first_failure_and_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(properties, "elaborate", without_bridges)
        assert run_cli(["props", "--seed", "3", "--cases", "4"]) == 1
        out, err = capsys.readouterr()
        # Each case draws its left operand, then its right one.
        rng = random.Random(3)
        left, right = [random_automaton(rng) for _ in range(8)][6:]
        assert err == ""
        assert out == (
            "seed 3 cases 4 max-len 6\n"
            "failures 99\n"
            "first failure: case 3 law concat word ab composite=false oracle=true\n"
            "left operand:\n"
            + textwrap.indent(render_automaton(left, "left"), "  ")
            + "right operand:\n"
            + textwrap.indent(render_automaton(right, "right"), "  ")
        )

    def test_a_dropped_fork_edge_fails_the_parallel_law_on_each_word(
        self, monkeypatch
    ):
        monkeypatch.setattr(properties, "elaborate", without_right_fork_edge)
        seed, cases, max_len = 42, 20, 4
        result = run_closure_suite(seed, cases, max_len)
        # The broken composite accepts the left language alone, so the law
        # fails exactly on the words only the right operand accepts, in
        # word order.
        rng = random.Random(seed)
        expected = []
        for case in range(cases):
            left, right = random_automaton(rng), random_automaton(rng)
            left_language = set(reference_enumerate_language(left, max_len))
            right_language = set(reference_enumerate_language(right, max_len))
            expected += [
                (case, "parallel", w, False, True)
                for w in all_words(max_len)
                if w in right_language and w not in left_language
            ]
        assert expected
        assert [
            (f.case, f.law, f.word, f.composite_verdict, f.oracle_verdict)
            for f in result.failures
        ] == expected

    def test_failures_order_by_case_then_word_then_concat_before_parallel(
        self, monkeypatch
    ):
        def broken(expr, env):
            if isinstance(expr, Concat):
                return without_bridges(expr, env)
            return without_right_fork_edge(expr, env)

        monkeypatch.setattr(properties, "elaborate", broken)
        result = run_closure_suite(42, 20, 4)
        rank = {w: i for i, w in enumerate(all_words(4))}
        keys = [
            (f.case, rank[f.word], ("concat", "parallel").index(f.law))
            for f in result.failures
        ]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        # Some word fails both laws, so the order between them is tested.
        assert len({key[:2] for key in keys}) < len(keys)

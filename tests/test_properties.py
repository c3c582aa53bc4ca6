"""The seeded generator and the composition-law suite."""

import dataclasses
import random

from nfalgebra import Concat, elaborate, parse_expression, render_expression, validate
from nfalgebra import properties
from nfalgebra.properties import (
    all_words,
    random_automaton,
    random_expression,
    run_closure_suite,
)


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
        # An elaborate that drops the ';' bridges: the sequential composite
        # then accepts nothing, which the concat law must catch.
        def without_bridges(expr, env):
            composite = elaborate(expr, env)
            if not isinstance(expr, Concat):
                return composite
            transitions = {
                key: frozenset(
                    t for t in targets if t.namespace[:1] == key[0].namespace[:1]
                )
                for key, targets in composite.transitions.items()
            }
            return dataclasses.replace(composite, transitions=transitions)

        monkeypatch.setattr(properties, "elaborate", without_bridges)
        result = run_closure_suite(42, 50)
        assert not result.ok
        assert {failure.law for failure in result.failures} == {"concat"}

"""Acceptance gate: one test per shipped guarantee, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Budgets are wall-clock bounds on the checked computation; tests fail when
a bound is exceeded.
"""

import json
import random
import time

from nfalgebra import (
    EPSILON,
    Handoff,
    accepts,
    control_trace,
    determinize,
    elaborate,
    enumerate_language,
    equivalent,
    fixtures,
    parallel_verdicts,
    parse_automaton,
    parse_expression,
    render_automaton,
    run_cli,
    splits,
    state,
    word,
)
from nfalgebra.properties import all_words, random_automaton, run_closure_suite

from .oracles import as_text, dfa_accepts, in_l1, in_l2
from .strategies import random_expression

N1_PATH = str(fixtures.builtin_path("N1"))
N2_PATH = str(fixtures.builtin_path("N2"))

WORDS_LEN_8 = all_words(max_len=8)
WORDS_LEN_6 = all_words(max_len=6)


class _Budget:
    def __init__(self, label, seconds=None):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            print(f"{self.label}: FAIL")
            return False
        elapsed = time.perf_counter() - self.started
        if self.seconds is not None:
            assert elapsed < self.seconds, (
                f"{self.label}: exceeded budget ({elapsed:.2f}s >= {self.seconds}s)"
            )
            print(f"{self.label}: PASS ({elapsed:.2f}s < {self.seconds:.0f}s)")
        else:
            print(f"{self.label}: PASS ({elapsed:.2f}s)")
        return False


def test_criterion_1_bundled_devices_and_their_languages(capsys, n1, n2):
    with _Budget("criterion 1 (bundled devices, fixture languages)", 1.0):
        assert fixtures.builtin_path("N1").is_file()
        assert fixtures.builtin_path("N2").is_file()
        code = run_cli(["accept", "-d", N1_PATH, "-e", "N1", "-i", "abaabaa"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "accept"
        for w in WORDS_LEN_8:  # 511 words, every length up to 8
            text = as_text(w)
            assert accepts(n1, w) == in_l1(text)
            assert accepts(n2, w) == in_l2(text)


def test_criterion_2_sequential_composite(env, n1, n2):
    with _Budget("criterion 2 (sequential composite)", 1.0):
        composite = elaborate(parse_expression("N1 ; N2"), env)
        assert len(composite.states) == 6
        assert composite.initial == state("L.p0")
        assert composite.finals == {state("R.q1")}
        epsilon_edges = [
            (source, target)
            for source, symbol, target in composite.edges()
            if symbol.is_epsilon
        ]
        assert epsilon_edges == [(state("L.p3"), state("R.q0"))]
        assert accepts(composite, word("aabaaaab"))
        trace = control_trace(parse_expression("N1 ; N2"), env, word("aabaaaab"))
        assert trace.overall
        handoffs = [e for e in trace.events if isinstance(e, Handoff)]
        assert handoffs == [Handoff("L", "R", state("L.p3"), state("R.q0"))]
        assert splits(n1, n2, word("aabaaaab")) == {5}


def test_criterion_3_parallel_composite(env, n1, n2):
    with _Budget("criterion 3 (parallel composite)", 2.0):
        composite = elaborate(parse_expression("N1 | N2"), env)
        assert len(composite.states) == 7
        root = composite.initial
        assert root == state("r0")
        assert composite.targets(root, EPSILON) == {state("L.p0"), state("R.q0")}
        assert sum(1 for src, sym in composite.transitions if src == root) == 1
        assert composite.finals == {state("L.p3"), state("R.q1")}
        assert not accepts(composite, word("aabaaaab"))
        assert parallel_verdicts(n1, n2, word("aabaaaab")) == (False, False)
        for w in WORDS_LEN_8:
            text = as_text(w)
            assert accepts(composite, w) == (in_l1(text) or in_l2(text))


def test_criterion_4_composition_law_suite():
    with _Budget("criterion 4 (composition-law suite, 200 pairs)", 10.0):
        result = run_closure_suite(seed=42, cases=200, max_len=6)
        assert result.failures == (), result.failures[:3]


def test_criterion_5_determinization(n1, n2):
    with _Budget("criterion 5 (determinization)", 5.0):
        rng = random.Random(2025)
        for _ in range(100):
            automaton = random_automaton(rng)
            dfa = determinize(automaton)
            for w in WORDS_LEN_6:
                assert dfa_accepts(dfa, w) == accepts(automaton, w)
        assert len(determinize(n1).states) == 8
        subsets = {tuple(s.local for s in subset) for subset in determinize(n2).states}
        assert subsets == {("q0",), ("q0", "q1"), ("q1",), ()}


def test_criterion_6_equivalence(env):
    with _Budget("criterion 6 (equivalence)", 5.0):
        branching_left = elaborate(parse_expression("N1 | N2"), env)
        branching_right = elaborate(parse_expression("N2 | N1"), env)
        assert equivalent(branching_left, branching_right).equivalent

        sequential_left = elaborate(parse_expression("N1 ; N2"), env)
        sequential_right = elaborate(parse_expression("N2 ; N1"), env)
        verdict = equivalent(sequential_left, sequential_right)
        assert not verdict.equivalent
        assert verdict.counterexample == word("abaa")
        in_left = verdict.counterexample in enumerate_language(sequential_left, 4)
        in_right = verdict.counterexample in enumerate_language(sequential_right, 4)
        assert in_left != in_right  # confirmed by both enumeration oracles

        rng = random.Random(99)
        grouped_left = parse_expression("(A ; B) ; C")
        grouped_right = parse_expression("A ; (B ; C)")
        for _ in range(50):
            triple_env = {
                "A": random_automaton(rng),
                "B": random_automaton(rng),
                "C": random_automaton(rng),
            }
            assert equivalent(
                elaborate(grouped_left, triple_env),
                elaborate(grouped_right, triple_env),
            ).equivalent


def test_criterion_7_round_trips(env):
    with _Budget("criterion 7 (canonical round trips)"):
        for name in ("N1", "N2"):
            text = fixtures.builtin_path(name).read_text("utf-8")
            parsed_name, automaton = parse_automaton(text)
            assert parsed_name == name
            assert render_automaton(automaton, name) == text

        rng = random.Random(1717)
        names = ["D0", "D1", "D2"]
        for _ in range(50):
            device_env = {n: random_automaton(rng) for n in names}
            expr = random_expression(rng, names)
            composite = elaborate(expr, device_env)
            rendered = render_automaton(composite, "c")
            assert render_automaton(composite, "c") == rendered  # byte-stable
            reparsed_name, reparsed = parse_automaton(rendered)
            assert (reparsed_name, reparsed) == ("c", composite)
            assert render_automaton(reparsed, "c") == rendered


def test_criterion_8_cli_contract(capsys, tmp_path, env):
    with _Budget("criterion 8 (CLI contract)"):
        # Exit codes across the three outcome classes.
        assert run_cli(["accept", "-d", N1_PATH, N2_PATH, "-e", "N1 ; N2", "-i", "aabaaaab"]) == 0
        assert run_cli(["accept", "-d", N1_PATH, N2_PATH, "-e", "N1 | N2", "-i", "aabaaaab"]) == 1
        assert run_cli(["accept", "-d", N1_PATH, "-e", "N1 ;", "-i", "a"]) == 2
        assert run_cli(["accept", "-d", N1_PATH, "-e", "N1", "-i", "xyz"]) == 2
        assert run_cli(["equiv", "-d", N1_PATH, N2_PATH, "-e", "N1 ; N2", "-e2", "N2 ; N1"]) == 1
        assert run_cli(["frobnicate"]) == 2
        capsys.readouterr()

        # Compose to a file, reload, and re-run: same verdicts as in memory.
        for expression, text in (
            ("N1 ; N2", "aabaaaab"),
            ("N1 | N2", "aabaaaab"),
            ("N1 ; N2", "abaabaa"),
            ("N1 | N2", "abaabaa"),
        ):
            target = tmp_path / "composite.nfa"
            assert run_cli(
                ["compose", "-d", N1_PATH, N2_PATH, "-e", expression, "-o", str(target)]
            ) == 0
            reload_code = run_cli(
                ["accept", "-d", str(target), "-e", "composite", "-i", text]
            )
            composite = elaborate(parse_expression(expression), env)
            assert reload_code == (0 if accepts(composite, word(text)) else 1)
            capsys.readouterr()

        # The seeded suite is reproducible bit for bit.
        assert run_cli(["props", "--seed", "42", "--cases", "200"]) == 0
        first = capsys.readouterr().out
        assert run_cli(["props", "--seed", "42", "--cases", "200"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "failures 0" in first

        # Trace JSON keeps its schema.
        assert run_cli(
            ["trace", "-d", N1_PATH, N2_PATH, "-e", "N1 ; N2", "-i", "aabaaaab", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"input", "overall", "devices", "events"} <= payload.keys()

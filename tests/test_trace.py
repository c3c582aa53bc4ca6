"""Control-flow traces and the operand-level oracles."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfalgebra import (
    EPSILON,
    Activate,
    Automaton,
    Concat,
    Device,
    Handoff,
    Parallel,
    RunWitness,
    Step,
    UnknownSymbolError,
    Verdict,
    accepts,
    check_witness,
    concat,
    control_trace,
    elaborate,
    enumerate_language,
    instantiate,
    leaf_devices,
    letter,
    parallel_verdicts,
    parse_expression,
    splits,
    state,
    word,
)
from nfalgebra import automaton as automaton_module
from nfalgebra import fixtures
from nfalgebra import trace as trace_module
from nfalgebra.properties import all_words, random_automaton

from . import oracles
from .oracles import reference_control_trace, trace_payload
from .strategies import expressions, leaf_devices as leaf_automata, words
from .values import observed

# Fields for one value of each event class.
EVENT_FIELDS = {
    "Activate": ("L",),
    "Step": ("L", state("L.p0"), letter("a"), state("L.p1")),
    "Handoff": ("L", "R", state("L.p3"), state("R.q0")),
    "Verdict": ("R", True),
}


class TestEventValueSemantics:
    """Each event is the value its frozen dataclass in ``oracles`` was."""

    @pytest.mark.parametrize("name", sorted(EVENT_FIELDS))
    def test_behaves_as_the_reference_dataclass(self, name):
        assert dataclasses.is_dataclass(getattr(oracles, name))
        assert observed(trace_module, name, EVENT_FIELDS) == observed(
            oracles, name, EVENT_FIELDS
        )

    @pytest.mark.parametrize("name", sorted(EVENT_FIELDS))
    def test_values(self, name):
        outcome = observed(trace_module, name, EVENT_FIELDS)
        assert outcome["twin"] == (True, False, True)
        assert outcome["hash"] == hash(EVENT_FIELDS[name])
        assert outcome["plain"] == (False, False, True, True)
        assert all(o == (False, False, True, True) for o in outcome["others"])
        assert outcome["setattr"][0] is dataclasses.FrozenInstanceError
        assert outcome["delattr"][0] is dataclasses.FrozenInstanceError
        assert outcome["order"] == [TypeError] * 4

    @pytest.mark.parametrize("name", sorted(EVENT_FIELDS))
    def test_never_equal_to_the_reference(self, name):
        fields = EVENT_FIELDS[name]
        event = getattr(trace_module, name)(*fields)
        reference = getattr(oracles, name)(*fields)
        assert event != reference and reference != event
        assert not event == reference and not reference == event


def spelled(trace):
    """A trace as plain values: its events as (class name, *fields)."""
    events = [
        (type(e).__name__, *(getattr(e, f) for f in e.__match_args__))
        for e in trace.events
    ]
    return trace.input, trace.overall, dict(trace.devices), events


class TestReferenceTrace:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reference_trace(self, n1, n2, data):
        env = {"N1": n1, "N2": n2}
        for name in ("G0", "G1"):
            env[name] = data.draw(leaf_automata(), label=name)
        expr = data.draw(expressions(sorted(env), max_leaves=5), label="expr")
        composite = elaborate(expr, env)
        members = enumerate_language(composite, 4)
        if members and data.draw(st.booleans(), label="member"):
            input_word = data.draw(st.sampled_from(members), label="word")
        else:
            input_word = data.draw(words(), label="word")
        got = control_trace(expr, env, input_word)
        want = reference_control_trace(expr, env, input_word)
        assert spelled(got) == spelled(want)
        assert trace_payload(got, composite.alphabet) == trace_payload(
            want, composite.alphabet
        )

    def test_accepted_and_rejected_words(self, env):
        expr = Parallel(Concat(Device("N1"), Device("N2")), Device("N2"))
        for text in ("aabaaaab", "baaa", "a", "ab", "bb", ""):
            input_word = word(text)
            want = reference_control_trace(expr, env, input_word)
            assert spelled(control_trace(expr, env, input_word)) == spelled(want)


class TestControlTrace:
    def test_sequential_composite_hands_over_once(self, env):
        expr = Concat(Device("N1"), Device("N2"))
        trace = control_trace(expr, env, word("aabaaaab"))
        assert trace.overall
        handoffs = [e for e in trace.events if isinstance(e, Handoff)]
        assert handoffs == [Handoff("L", "R", state("L.p3"), state("R.q0"))]
        assert trace.devices == {"L": "N1", "R": "N2"}
        # Conservation: step letters spell the input exactly.
        letters = tuple(
            e.symbol for e in trace.events if isinstance(e, Step) and not e.symbol.is_epsilon
        )
        assert letters == word("aabaaaab")

    def test_parallel_composite_reports_both_rejections(self, env):
        expr = Parallel(Device("N1"), Device("N2"))
        trace = control_trace(expr, env, word("aabaaaab"))
        assert not trace.overall
        assert list(trace.events) == [Verdict("L", False), Verdict("R", False)]

    def test_single_device_trace(self, env):
        trace = control_trace(Device("N1"), env, word("abaabaa"))
        assert trace.overall
        kinds = [type(e) for e in trace.events]
        assert kinds == [Activate] + [Step] * 7 + [Verdict]
        assert trace.events[0] == Activate("")
        assert trace.events[-1] == Verdict("", True)

    def test_single_device_rejection(self, env):
        trace = control_trace(Device("N1"), env, word("ab"))
        assert not trace.overall
        assert list(trace.events) == [Verdict("", False)]

    def test_parallel_accept_has_one_handoff_from_the_root(self, env):
        expr = Parallel(Device("N1"), Device("N2"))
        trace = control_trace(expr, env, word("a"))
        handoffs = [e for e in trace.events if isinstance(e, Handoff)]
        assert len(handoffs) == 1
        assert handoffs[0].source_device == ""
        assert isinstance(trace.events[1], Handoff)  # right after the root activates

    def test_accepted_events_project_to_a_valid_witness(self, env):
        expr = Parallel(Concat(Device("N1"), Device("N2")), Device("N2"))
        composite = elaborate(expr, env)
        for text in ("a", "baaa", "aabaaaab"):
            trace = control_trace(expr, env, word(text))
            assert trace.overall
            moves = [e for e in trace.events if isinstance(e, (Step, Handoff))]
            states = (moves[0].source,) + tuple(m.target for m in moves)
            symbols = tuple(
                m.symbol if isinstance(m, Step) else EPSILON for m in moves
            )
            run = RunWitness(states, symbols)
            assert check_witness(composite, run, word(text)) == []

    def test_sequential_handoffs_never_go_backwards(self, env):
        rng = random.Random(8)
        expr = Concat(Device("X"), Device("Y"))
        for _ in range(15):
            pair_env = {"X": random_automaton(rng), "Y": random_automaton(rng)}
            composite = elaborate(expr, pair_env)
            for input_word in enumerate_language(composite, 4):
                trace = control_trace(expr, pair_env, input_word)
                for event in trace.events:
                    if isinstance(event, Handoff):
                        assert (event.source_device, event.target_device) == ("L", "R")

    def test_device_namespaces_stay_inside_the_device(self, env):
        # A composite bound as a device keeps its own L/R namespaces; they
        # belong to the leaf, not to the expression around it.
        inner = elaborate(Concat(Device("N2"), Device("N2")), env)
        expr = Concat(Device("C"), Device("N2"))
        trace = control_trace(expr, {"C": inner, "N2": env["N2"]}, word("aaa"))
        assert trace.overall
        assert trace.devices == {"L": "C", "R": "N2"}
        handoffs = [e for e in trace.events if isinstance(e, Handoff)]
        assert handoffs == [Handoff("L", "R", state("L.R.q1"), state("R.q0"))]
        inner_bridge = Step("L", state("L.L.q1"), EPSILON, state("L.R.q0"))
        assert inner_bridge in trace.events
        assert [e for e in trace.events if isinstance(e, Activate)] == [
            Activate("L"),
            Activate("R"),
        ]

    def test_unknown_symbol_rejected(self, env):
        with pytest.raises(UnknownSymbolError):
            control_trace(Device("N1"), env, (letter("z"),))

    def test_rejection_runs_each_device_once(self, env, monkeypatch):
        # Leaves that name one device share its verdict: one pass per name.
        passes = []

        def counted(automaton, input_word):
            passes.append(automaton)
            return accepts(automaton, input_word)

        monkeypatch.setattr(trace_module, "accepts", counted)
        expr = parse_expression("N1 | N2 | N1 | (N2 ; N1) | N1")
        input_word = word("abb" * 50)
        trace = control_trace(expr, env, input_word)
        assert not trace.overall and len(passes) == 2
        assert spelled(trace) == spelled(
            reference_control_trace(expr, env, input_word)
        )
        assert [event.device for event in trace.events] == [
            path for path, _ in leaf_devices(expr)
        ]

    def test_rejection_compiles_no_padded_device(self, monkeypatch):
        # A device over fewer letters than the composite runs on the word as
        # it is, and a letter it lacks is its reject: no padded copy, and no
        # kernel for one, is built per call.
        compiled = []
        compile_kernel = automaton_module._Kernel.__init__

        def counted(kernel, automaton):
            compiled.append(automaton)
            compile_kernel(kernel, automaton)

        monkeypatch.setattr(automaton_module._Kernel, "__init__", counted)
        env = {"X": one_letter_loop(), "N1": fixtures.n1()}
        for _ in range(3):
            trace = control_trace(parse_expression("X | N1"), env, word("aabb"))
            assert list(trace.events) == [Verdict("L", False), Verdict("R", False)]
        # One composite per call, then X and N1 once each.
        assert len(compiled) == 5

    @pytest.mark.parametrize("text", ["X | N1", "X ; N2", "N1 | (X ; X)"])
    def test_narrower_devices_match_the_reference_trace(self, env, text):
        env = {**env, "X": one_letter_loop()}
        expr = parse_expression(text)
        for input_word in map(word, ("aabb", "aaa", "b", "", "ab", "abaabaa")):
            want = reference_control_trace(expr, env, input_word)
            assert spelled(control_trace(expr, env, input_word)) == spelled(want)


def one_letter_loop():
    """One state over {a}, initial and final, with an ``a`` loop: it
    accepts a*, and rejects any word with a ``b``, a letter it lacks."""
    x0, a = state("x0"), letter("a")
    return Automaton({a}, {x0}, x0, {(x0, a): {x0}}, {x0})


class TestSplits:
    def test_unique_cut_point(self, n1, n2):
        assert splits(n1, n2, word("aabaaaab")) == {5}

    def test_empty_input_has_no_cut(self, n1, n2):
        assert splits(n1, n2, ()) == set()

    def test_agreement_with_sequential_composite(self):
        rng = random.Random(21)
        lexicon = all_words(max_len=5)
        for _ in range(20):
            left = random_automaton(rng)
            right = random_automaton(rng)
            composite = concat(instantiate(left, "L"), instantiate(right, "R"))
            for input_word in lexicon:
                assert bool(splits(left, right, input_word)) == accepts(
                    composite, input_word
                )

    def test_unknown_symbol_rejected(self, n1, n2):
        with pytest.raises(UnknownSymbolError):
            splits(n1, n2, (letter("z"),))


class TestParallelVerdicts:
    def test_both_reject(self, n1, n2):
        assert parallel_verdicts(n1, n2, word("aabaaaab")) == (False, False)

    def test_one_accepts(self, n1, n2):
        assert parallel_verdicts(n1, n2, word("a")) == (False, True)

    def test_agreement_with_parallel_composite(self):
        from nfalgebra import parallel as parallel_op

        rng = random.Random(22)
        lexicon = all_words(max_len=5)
        for _ in range(20):
            left = random_automaton(rng)
            right = random_automaton(rng)
            composite = parallel_op(instantiate(left, "L"), instantiate(right, "R"))
            for input_word in lexicon:
                first, second = parallel_verdicts(left, right, input_word)
                assert (first or second) == accepts(composite, input_word)

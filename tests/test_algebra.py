"""Composition operators: renaming, sequential/parallel composites, elaboration."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfalgebra import (
    EPSILON,
    Automaton,
    Concat,
    Device,
    InvalidDeviceError,
    Parallel,
    StateClashError,
    StateId,
    UnboundDeviceError,
    accepts,
    concat,
    elaborate,
    enumerate_language,
    equivalent,
    instantiate,
    leaf_devices,
    letter,
    parallel,
    render_automaton,
    state,
    subexpressions,
    validate,
    witness,
    word,
)
from nfalgebra import algebra, fixtures
from nfalgebra import automaton as automaton_module
from nfalgebra.properties import random_automaton, run_closure_suite

from .conftest import DEEP_LEAVES
from .oracles import reference_elaborate
from .strategies import automata, expressions, leaf_devices as leaf_automata

A = letter("a")


def epsilon_edges(automaton):
    return sorted(
        (source, target)
        for source, symbol, target in automaton.edges()
        if symbol.is_epsilon
    )


class TestInstantiate:
    def test_states_are_prefixed(self, n1):
        renamed = instantiate(n1, "L")
        assert {str(s) for s in renamed.states} == {"L.p0", "L.p1", "L.p2", "L.p3"}
        assert renamed.initial == state("L.p0")
        assert renamed.finals == {state("L.p3")}

    def test_language_is_preserved(self, n1):
        renamed = instantiate(n1, "L")
        assert accepts(renamed, word("abaabaa")) == accepts(n1, word("abaabaa")) is True

    def test_double_instantiation_nests(self, n1):
        nested = instantiate(instantiate(n1, "A"), "B")
        assert state("B.A.p0") in nested.states

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("", "namespace segment must be nonempty"),
            ("a b", "namespace segment 'a b' contains whitespace"),
            ("a.b", "namespace segment 'a.b' contains '.', the namespace separator"),
        ],
        ids=["", "a b", "a.b"],
    )
    def test_invalid_segment_rejected(self, n1, bad, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            instantiate(n1, bad)


class TestConcat:
    def test_structure(self, n1, n2):
        composite = concat(n1, n2)
        assert len(composite.states) == 6
        assert composite.initial == state("p0")
        assert composite.finals == {state("q1")}
        assert epsilon_edges(composite) == [(state("p3"), state("q0"))]
        assert validate(composite) == []

    def test_accepts_joined_input(self, n1, n2):
        assert accepts(concat(n1, n2), word("aabaaaab"))

    def test_left_without_finals_yields_empty_language(self, n1, n2):
        hollow = Automaton(
            n1.alphabet, n1.states, n1.initial, dict(n1.transitions), frozenset()
        )
        composite = concat(hollow, instantiate(n2, "R"))
        assert enumerate_language(composite, 4) == []

    def test_state_clash_rejected(self, n1):
        with pytest.raises(StateClashError):
            concat(n1, n1)

    def test_existing_epsilon_edges_out_of_finals_survive(self):
        # A final state with its own empty-string edge keeps it: the bridge
        # edge is merged in, not written over.
        s0, s1 = state("s0"), state("s1")
        left = Automaton(
            alphabet=frozenset({A}),
            states=frozenset({s0, s1}),
            initial=s0,
            transitions={(s0, EPSILON): frozenset({s1})},
            finals=frozenset({s0}),
        )
        right = instantiate(left, "R")
        composite = concat(left, right)
        assert composite.targets(s0, EPSILON) == {s1, state("R.s0")}


class TestParallel:
    def test_structure(self, n1, n2):
        composite = parallel(n1, n2)
        assert len(composite.states) == 7
        root = composite.initial
        assert str(root) == "r0"
        assert composite.targets(root, EPSILON) == {state("p0"), state("q0")}
        assert all(
            symbol.is_epsilon for (src, symbol) in composite.transitions if src == root
        )
        assert composite.finals == {state("p3"), state("q1")}
        assert validate(composite) == []

    def test_verdicts(self, n1, n2):
        composite = parallel(n1, n2)
        assert not accepts(composite, word("aabaaaab"))
        assert accepts(composite, word("a"))

    def test_fresh_root_avoids_collision(self, n1, n2):
        inner = parallel(instantiate(n1, "A"), instantiate(n2, "B"))  # has r0
        outer = parallel(inner, instantiate(n2, "C"))
        assert str(outer.initial) == "r01"
        assert validate(outer) == []

    def test_state_clash_rejected(self, n2):
        with pytest.raises(StateClashError):
            parallel(n2, n2)


BROKEN_INITIAL = Automaton(
    alphabet=frozenset({A}),
    states=frozenset({state("s0")}),
    initial=state("ghost"),
    transitions={},
    finals=frozenset(),
)

BROKEN_LETTER = Automaton(
    alphabet=frozenset({A}),
    states=frozenset({state("s0")}),
    initial=state("s0"),
    transitions={(state("s0"), letter("z")): frozenset({state("s0")})},
    finals=frozenset({state("s0")}),
)


class TestElaborate:
    def test_leaf_is_the_device_itself(self, n1, env):
        assert elaborate(Device("N1"), env) == n1

    def test_concat_node_matches_manual_construction(self, n1, n2, env):
        built = elaborate(Concat(Device("N1"), Device("N2")), env)
        manual = concat(instantiate(n1, "L"), instantiate(n2, "R"))
        assert built == manual

    def test_nested_state_count(self, env):
        expr = Parallel(Concat(Device("N1"), Device("N2")), Device("N1"))
        composite = elaborate(expr, env)
        assert len(composite.states) == 11  # 6 + 4 + fresh root
        assert validate(composite) == []

    def test_repeated_leaves_never_clash(self, env):
        expr = Parallel(Concat(Device("N1"), Device("N1")), Device("N1"))
        composite = elaborate(expr, env)
        assert len(composite.states) == 4 + 4 + 4 + 1
        assert validate(composite) == []

    def test_unbound_device(self, env):
        with pytest.raises(UnboundDeviceError):
            elaborate(Device("N9"), env)

    def test_invalid_device(self):
        broken = Automaton(
            alphabet=frozenset({A}),
            states=frozenset({state("s0")}),
            initial=state("ghost"),
            transitions={},
            finals=frozenset(),
        )
        with pytest.raises(InvalidDeviceError):
            elaborate(Device("X"), {"X": broken})

    def test_position_paths(self):
        expr = Parallel(Concat(Device("N1"), Device("N2")), Device("N1"))
        assert leaf_devices(expr) == [("L.L", "N1"), ("L.R", "N2"), ("R", "N1")]
        assert set(subexpressions(expr)) == {"", "L", "R", "L.L", "L.R"}

    def test_subexpressions_are_in_preorder(self):
        expr = Parallel(Concat(Device("N1"), Device("N2")), Device("N1"))
        assert list(subexpressions(expr)) == ["", "L", "L.L", "L.R", "R"]

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_recursive_fold(self, n1, n2, data):
        env = {"N1": n1, "N2": n2}
        for name in ("G0", "G1", "G2"):
            env[name] = data.draw(leaf_automata(), label=name)
        expr = data.draw(expressions(sorted(env)), label="expr")
        built = elaborate(expr, env)
        expected = reference_elaborate(expr, env)
        assert built == expected
        assert render_automaton(built, "c") == render_automaton(expected, "c")

    @given(expressions(["N1", "Bad", "Worse", "Gone"]))
    @settings(max_examples=100, deadline=None)
    def test_leftmost_bad_leaf_is_reported(self, n1, expr):
        env = {"N1": n1, "Bad": BROKEN_INITIAL, "Worse": BROKEN_LETTER}

        def outcome(build):
            try:
                return build(expr, env)
            except (UnboundDeviceError, InvalidDeviceError) as err:
                return type(err), str(err)

        assert outcome(elaborate) == outcome(reference_elaborate)

    def test_leftmost_bad_leaf_example(self, n1):
        env = {"N1": n1, "Bad": BROKEN_INITIAL}
        expr = Concat(Parallel(Device("N1"), Device("Gone")), Device("Bad"))
        with pytest.raises(UnboundDeviceError, match="'Gone'"):
            elaborate(expr, env)
        with pytest.raises(InvalidDeviceError, match="'Bad'.*initial-not-in-states"):
            elaborate(Concat(Device("Bad"), Device("Gone")), env)

    def test_each_device_is_validated_once(self, monkeypatch):
        # A leaf is checked by compiling its kernel, which is cached on the
        # value; fresh parses of N1 and N2 have none yet.
        compiled = []

        def counting_kernel(value):
            compiled.append(value)
            return kernel_class(value)

        kernel_class = automaton_module._Kernel
        monkeypatch.setattr(automaton_module, "_Kernel", counting_kernel)
        env = {"N1": fixtures.n1(), "N2": fixtures.n2()}
        names = ["N1", "N2", "N1", "N1", "N2"]
        expr = Device(names[0])
        for name in names[1:]:
            expr = Parallel(expr, Concat(Device(name), expr))
        elaborate(expr, env)
        elaborate(expr, env)
        assert [id(value) for value in compiled] == [id(env["N1"]), id(env["N2"])]

    def test_valid_leaves_are_never_validated(self, env, monkeypatch):
        # ``validate`` only words the error for a leaf that failed to compile.
        calls = []

        def counting_validate(value):
            calls.append(value)
            return validate(value)

        monkeypatch.setattr(algebra, "validate", counting_validate)
        monkeypatch.setattr(automaton_module, "validate", counting_validate)
        elaborate(Parallel(Concat(Device("N1"), Device("N2")), Device("N1")), env)
        run_closure_suite(42, 200)
        assert calls == []

    def test_deep_chain_needs_no_recursion(self, env, deep_chain, shallow_stack):
        names, expr, _, member = deep_chain
        composite = elaborate(expr, env)
        assert len(composite.states) == 3 * DEEP_LEAVES  # 4 + 2 per N1, N2 pair
        assert composite.initial == StateId(("L",), "p0")
        assert composite.finals == {StateId(("R",) * (DEEP_LEAVES - 1), "q1")}
        assert validate(composite) == []
        assert accepts(composite, word(member))
        paths = [".".join(["R"] * i + ["L"]) for i in range(DEEP_LEAVES - 1)]
        paths.append(".".join(["R"] * (DEEP_LEAVES - 1)))
        assert leaf_devices(expr) == list(zip(paths, names))
        assert len(subexpressions(expr)) == 2 * DEEP_LEAVES - 1


class TestCompositionLaws:
    @given(automata(), automata())
    @settings(max_examples=60)
    def test_state_count_and_structure(self, left, right):
        a = instantiate(left, "L")
        b = instantiate(right, "R")
        sequential = concat(a, b)
        assert len(sequential.states) == len(a.states) + len(b.states)
        assert sequential.initial == a.initial
        assert sequential.finals == b.finals
        branching = parallel(a, b)
        assert len(branching.states) == len(a.states) + len(b.states) + 1
        assert branching.finals == a.finals | b.finals

    def test_language_level_associativity_and_commutativity(self):
        rng = random.Random(5)
        for _ in range(10):
            x = instantiate(random_automaton(rng), "X")
            y = instantiate(random_automaton(rng), "Y")
            z = instantiate(random_automaton(rng), "Z")
            assert equivalent(
                concat(instantiate(concat(x, y), "I"), instantiate(z, "J")),
                concat(instantiate(x, "I"), instantiate(concat(y, z), "J")),
            ).equivalent
            assert equivalent(
                parallel(instantiate(x, "I"), instantiate(y, "J")),
                parallel(instantiate(y, "I"), instantiate(x, "J")),
            ).equivalent
            assert equivalent(
                parallel(instantiate(parallel(x, y), "I"), instantiate(z, "J")),
                parallel(instantiate(x, "I"), instantiate(parallel(y, z), "J")),
            ).equivalent

    def test_instantiation_invariance(self, n1):
        assert equivalent(n1, instantiate(n1, "X")).equivalent

    @given(automata(max_states=3), automata(max_states=3))
    @settings(max_examples=30)
    def test_composites_stay_valid_and_witnesses_check(self, left, right):
        composite = concat(instantiate(left, "L"), instantiate(right, "R"))
        assert validate(composite) == []
        for input_word in enumerate_language(composite, 3):
            assert witness(composite, input_word) is not None

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
    EquivalenceVerdict,
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
from .oracles import (
    reference_concat,
    reference_elaborate,
    reference_equivalent,
    reference_instantiate,
    reference_parallel,
)
from .strategies import (
    LETTERS,
    automata,
    expressions,
    invalid_automata,
    leaf_devices as leaf_automata,
)

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


def outcome(operator, *operands):
    """What an operator gives: its value, or its error's type and message."""
    try:
        return operator(*operands)
    except ValueError as err:
        return type(err), str(err)


def declared_apart(automaton, segment):
    """``automaton`` with each declared state under ``segment``, and each
    state it mentions but does not declare left as it is."""

    def renamed(s):
        return StateId((segment, *s.namespace), s.local) if s in automaton.states else s

    return Automaton(
        alphabet=automaton.alphabet,
        states={renamed(s) for s in automaton.states},
        initial=renamed(automaton.initial),
        transitions={
            (renamed(source), symbol): {renamed(t) for t in targets}
            for (source, symbol), targets in automaton.transitions.items()
        },
        finals={renamed(s) for s in automaton.finals},
    )


class TestOperatorsMatchTheReferences:
    """``instantiate``, ``concat`` and ``parallel`` against the set-based
    references in ``oracles``, which share no code with them."""

    @given(invalid_automata(), st.sampled_from(("L", "R", "X", "", "a.b")))
    @settings(max_examples=100, deadline=None)
    def test_instantiate(self, automaton, segment):
        # The operands may mention undeclared states, as initial, final or
        # edge endpoints; both sides rename those too.
        got = outcome(instantiate, automaton, segment)
        assert got == outcome(reference_instantiate, automaton, segment)

    def test_instantiate_renames_undeclared_endpoints(self):
        ghost = state("ghost")
        automaton = Automaton(
            alphabet=frozenset({A}),
            states=frozenset({state("s0")}),
            initial=ghost,
            transitions={(ghost, A): frozenset({state("s0"), state("X.far")})},
            finals=frozenset({ghost}),
        )
        renamed = instantiate(automaton, "L")
        assert renamed == reference_instantiate(automaton, "L")
        assert renamed.initial == state("L.ghost")
        assert renamed.finals == {state("L.ghost")}
        assert renamed.targets(state("L.ghost"), A) == {
            state("L.s0"),
            state("L.X.far"),
        }

    @given(
        leaf_automata(),
        leaf_automata(),
        st.sampled_from(("apart", "right-renamed", "as-drawn", "same")),
    )
    @settings(max_examples=150, deadline=None)
    def test_concat_and_parallel(self, left, right, placement):
        # Operands that share states must raise the same clash error; a
        # left operand with root-level states may already hold r0.
        if placement == "apart":
            left = reference_instantiate(left, "L")
        if placement in ("apart", "right-renamed"):
            right = reference_instantiate(right, "R")
        if placement == "same":
            right = left
        for operator, reference in (
            (concat, reference_concat),
            (parallel, reference_parallel),
        ):
            assert outcome(operator, left, right) == outcome(reference, left, right)

    @given(invalid_automata(), invalid_automata())
    @settings(max_examples=100, deadline=None)
    def test_concat_and_parallel_on_shared_undeclared_states(self, left, right):
        # Declared states apart, undeclared ones (``GHOSTS``) kept: both
        # operands may have edges out of one undeclared state on one
        # symbol, and the composite keeps the targets of both.
        left, right = declared_apart(left, "L"), declared_apart(right, "R")
        for operator, reference in (
            (concat, reference_concat),
            (parallel, reference_parallel),
        ):
            assert outcome(operator, left, right) == outcome(reference, left, right)

    def test_edges_out_of_one_undeclared_state_are_merged(self):
        ghost, s0, t0 = state("g"), state("s0"), state("t0")
        left = Automaton({A}, {s0}, s0, {(ghost, A): {s0}}, {s0})
        right = Automaton({A}, {t0}, t0, {(ghost, A): {t0}}, {t0})
        for operator, reference in (
            (concat, reference_concat),
            (parallel, reference_parallel),
        ):
            built = operator(left, right)
            assert built.targets(ghost, A) == {s0, t0}
            assert built == reference(left, right)

    @given(st.lists(leaf_automata(), min_size=3, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_chains_of_forks(self, devices):
        built = expected = devices[0]
        for k, device in enumerate(devices[1:]):
            operand = reference_instantiate(device, f"X{k}")
            built = parallel(built, operand)
            expected = reference_parallel(expected, operand)
            assert built == expected

    def test_fork_names_count_up(self, n1, n2):
        built = expected = instantiate(n1, "A")
        roots = []
        for k in range(3):
            operand = instantiate(n2, f"B{k}")
            built = parallel(built, operand)
            expected = reference_parallel(expected, operand)
            assert built == expected
            roots.append(str(built.initial))
        assert roots == ["r0", "r01", "r02"]

    def test_clash_error(self, n1, n2):
        message = "operand state sets overlap: p0, p1, p2, p3"
        for operator, reference in (
            (concat, reference_concat),
            (parallel, reference_parallel),
        ):
            assert outcome(operator, n1, n1) == (StateClashError, message)
            assert outcome(reference, n1, n1) == (StateClashError, message)
        wide = parallel(instantiate(n1, "A"), instantiate(n2, "B"))
        message = "operand state sets overlap: r0, A.p0, A.p1, A.p2, A.p3"
        assert outcome(concat, wide, wide) == (StateClashError, message)
        assert outcome(reference_concat, wide, wide) == (StateClashError, message)


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


X, Y, Z = Device("X"), Device("Y"), Device("Z")
ZERO, ONE = Device("Zero"), Device("One")

# Both sides of each equation of the idempotent semiring the operators
# form: ``|`` is the sum, ``;`` the product, Zero (no final state) the
# zero and One (accepting only the empty word) the unit.
LAWS = {
    "par-idempotent": (Parallel(X, X), X),
    "left-distributive": (
        Concat(X, Parallel(Y, Z)),
        Parallel(Concat(X, Y), Concat(X, Z)),
    ),
    "right-distributive": (
        Concat(Parallel(X, Y), Z),
        Parallel(Concat(X, Z), Concat(Y, Z)),
    ),
    "zero-par-unit": (Parallel(X, ZERO), X),
    "zero-left": (Concat(ZERO, X), ZERO),
    "zero-right": (Concat(X, ZERO), ZERO),
    "one-left": (Concat(ONE, X), X),
    "one-right": (Concat(X, ONE), X),
}
# Equations the algebra does not have.
NON_LAWS = {
    "cat-commutative": (Concat(X, Y), Concat(Y, X)),
    "cat-idempotent": (Concat(X, X), X),
}


def law_env(rng: random.Random) -> dict[str, Automaton]:
    """Three random devices X, Y, Z, and the Zero and One devices."""
    s0 = state("s0")
    lone = dict(
        alphabet=frozenset(LETTERS), states=frozenset({s0}), initial=s0, transitions={}
    )
    env = {name: random_automaton(rng) for name in "XYZ"}
    env["Zero"] = Automaton(**lone, finals=frozenset())
    env["One"] = Automaton(**lone, finals=frozenset({s0}))
    return env


def sides(equation, env):
    return [elaborate(side, env) for side in equation]


def check_verdict(left: Automaton, right: Automaton) -> EquivalenceVerdict:
    """``equivalent``'s verdict, which must be the reference's, with a
    counterexample that exactly one side accepts."""
    verdict = equivalent(left, right)
    assert verdict == reference_equivalent(left, right)
    if not verdict.equivalent:
        counterexample = verdict.counterexample
        assert accepts(left, counterexample) != accepts(right, counterexample)
    return verdict


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

    @pytest.mark.parametrize("law", LAWS)
    @given(rng=st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def test_semiring_laws_hold(self, law, rng):
        left, right = sides(LAWS[law], law_env(rng))
        assert equivalent(left, right) == EquivalenceVerdict(True, None)

    @pytest.mark.parametrize("law", NON_LAWS)
    def test_non_laws_give_the_least_counterexample(self, law):
        # Random devices seldom break these, so the loop is long and must
        # meet at least one that does.
        rng = random.Random(17)
        verdicts = [
            check_verdict(*sides(NON_LAWS[law], law_env(rng))) for _ in range(150)
        ]
        assert not all(verdict.equivalent for verdict in verdicts)

    @pytest.mark.parametrize(
        ("law", "counterexample"),
        [("cat-commutative", "abaa"), ("cat-idempotent", "baa")],
    )
    def test_non_laws_fail_on_the_bundled_devices(
        self, n1, n2, law, counterexample
    ):
        verdict = check_verdict(*sides(NON_LAWS[law], {"X": n1, "Y": n2}))
        assert verdict == EquivalenceVerdict(False, word(counterexample))

    def test_instantiation_invariance(self, n1):
        assert equivalent(n1, instantiate(n1, "X")).equivalent

    @given(automata(max_states=3), automata(max_states=3))
    @settings(max_examples=30)
    def test_composites_stay_valid_and_witnesses_check(self, left, right):
        composite = concat(instantiate(left, "L"), instantiate(right, "R"))
        assert validate(composite) == []
        for input_word in enumerate_language(composite, 3):
            assert witness(composite, input_word) is not None

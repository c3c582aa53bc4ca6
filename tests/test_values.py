"""The package's value classes against the frozen dataclasses they were."""

import dataclasses
from types import MappingProxyType, SimpleNamespace

import pytest

import nfalgebra
from nfalgebra import Activate, Device, Step, Verdict, letter, state
from nfalgebra.automaton import _Frozen
from nfalgebra.properties import LawFailure, SuiteResult

from . import values
from .values import observed

A, B = letter("a"), letter("b")
P0, P1 = state("p0"), state("p1")
AUTOMATON = nfalgebra.Automaton(
    frozenset({A}), frozenset({P0, P1}), P0, {(P0, A): frozenset({P1})}, {P1}
)

# Fields for one value of each class, in the form its constructor stores.
VALUE_FIELDS = {
    "Automaton": (
        frozenset({A}),
        frozenset({P0, P1}),
        P0,
        MappingProxyType({(P0, A): frozenset({P1})}),
        frozenset({P1}),
    ),
    "Violation": ("initial-not-in-states", "initial state p9 is not a declared state"),
    "RunWitness": ((P0, P1), (A,)),
    "Device": ("N1",),
    "Concat": (Device("N1"), Device("N2")),
    "Parallel": (Device("N1"), Device("N2")),
    "ParseDiagnostic": (3, 9, "unknown-state", "state 'p9' is not declared"),
    "Dfa": (frozenset({A, B}), ((P0,), (P1,)), ((1, 0), (1, 1)), frozenset({1})),
    "EquivalenceVerdict": (False, (A, B)),
    "ControlTrace": (
        (A,),
        True,
        (Activate("L"), Step("L", P0, A, P1), Verdict("L", True)),
        MappingProxyType({"L": "N1"}),
    ),
    "LawFailure": (3, "concat", (A,), True, False, AUTOMATON, AUTOMATON),
    "SuiteResult": (42, 10, 6, ()),
}

# The package class of each name, from the module that defines it.
PACKAGE = SimpleNamespace(
    **{n: getattr(nfalgebra, n) for n in VALUE_FIELDS if n in nfalgebra.__all__},
    LawFailure=LawFailure,
    SuiteResult=SuiteResult,
)

# Classes holding a mapping field, which cannot be hashed.
UNHASHABLE = {"Automaton", "ControlTrace", "LawFailure"}


class TestValueSemantics:
    """Each value class behaves as the frozen dataclass in ``values`` with
    its fields: repr, equality, hash, no ordering, no assignment, pickle
    and copy."""

    def test_every_class_is_sampled(self):
        # Every public class on the frozen base, but the interned names and
        # the trace events, which have tests of their own.
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        public = {c.__name__ for c in subclasses(_Frozen) if c.__name__[0] != "_"}
        others = {"Symbol", "StateId", "Activate", "Step", "Handoff", "Verdict"}
        assert public - others == set(VALUE_FIELDS) == set(vars(PACKAGE))

    @pytest.mark.parametrize("name", sorted(VALUE_FIELDS))
    def test_behaves_as_the_reference_dataclass(self, name):
        reference = getattr(values, name)
        assert dataclasses.is_dataclass(reference)
        fields = tuple(f.name for f in dataclasses.fields(reference))
        assert getattr(PACKAGE, name).__match_args__ == fields
        assert observed(PACKAGE, name, VALUE_FIELDS) == observed(
            values, name, VALUE_FIELDS
        )

    @pytest.mark.parametrize("name", sorted(VALUE_FIELDS))
    def test_values(self, name):
        outcome = observed(PACKAGE, name, VALUE_FIELDS)
        assert outcome["twin"][:2] == (True, False)
        assert outcome["plain"] == (False, False, True, True)
        assert all(o == (False, False, True, True) for o in outcome["others"])
        assert outcome["setattr"][0] is dataclasses.FrozenInstanceError
        assert outcome["delattr"][0] is dataclasses.FrozenInstanceError
        assert outcome["order"] == [TypeError] * 4
        if name in UNHASHABLE:
            assert outcome["hash"] == (TypeError, "unhashable type: 'mappingproxy'")
        else:
            assert outcome["twin"][2] is True
            assert outcome["hash"] == hash(VALUE_FIELDS[name])

    @pytest.mark.parametrize("name", sorted(VALUE_FIELDS))
    def test_never_equal_to_the_reference(self, name):
        fields = VALUE_FIELDS[name]
        value = getattr(PACKAGE, name)(*fields)
        reference = getattr(values, name)(*fields)
        assert value != reference and reference != value
        assert not value == reference and not reference == value

    def test_constructors_store_their_normal_form(self):
        transitions = {(P0, A): [P1], (P1, B): []}
        built = nfalgebra.Automaton([A], [P0, P1], P0, transitions, [P1])
        assert built == AUTOMATON
        assert type(built.transitions) is MappingProxyType
        assert list(built.transitions) == [(P0, A)]
        trace = nfalgebra.ControlTrace([A], True, [])
        assert (trace.input, trace.events, trace.devices) == ((A,), (), {})
        assert trace.devices is not nfalgebra.ControlTrace((), True, ()).devices

    def test_the_kernel_cache_is_not_a_field(self):
        automaton = nfalgebra.Automaton(*VALUE_FIELDS["Automaton"])
        assert nfalgebra.accepts(automaton, (A,))
        assert "_kernel" in vars(automaton)
        assert automaton == AUTOMATON
        assert repr(automaton) == repr(AUTOMATON)

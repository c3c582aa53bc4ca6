"""The constructor rule and the pickling rule of the frozen base."""

import inspect

import pytest

from nfalgebra import (
    Automaton,
    Concat,
    ControlTrace,
    Device,
    Dfa,
    EquivalenceVerdict,
    ParseDiagnostic,
    Parallel,
    RunWitness,
    StateId,
    Symbol,
    Violation,
    letter,
    state,
)
from nfalgebra.algebra import _Node
from nfalgebra.automaton import _Frozen
from nfalgebra.properties import LawFailure, SuiteResult

from .test_values import AUTOMATON, VALUE_FIELDS

# The classes whose constructor the base builds, each with the class name
# that the constructor's error messages give.
BUILT = {
    Violation: "Violation",
    RunWitness: "RunWitness",
    Concat: "_Node",
    Parallel: "_Node",
    EquivalenceVerdict: "EquivalenceVerdict",
    ParseDiagnostic: "ParseDiagnostic",
    LawFailure: "LawFailure",
    SuiteResult: "SuiteResult",
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _message(action):
    with pytest.raises(TypeError) as caught:
        action()
    return str(caught.value)


@pytest.mark.parametrize("cls", BUILT, ids=lambda cls: cls.__name__)
class TestBuiltConstructors:
    def test_positional_and_keyword_calls_agree(self, cls):
        fields = VALUE_FIELDS[cls.__name__]
        by_position = cls(*fields)
        by_keyword = cls(**dict(zip(cls.__match_args__, fields)))
        assert by_position == by_keyword
        assert by_position._values() == fields

    def test_signature_lists_the_fields_in_order(self, cls):
        parameters = inspect.signature(cls).parameters.values()
        assert tuple(p.name for p in parameters) == cls.__match_args__
        assert {p.kind for p in parameters} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
        assert {p.default for p in parameters} == {inspect.Parameter.empty}

    def test_errors_read_as_a_written_constructor(self, cls):
        fields = VALUE_FIELDS[cls.__name__]
        count = len(fields)
        name = f"{BUILT[cls]}.__init__()"
        assert cls.__init__.__qualname__ == f"{BUILT[cls]}.__init__"
        assert _message(lambda: cls(*fields[:-1])) == (
            f"{name} missing 1 required positional argument:"
            f" {cls.__match_args__[-1]!r}"
        )
        assert _message(lambda: cls(*fields, None)) == (
            f"{name} takes {count + 1} positional arguments but {count + 2} were given"
        )
        assert _message(lambda: cls(*fields, bogus=1)) == (
            f"{name} got an unexpected keyword argument 'bogus'"
        )


class TestConstructorRule:
    def test_only_classes_without_their_own_constructor_get_one(self):
        def compiled(cls):
            code = getattr(cls.__init__, "__code__", None)
            return code is not None and code.co_filename == "<string>"

        assert set(filter(compiled, _subclasses(_Frozen))) == {*BUILT, _Node}
        # These normalise or check their fields in a written constructor.
        for cls in (Automaton, Dfa, ControlTrace, Device):
            assert "__init__" in vars(cls)

    def test_new_built_names_keep_their_interned_object(self):
        # ``StateId`` and ``Symbol`` build their values in ``__new__``; a
        # constructor run after it would overwrite the shared object's
        # fields with the raw arguments.
        built = StateId(["L"], "p0")
        assert built is state("L.p0")
        assert built.namespace == ("L",) and type(built.namespace) is tuple
        assert state("L.p0").namespace == ("L",)
        assert Symbol("a") is letter("a")
        assert letter("a").token == "a"
        assert "__init__" not in vars(StateId) and "__init__" not in vars(Symbol)


class TestPicklingRule:
    def test_every_value_pickles_by_the_one_rule(self):
        for cls in _subclasses(_Frozen):
            assert cls.__reduce__ is _Frozen.__reduce__, cls

    def test_values_reduce_to_their_constructor_and_fields(self):
        failure = LawFailure(*VALUE_FIELDS["LawFailure"])
        assert failure.__reduce__() == (LawFailure, VALUE_FIELDS["LawFailure"])
        assert state("L.p0").__reduce__() == (StateId, (("L",), "p0"))
        # A mapping proxy, which does not pickle, goes as a plain dict.
        made, fields = AUTOMATON.__reduce__()
        assert made is type(AUTOMATON) and type(fields[3]) is dict
        assert made(*fields) == AUTOMATON

"""The value-semantics harness, and frozen reference dataclasses for the
package's value classes.

``observed(module, name, samples)`` records what class ``name`` of
``module`` does as a value: its repr and ``__match_args__``, equality
with a twin, a plain tuple and values of the other classes of
``samples``, its hash or the error hashing raises, the errors of
assignment, deletion and ordering, and what pickling at every protocol,
``copy`` and ``deepcopy`` give back.  Run on a package class and on its
reference dataclass, the two records must be equal.

Each dataclass below has the name and the fields, in order, of one value
class of the package, and nothing else: no normalisation and no checks.
So the samples given to both sides must already be in the form the
package's constructors store (frozensets, tuples, ``MappingProxyType``
maps).  The trace events' reference dataclasses live in ``oracles``,
which builds traces of them.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass
from typing import Any, Mapping


def attempt(action):
    """``action()``'s result, or the class and message of what it raised."""
    try:
        return action()
    except Exception as err:  # noqa: BLE001 - the outcome is the point
        return type(err), str(err)


def raised(action):
    """The class and message of what ``action()`` raises, or None."""
    try:
        action()
    except Exception as err:  # noqa: BLE001 - the outcome is the point
        return type(err), str(err)
    return None


def _other(cls, fields, own):
    """A value of ``cls`` with ``fields`` where it has as many and they
    build one, else with its ``own`` fields."""
    if len(cls.__match_args__) == len(fields):
        try:
            return cls(*fields)
        except (TypeError, ValueError):
            pass
    return cls(*own)


def _copied(make, cls, value):
    """What ``make()`` gives back, as plain facts about it."""
    result = make()
    return (
        type(result) is cls,
        result == value,
        attempt(lambda: hash(result)),
        repr(result),
    )


def observed(module, name, samples: Mapping[str, tuple]) -> dict[str, Any]:
    """What class ``name`` of ``module`` does as a value; ``samples`` maps
    each class name to the fields of one value of that class."""
    cls = getattr(module, name)
    fields = samples[name]
    value = cls(*fields)
    twin = cls(**dict(zip(cls.__match_args__, fields)))
    plain = tuple(fields)
    others = [
        _other(getattr(module, other), fields, own)
        for other, own in samples.items()
        if other != name
    ]
    makers = [
        lambda p=p: pickle.loads(pickle.dumps(value, p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    makers += [lambda: copy.copy(value), lambda: copy.deepcopy(value)]
    return {
        "repr": repr(value),
        "match_args": cls.__match_args__,
        "twin": (
            value == twin,
            value != twin,
            attempt(lambda: hash(value) == hash(twin)),
        ),
        "hash": attempt(lambda: hash(value)),
        "plain": (value == plain, plain == value, value != plain, plain != value),
        "others": [(value == o, o == value, value != o, o != value) for o in others],
        "setattr": raised(lambda: setattr(value, cls.__match_args__[0], "x")),
        "delattr": raised(lambda: delattr(value, cls.__match_args__[0])),
        "order": [
            raised(lambda: value < twin)[0],
            raised(lambda: value >= twin)[0],
            raised(lambda: plain < value)[0],
            raised(lambda: sorted([value, twin]))[0],
        ],
        "copies": [attempt(lambda m=m: _copied(m, cls, value)) for m in makers],
    }


@dataclass(frozen=True)
class Automaton:
    alphabet: Any
    states: Any
    initial: Any
    transitions: Any
    finals: Any


@dataclass(frozen=True)
class Violation:
    code: Any
    message: Any


@dataclass(frozen=True)
class RunWitness:
    states: Any
    symbols: Any


@dataclass(frozen=True)
class Device:
    name: Any


@dataclass(frozen=True)
class Concat:
    left: Any
    right: Any


@dataclass(frozen=True)
class Parallel:
    left: Any
    right: Any


@dataclass(frozen=True)
class ParseDiagnostic:
    line: Any
    column: Any
    code: Any
    message: Any


@dataclass(frozen=True)
class Dfa:
    alphabet: Any
    states: Any
    transition: Any
    finals: Any


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: Any
    counterexample: Any


@dataclass(frozen=True)
class ControlTrace:
    input: Any
    overall: Any
    events: Any
    devices: Any


@dataclass(frozen=True)
class LawFailure:
    case: Any
    law: Any
    word: Any
    composite_verdict: Any
    oracle_verdict: Any
    left: Any
    right: Any


@dataclass(frozen=True)
class SuiteResult:
    seed: Any
    cases: Any
    max_len: Any
    failures: Any

"""Control-flow traces over composites.

A composite built by ``elaborate`` keeps each operand's states under a
namespace that records the operand's position in the expression tree.  A
trace replays the canonical accepting run and attributes every state to
its owning device, which makes the hidden choreography visible: where a
device is activated, where an empty-string bridge hands control to the
next device, and what each device decides.

``splits`` and ``parallel_verdicts`` are the matching oracles: they judge
an input using only the operand automata, never the composite, which is
what makes them fit to check the composition laws.  ``splits`` cuts a
word in two linear passes, forward over the left operand and backward
over the right one; ``parallel_verdicts`` runs each operand on the word.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress, count, islice, repeat
from operator import ne
from types import MappingProxyType
from typing import Container, Iterable, Mapping, Union

from . import _EXPORTS
from .algebra import (
    CompositionExpr,
    DeviceEnvironment,
    _positions,
    elaborate,
    leaf_devices,
)
from .automaton import (
    EPSILON,
    Automaton,
    StateId,
    Symbol,
    UnknownSymbolError,
    Word,
    _Frozen,
    _kernel,
    _on_union_alphabet,
    accepts,
    witness,
)

__all__ = [*_EXPORTS["trace"]]


class _Event(_Frozen):
    """A frozen value on a named tuple.

    ``_Frozen`` gives an event its repr, its equality (only with an event
    of its own class with equal fields, never with a plain tuple) and its
    hash.  What is left here is ordering: a tuple orders, an event does
    not.  Being a tuple, an event can be built by ``tuple.__new__`` with no
    Python frame, which a trace does per letter.
    """

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        raise TypeError(f"{type(self).__name__} events are not ordered")

    __le__ = __gt__ = __ge__ = __lt__


class Activate(_Event, namedtuple("Activate", "device")):
    """Control enters a device for the first time."""

    __slots__ = ()
    device: str


class Step(_Event, namedtuple("Step", "device source symbol target")):
    """One transition taken inside a device."""

    __slots__ = ()
    device: str
    source: StateId
    symbol: Symbol
    target: StateId


class Handoff(
    _Event, namedtuple("Handoff", "source_device target_device source target")
):
    """An empty-string move whose endpoints belong to different devices."""

    __slots__ = ()
    source_device: str
    target_device: str
    source: StateId
    target: StateId


class Verdict(_Event, namedtuple("Verdict", "device accepted")):
    """A device's accept/reject outcome."""

    __slots__ = ()
    device: str
    accepted: bool


TraceEvent = Union[Activate, Step, Handoff, Verdict]


class ControlTrace(_Frozen):
    """Event log for one input against one expression.

    ``devices`` maps leaf position paths to device names so renderers can
    label events; the root composite has the empty path.  Each trace holds
    its own copy of ``devices``, empty when none is given.
    """

    __match_args__ = ("input", "overall", "events", "devices")

    input: Word
    overall: bool
    events: tuple[TraceEvent, ...]
    devices: Mapping[str, str]

    def __init__(
        self,
        input: Iterable[Symbol],
        overall: bool,
        events: Iterable[TraceEvent],
        devices: Mapping[str, str] = MappingProxyType({}),
    ) -> None:
        object.__setattr__(self, "input", tuple(input))
        object.__setattr__(self, "overall", overall)
        object.__setattr__(self, "events", tuple(events))
        object.__setattr__(self, "devices", MappingProxyType(dict(devices)))


def control_trace(
    expr: CompositionExpr, env: DeviceEnvironment, input_word: Iterable[Symbol]
) -> ControlTrace:
    """Trace how control flows through the composite on ``input_word``.

    When the composite accepts, the canonical run witness is replayed:
    each state is attributed to the expression node owning its namespace,
    cross-device empty-string moves become handoff events, first entries
    become activations, and a single verdict closes the log.

    When it rejects, no speculative steps are emitted (replaying "the"
    failed run is ill-defined under nondeterminism); instead every leaf
    device reports its own verdict on a full copy of the input, one
    ``Verdict`` per leaf in left-to-right order.  Each device runs once,
    however many leaves name it.
    """
    return _trace_composite(expr, env, elaborate(expr, env), input_word)


def _trace_composite(
    expr: CompositionExpr,
    env: DeviceEnvironment,
    composite: Automaton,
    input_word: Iterable[Symbol],
) -> ControlTrace:
    """``control_trace`` for a caller that already holds
    ``composite = elaborate(expr, env)``."""
    input_word = tuple(input_word)
    devices = dict(leaf_devices(expr))
    run = witness(composite, input_word)
    if run is None:
        decided = {}
        for name in dict.fromkeys(devices.values()):
            try:
                decided[name] = accepts(env[name], input_word)
            except UnknownSymbolError:
                # The composite read the word, so the letter is one of the
                # union alphabet that this device lacks.
                decided[name] = False
        verdicts = [Verdict(path, decided[name]) for path, name in devices.items()]
        return ControlTrace(input_word, False, verdicts, devices)
    states, symbols = run.states, run.symbols
    positions = {path for _, path in _positions(expr)}
    owned = list(map(_owners(positions, composite.states).__getitem__, states))
    # Every move is built as a Step by C-level iteration alone, since
    # ``tuple.__new__`` runs no Python frame.  Python code visits only the
    # moves that change device, a few per run: an empty-string one becomes
    # a Handoff, and a device's first entry adds an Activate.
    new = tuple.__new__
    steps = map(new, repeat(Step), zip(owned, states, symbols, islice(states, 1, None)))
    events: list[TraceEvent] = [new(Activate, (owned[0],))]
    active = {owned[0]}
    done = 0
    for index in compress(count(), map(ne, owned, islice(owned, 1, None))):
        events += islice(steps, index - done)
        step = next(steps)
        done = index + 1
        source_device, target_device = owned[index], owned[done]
        if symbols[index] is EPSILON:
            step = new(
                Handoff, (source_device, target_device, states[index], states[done])
            )
        events.append(step)
        if target_device not in active:
            events.append(new(Activate, (target_device,)))
            active.add(target_device)
    events += steps
    events.append(new(Verdict, (owned[-1], True)))
    return ControlTrace(input_word, True, events, devices)


def _owners(
    positions: Container[tuple[str, ...]], states: Iterable[StateId]
) -> dict[StateId, str]:
    """The dotted position of the expression node that owns each state: the
    longest prefix of its namespace that is one of the ``positions`` (the
    root's, ``()``, is always one).  No position lies below a leaf, so any
    deeper segments are the device's own internal structure.
    """
    owners = {}
    for state_id in states:
        namespace = state_id.namespace
        depth = len(namespace)
        while namespace[:depth] not in positions:
            depth -= 1
        owners[state_id] = ".".join(namespace[:depth])
    return owners


def splits(
    left: Automaton, right: Automaton, input_word: Iterable[Symbol]
) -> set[int]:
    """Every index cutting the input into an accepted prefix/suffix pair.

    Index ``i`` is reported when ``input[:i]`` is in the left language and
    ``input[i:]`` in the right one.  Two linear passes over the operands,
    on their union alphabet, decide every index at once: a forward pass of
    the left operand marks the prefixes it accepts, and a backward pass of
    the right one the suffixes that lead its initial state to a final
    state.  Never consults a composite.
    """
    input_word = tuple(input_word)
    padded_left, padded_right = _on_union_alphabet(left, right)
    first, second = _kernel(padded_left), _kernel(padded_right)
    prefixes = first.run(first.indices(input_word))
    suffixes = second.live(second.indices(input_word))
    return {
        i
        for i, (ahead, behind) in enumerate(zip(prefixes, suffixes))
        if ahead & first.finals and behind >> second.initial & 1
    }


def parallel_verdicts(
    left: Automaton, right: Automaton, input_word: Iterable[Symbol]
) -> tuple[bool, bool]:
    """Each operand's verdict on its own full copy of the input."""
    input_word = tuple(input_word)
    padded_left, padded_right = _on_union_alphabet(left, right)
    return accepts(padded_left, input_word), accepts(padded_right, input_word)

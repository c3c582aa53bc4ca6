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

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .algebra import (
    CompositionExpr,
    Device,
    DeviceEnvironment,
    elaborate,
    leaf_devices,
)
from .automaton import (
    Automaton,
    StateId,
    Symbol,
    Word,
    _kernel,
    _on_union_alphabet,
    accepts,
    pad_alphabet,
    witness,
)

__all__ = [
    "Activate",
    "ControlTrace",
    "Handoff",
    "Step",
    "TraceEvent",
    "Verdict",
    "control_trace",
    "parallel_verdicts",
    "splits",
]


@dataclass(frozen=True)
class Activate:
    """Control enters a device for the first time."""

    device: str


@dataclass(frozen=True)
class Step:
    """One transition taken inside a device."""

    device: str
    source: StateId
    symbol: Symbol
    target: StateId


@dataclass(frozen=True)
class Handoff:
    """An empty-string move whose endpoints belong to different devices."""

    source_device: str
    target_device: str
    source: StateId
    target: StateId


@dataclass(frozen=True)
class Verdict:
    """A device's accept/reject outcome."""

    device: str
    accepted: bool


TraceEvent = Union[Activate, Step, Handoff, Verdict]


@dataclass(frozen=True)
class ControlTrace:
    """Event log for one input against one expression.

    ``devices`` maps leaf position paths to device names so renderers can
    label events; the root composite has the empty path.
    """

    input: Word
    overall: bool
    events: tuple[TraceEvent, ...]
    devices: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "input", tuple(self.input))
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "devices", MappingProxyType(dict(self.devices)))


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
    device reports its own verdict on a full copy of the input.
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
    leaves = leaf_devices(expr)
    owners: dict[tuple[str, ...], str] = {}

    def owner(state_id: StateId) -> str:
        # Longest expression-position prefix of the namespace, found by
        # walking down the tree; any deeper segments are the device's own
        # internal structure.  Each namespace is resolved once per trace.
        namespace = state_id.namespace
        found = owners.get(namespace)
        if found is None:
            node, depth = expr, 0
            for segment in namespace:
                if isinstance(node, Device) or segment not in ("L", "R"):
                    break
                node = node.left if segment == "L" else node.right
                depth += 1
            found = owners[namespace] = ".".join(namespace[:depth])
        return found

    events: list[TraceEvent] = []
    run = witness(composite, input_word)
    if run is None:
        for path, name in leaves:
            device = pad_alphabet(env[name], composite.alphabet)
            events.append(Verdict(path, accepts(device, input_word)))
        overall = False
    else:
        owned = [owner(s) for s in run.states]
        active: set[str] = set()
        first = owned[0]
        events.append(Activate(first))
        active.add(first)
        for index, symbol in enumerate(run.symbols):
            source, target = run.states[index], run.states[index + 1]
            source_device, target_device = owned[index], owned[index + 1]
            if symbol.is_epsilon and source_device != target_device:
                events.append(Handoff(source_device, target_device, source, target))
            else:
                events.append(Step(source_device, source, symbol, target))
            if target_device not in active:
                events.append(Activate(target_device))
                active.add(target_device)
        events.append(Verdict(owned[-1], True))
        overall = True
    return ControlTrace(input_word, overall, tuple(events), dict(leaves))


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

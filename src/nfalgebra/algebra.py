"""Composition of automata.

Two binary operators build bigger automata out of smaller ones:

* ``concat(a, b)`` runs ``a`` first; every final state of ``a`` gains an
  empty-string edge onto ``b``'s initial state, and only ``b``'s finals
  accept.  The composite language is the concatenation of the operand
  languages.
* ``parallel(a, b)`` adds one fresh initial state with empty-string edges
  into both operands; either operand's finals accept.  The composite
  language is the union.

Both constructions take plain unions of state sets and therefore require
the operands to be disjoint.  ``instantiate`` manufactures disjointness by
prepending a namespace segment to every state.  ``elaborate`` builds the
composite an expression tree describes, with every operand renamed under
its position in the tree, with no intermediate composite; composites are
ordinary automata that can be composed again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from . import _EXPORTS
from .automaton import (
    _EXPRESSION_MARKS,
    EPSILON,
    Automaton,
    InvalidAutomatonError,
    StateId,
    Symbol,
    _kernel,
    check_name,
    check_segment,
    validate,
)

__all__ = [*_EXPORTS["algebra"]]


class StateClashError(ValueError):
    """Operand state sets overlap; rename one side apart first."""


class UnboundDeviceError(ValueError):
    """An expression names a device the environment does not bind."""


class InvalidDeviceError(ValueError):
    """A bound device fails validation and cannot be composed."""


def check_device_name(name: str) -> None:
    """Reject a name an expression could not refer to as one leaf, or a
    device file could not declare.  This is the one device-name rule."""
    check_name(name, "device name", (_EXPRESSION_MARKS, "#"))


@dataclass(frozen=True)
class Device:
    """Leaf of an expression: a reference to a named automaton."""

    name: str

    def __post_init__(self) -> None:
        check_device_name(self.name)


@dataclass(frozen=True)
class Concat:
    left: "CompositionExpr"
    right: "CompositionExpr"


@dataclass(frozen=True)
class Parallel:
    left: "CompositionExpr"
    right: "CompositionExpr"


CompositionExpr = Union[Device, Concat, Parallel]

DeviceEnvironment = Mapping[str, Automaton]


def instantiate(automaton: Automaton, segment: str) -> Automaton:
    """Isomorphic copy with ``segment`` prepended to every state's namespace.

    Renaming never touches the language; applying it twice nests paths, so
    instantiating with "A" then "B" yields ``B.A.*`` states.
    """
    try:
        check_segment(segment, "namespace segment")
    except ValueError as err:
        raise ValueError(f"invalid namespace segment: {err}") from None

    def rename(s: StateId) -> StateId:
        return StateId((segment, *s.namespace), s.local)

    transitions = {
        (rename(source), symbol): frozenset(rename(t) for t in targets)
        for (source, symbol), targets in automaton.transitions.items()
    }
    return Automaton(
        alphabet=automaton.alphabet,
        states=frozenset(rename(s) for s in automaton.states),
        initial=rename(automaton.initial),
        transitions=transitions,
        finals=frozenset(rename(s) for s in automaton.finals),
    )


def _joined_transitions(
    left: Automaton, right: Automaton
) -> dict[tuple[StateId, Symbol], frozenset[StateId]]:
    """Both operands' transitions in one map, once their state sets are
    known to be disjoint."""
    clash = left.states & right.states
    if clash:
        listed = ", ".join(str(s) for s in sorted(clash)[:5])
        raise StateClashError(f"operand state sets overlap: {listed}")
    return {**left.transitions, **right.transitions}


def concat(left: Automaton, right: Automaton) -> Automaton:
    """Sequential composite of two state-disjoint automata.

    The left operand keeps all of its transitions; each of its final states
    additionally gains an empty-string edge to the right operand's initial
    state (merged with any empty-string edges it already had).  The
    composite starts at the left initial state and accepts exactly at the
    right operand's finals, so a left operand with no finals yields an
    empty language.
    """
    transitions = _joined_transitions(left, right)
    for final in left.finals:
        key = (final, EPSILON)
        transitions[key] = transitions.get(key, frozenset()) | {right.initial}
    return Automaton(
        alphabet=left.alphabet | right.alphabet,
        states=left.states | right.states,
        initial=left.initial,
        transitions=transitions,
        finals=right.finals,
    )


def parallel(left: Automaton, right: Automaton) -> Automaton:
    """Branching composite of two state-disjoint automata.

    A fresh initial state (named ``r0``, suffixed with the smallest number
    that avoids a clash) forks via empty-string edges into both operands
    and carries no letter moves of its own.  Finals are the union of the
    operands' finals.
    """
    transitions = _joined_transitions(left, right)
    taken = left.states | right.states
    root = StateId((), "r0")
    bump = 1
    while root in taken:
        root = StateId((), f"r0{bump}")
        bump += 1
    transitions[(root, EPSILON)] = frozenset({left.initial, right.initial})
    return Automaton(
        alphabet=left.alphabet | right.alphabet,
        states=taken | {root},
        initial=root,
        transitions=transitions,
        finals=left.finals | right.finals,
    )


def elaborate(expr: CompositionExpr, env: DeviceEnvironment) -> Automaton:
    """Build the composite automaton an expression describes.

    Each operand is renamed under its position in the tree (left child
    "L", right child "R", nested positions nest), so the same device name
    may appear at any number of leaves without state clashes.  Every leaf
    is checked before use by compiling its kernel, which is cached on the
    value, so a device is checked once however often it is composed; the
    leftmost unbound or invalid leaf is the one reported.

    The result is what folding the tree with ``instantiate``, ``concat``
    and ``parallel`` would give, built with no intermediate composite:
    every leaf state is renamed straight to its final position path, then
    the nodes are folded bottom-up.  Each ``;`` node bridges the finals of
    its left subtree to the initial state of its right one, and each ``|``
    node adds its fork state ``r0`` under its own path (both operands live
    under ``L``/``R``, so ``r0`` never needs a suffix).  A lone device
    comes back as the bound automaton itself.
    """
    checked: dict[str, Automaton] = {}

    def bound(name: str) -> Automaton:
        automaton = checked.get(name)
        if automaton is None:
            automaton = env.get(name)
            if automaton is None:
                raise UnboundDeviceError(f"no device named {name!r} is bound")
            try:
                _kernel(automaton)
            except InvalidAutomatonError:
                detail = "; ".join(v.code for v in validate(automaton))
                raise InvalidDeviceError(
                    f"device {name!r} is invalid: {detail}"
                ) from None
            checked[name] = automaton
        return automaton

    if isinstance(expr, Device):
        return bound(expr.name)

    positions = _positions(expr)
    alphabet: set[Symbol] = set()
    states: set[StateId] = set()
    transitions: dict[tuple[StateId, Symbol], frozenset[StateId]] = {}
    # Leaves go in left to right, which keeps the maps close to the
    # canonical order that renders sort them into: (initial state, final
    # states) of each renamed leaf.
    leaves: list[tuple[StateId, list[StateId]]] = []
    for node, path in positions:
        if isinstance(node, Device):
            automaton = bound(node.name)
            rename = {
                s: StateId((*path, *s.namespace), s.local) for s in automaton.states
            }
            alphabet |= automaton.alphabet
            states.update(rename.values())
            for (source, symbol), targets in automaton.transitions.items():
                transitions[(rename[source], symbol)] = frozenset(
                    rename[t] for t in targets
                )
            leaves.append(
                (rename[automaton.initial], [rename[f] for f in automaton.finals])
            )
    # (initial state, final states) of each finished subtree.
    done: list[tuple[StateId, list[StateId]]] = []
    for node, path in reversed(positions):
        if isinstance(node, Device):
            done.append(leaves.pop())
            continue
        left_initial, left_finals = done.pop()
        right_initial, right_finals = done.pop()
        if isinstance(node, Concat):
            bridge = frozenset({right_initial})
            for final in left_finals:
                key = (final, EPSILON)
                transitions[key] = transitions.get(key, frozenset()) | bridge
            done.append((left_initial, right_finals))
        else:
            fork = StateId(path, "r0")
            states.add(fork)
            transitions[(fork, EPSILON)] = frozenset({left_initial, right_initial})
            done.append((fork, left_finals + right_finals))
    initial, finals = done.pop()
    return Automaton(
        alphabet=frozenset(alphabet),
        states=frozenset(states),
        initial=initial,
        transitions=transitions,
        finals=frozenset(finals),
    )


def _positions(
    expr: CompositionExpr,
) -> list[tuple[CompositionExpr, tuple[str, ...]]]:
    """Every node with its position path, in pre-order: each node, then its
    left subtree, then its right one.  The root's path is empty, and a
    child's path appends "L" or "R" to its parent's; so no position lies
    below a leaf, and every prefix of a position is a position.

    Read in reverse, the list gives both subtrees of a node before the
    node, the left one last: a fold that stacks each finished subtree's
    result finds the left child's on top.  This is the one walk of the
    tree; an expression of any depth costs heap, not the interpreter's
    stack."""
    out = []
    pending: list[tuple[CompositionExpr, tuple[str, ...]]] = [(expr, ())]
    while pending:
        node, path = pending.pop()
        out.append((node, path))
        if not isinstance(node, Device):
            pending.append((node.right, path + ("R",)))
            pending.append((node.left, path + ("L",)))
    return out


def subexpressions(expr: CompositionExpr) -> dict[str, CompositionExpr]:
    """Map every position path to its subtree ("" is the root, children
    append L/R), in pre-order: each node, then its left subtree, then its
    right one."""
    return {".".join(path): node for node, path in _positions(expr)}


def leaf_devices(expr: CompositionExpr) -> list[tuple[str, str]]:
    """(position path, device name) for every leaf, left to right."""
    return [
        (path, node.name)
        for path, node in subexpressions(expr).items()
        if isinstance(node, Device)
    ]

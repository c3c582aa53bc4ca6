"""Composition of automata.

Two binary operators build bigger automata out of smaller ones:

* ``concat(a, b)`` runs ``a`` first; every final state of ``a`` gains an
  empty-string edge onto ``b``'s initial state, and only ``b``'s finals
  accept.  The composite language is the concatenation of the operand
  languages.
* ``parallel(a, b)`` adds one fresh initial state with empty-string edges
  into both operands; either operand's finals accept.  The composite
  language is the union.

Both constructions take plain unions of state sets and edge maps, and
therefore require the operands to be disjoint.  ``instantiate``
manufactures disjointness by prepending a namespace segment to every
state.  ``elaborate`` builds the composite an expression tree describes,
with every operand renamed under its position in the tree, with no
intermediate composite; composites are ordinary automata that can be
composed again.

Each rule is written once, and the operators and ``elaborate`` share it:
``_place`` renames a device into shared maps, ``_bridge`` is the ``;``
rule and ``_fork`` the ``|`` rule.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union

from . import _EXPORTS
from .automaton import (
    _EXPRESSION_MARKS,
    EPSILON,
    Automaton,
    InvalidAutomatonError,
    StateId,
    Symbol,
    _Frozen,
    _kernel,
    _NO_STATES,
    _state_order,
    check_name,
    check_segment,
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


class Device(_Frozen):
    """Leaf of an expression: a reference to a named automaton."""

    __match_args__ = ("name",)

    name: str

    def __init__(self, name: str) -> None:
        check_device_name(name)
        object.__setattr__(self, "name", name)


class _Node(_Frozen):
    """An operator node: ``left`` and ``right`` are its operand trees."""

    __match_args__ = ("left", "right")

    left: CompositionExpr
    right: CompositionExpr


class Concat(_Node):
    """``left ; right``: the sequential composite."""


class Parallel(_Node):
    """``left | right``: the branching composite."""


CompositionExpr = Union[Device, Concat, Parallel]

DeviceEnvironment = Mapping[str, Automaton]

_Path = tuple[str, ...]
_Edges = dict[tuple[StateId, Symbol], frozenset[StateId]]


class _Renamed(dict):
    """``renamed[s]`` is ``s`` with ``prefix`` prepended to its namespace,
    built on first lookup, so each state is renamed once however many
    edges mention it (an invalid device's undeclared states included).
    ``prefix`` is set after construction: ``elaborate`` makes one memo per
    leaf, and a Python ``__init__`` would add a call to each."""

    __slots__ = ("prefix",)
    prefix: _Path

    def __missing__(self, s: StateId) -> StateId:
        renamed = self[s] = StateId((*self.prefix, *s.namespace), s.local)
        return renamed


def _place(
    automaton: Automaton, prefix: _Path, states: set[StateId], transitions: _Edges
) -> tuple[StateId, list[StateId]]:
    """The renaming rule: add a copy of ``automaton`` with every state
    under ``prefix`` to the shared maps; return the copy's initial state
    and finals.  A state the value mentions but does not declare is
    renamed too, and stays undeclared."""
    rename = _Renamed()
    rename.prefix = prefix
    renamed = rename.__getitem__  # ``map`` over it builds each set in C, no generator
    states.update(map(renamed, automaton.states))
    for (source, symbol), targets in automaton.transitions.items():
        transitions[(renamed(source), symbol)] = frozenset(map(renamed, targets))
    return renamed(automaton.initial), list(map(renamed, automaton.finals))


def _bridge(transitions: _Edges, finals: Iterable[StateId], initial: StateId) -> None:
    """The ``;`` rule: every state of ``finals`` gains an empty-string edge
    onto ``initial``, merged with any empty-string edges it already had."""
    bridge = frozenset({initial})
    for final in finals:
        key = (final, EPSILON)
        transitions[key] = transitions.get(key, frozenset()) | bridge


def _fork(
    states: set[StateId],
    transitions: _Edges,
    path: _Path,
    left: StateId,
    right: StateId,
) -> StateId:
    """The ``|`` rule: add a fresh state with empty-string edges onto
    ``left`` and ``right``, and return it.  It is ``r0`` under ``path``,
    suffixed with the smallest number that avoids a state of ``states``."""
    fork = StateId(path, "r0")
    bump = 1
    while fork in states:
        fork = StateId(path, f"r0{bump}")
        bump += 1
    states.add(fork)
    transitions[(fork, EPSILON)] = frozenset({left, right})
    return fork


def instantiate(automaton: Automaton, segment: str) -> Automaton:
    """Isomorphic copy with ``segment`` prepended to every state's namespace.

    Renaming never touches the language; applying it twice nests paths, so
    instantiating with "A" then "B" yields ``B.A.*`` states.
    """
    check_segment(segment, "namespace segment")
    states: set[StateId] = set()
    transitions: _Edges = {}
    initial, finals = _place(automaton, (segment,), states, transitions)
    return Automaton(automaton.alphabet, states, initial, transitions, finals)


def _joined(left: Automaton, right: Automaton) -> _Edges:
    """Both operands' edges in one map, once no state is declared on both
    sides.  Two such operands share a key only at a state that one of them
    does not declare; that key keeps the targets of both."""
    clash = left.states & right.states
    if clash:
        listed = ", ".join(str(s) for s in sorted(clash, key=_state_order)[:5])
        raise StateClashError(f"operand state sets overlap: {listed}")
    transitions = dict(left.transitions)
    for key, targets in right.transitions.items():
        transitions[key] = transitions.get(key, _NO_STATES) | targets
    return transitions


def concat(left: Automaton, right: Automaton) -> Automaton:
    """Sequential composite of two state-disjoint automata.

    The left operand keeps all of its transitions; each of its final states
    additionally gains an empty-string edge to the right operand's initial
    state (merged with any empty-string edges it already had).  The
    composite starts at the left initial state and accepts exactly at the
    right operand's finals, so a left operand with no finals yields an
    empty language.
    """
    transitions = _joined(left, right)
    _bridge(transitions, left.finals, right.initial)
    alphabet, states = left.alphabet | right.alphabet, left.states | right.states
    return Automaton(alphabet, states, left.initial, transitions, right.finals)


def parallel(left: Automaton, right: Automaton) -> Automaton:
    """Branching composite of two state-disjoint automata.

    A fresh initial state (named ``r0``, suffixed with the smallest number
    that avoids a clash) forks via empty-string edges into both operands
    and carries no letter moves of its own.  Finals are the union of the
    operands' finals.
    """
    transitions = _joined(left, right)
    states = {*left.states, *right.states}
    root = _fork(states, transitions, (), left.initial, right.initial)
    alphabet, finals = left.alphabet | right.alphabet, left.finals | right.finals
    return Automaton(alphabet, states, root, transitions, finals)


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
    the nodes are folded bottom-up, by the rules the operators use.  Each
    ``;`` node bridges the finals of its left subtree to the initial state
    of its right one, and each ``|`` node adds its fork state ``r0`` under
    its own path (both operands live under ``L``/``R``, so ``r0`` never
    needs a suffix).  A lone device comes back as the bound automaton
    itself.
    """

    def bound(name: str) -> Automaton:
        automaton = env.get(name)
        if automaton is None:
            raise UnboundDeviceError(f"no device named {name!r} is bound")
        try:
            _kernel(automaton)
        except InvalidAutomatonError as err:
            raise InvalidDeviceError(f"device {name!r} is invalid: {err.codes}") from None
        return automaton

    if isinstance(expr, Device):
        return bound(expr.name)

    positions = _positions(expr)
    alphabet: set[Symbol] = set()
    states: set[StateId] = set()
    transitions: _Edges = {}
    # Leaves go in left to right, which keeps the maps close to the
    # canonical order that renders sort them into: (initial state, final
    # states) of each renamed leaf.
    leaves: list[tuple[StateId, list[StateId]]] = []
    for node, path in positions:
        if isinstance(node, Device):
            automaton = bound(node.name)
            alphabet |= automaton.alphabet
            leaves.append(_place(automaton, path, states, transitions))
    # (initial state, final states) of each finished subtree.
    done: list[tuple[StateId, list[StateId]]] = []
    for node, path in reversed(positions):
        if isinstance(node, Device):
            done.append(leaves.pop())
            continue
        left_initial, left_finals = done.pop()
        right_initial, right_finals = done.pop()
        if isinstance(node, Concat):
            _bridge(transitions, left_finals, right_initial)
            done.append((left_initial, right_finals))
        else:
            fork = _fork(states, transitions, path, left_initial, right_initial)
            done.append((fork, left_finals + right_finals))
    initial, finals = done.pop()
    return Automaton(
        alphabet=frozenset(alphabet),
        states=frozenset(states),
        initial=initial,
        transitions=transitions,
        finals=frozenset(finals),
    )


def _positions(expr: CompositionExpr) -> list[tuple[CompositionExpr, _Path]]:
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
    pending: list[tuple[CompositionExpr, _Path]] = [(expr, ())]
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

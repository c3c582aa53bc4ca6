"""Deterministic analysis of automata.

Subset construction, language equivalence with counterexamples, and
bounded enumeration, all on the automaton's cached integer kernel; an
automaton that ``validate`` rejects raises ``InvalidAutomatonError`` when
its kernel is compiled.  A ``Dfa`` is a table to inspect, or to repackage
as an ordinary automaton with ``dfa_to_automaton``; words are run with
``accepts``, on the kernel, not on the table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from . import _EXPORTS
from .automaton import (
    Automaton,
    InvalidAutomatonError,
    StateId,
    Symbol,
    Word,
    _kernel,
    _on_union_alphabet,
    symbol_key,
)

__all__ = sorted([*_EXPORTS["analysis"], "InvalidAutomatonError"])

SubsetState = tuple[StateId, ...]


class EnumerationBoundError(ValueError):
    """Requested enumeration length exceeds the configured cap."""


@dataclass(frozen=True)
class Dfa:
    """Deterministic view of an automaton over canonical subset states.

    ``transition`` is total over ``states`` x ``alphabet``; the empty subset
    is the sink and appears among the states only when it is reachable.  A
    subset state is final iff it contains a final state of the source.
    """

    alphabet: frozenset[Symbol]
    states: frozenset[SubsetState]
    initial: SubsetState
    transition: Mapping[tuple[SubsetState, Symbol], SubsetState]
    finals: frozenset[SubsetState]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "transition", MappingProxyType(dict(self.transition)))


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of a language comparison.

    ``counterexample`` is present exactly when the languages differ, and is
    accepted by exactly one of the two compared automata.
    """

    equivalent: bool
    counterexample: Word | None


def determinize(automaton: Automaton) -> Dfa:
    """Subset construction.

    Starts from the closure of the initial state and keeps only reachable
    subset states; the empty sink shows up exactly when some move reaches
    it.  The result accepts the same language as the input.
    """
    kernel = _kernel(automaton)
    subsets = {kernel.start: kernel.subset(kernel.start)}
    table: dict[tuple[SubsetState, Symbol], SubsetState] = {}
    finals: set[SubsetState] = set()
    queue: deque[int] = deque([kernel.start])
    while queue:
        mask = queue.popleft()
        here = subsets[mask]
        if mask & kernel.finals:
            finals.add(here)
        for k, sym in enumerate(kernel.letters):
            successor = kernel.advance(mask, k)
            there = subsets.get(successor)
            if there is None:
                there = subsets[successor] = kernel.subset(successor)
                queue.append(successor)
            table[(here, sym)] = there
    return Dfa(
        automaton.alphabet,
        frozenset(subsets.values()),
        subsets[kernel.start],
        table,
        frozenset(finals),
    )


def equivalent(a: Automaton, b: Automaton) -> EquivalenceVerdict:
    """Decide whether two automata accept the same language.

    Both sides are padded to the union alphabet and their subset frontiers
    are explored in pairs, breadth first with letters in canonical order,
    stopping at the first pair on which exactly one side accepts.  This is
    the search for the least word of the symmetric-difference product, run
    on the fly: the languages are equal iff no such pair is reachable, and
    otherwise the word reaching it is the shortest counterexample,
    lexicographically least among the shortest.
    """
    left, right = map(_kernel, _on_union_alphabet(a, b))
    start = (left.start, right.start)
    parents: dict[tuple[int, int], tuple[tuple[int, int], int] | None]
    parents = {start: None}
    queue: deque[tuple[int, int]] = deque([start])
    while queue:
        pair = queue.popleft()
        ls, rs = pair
        if bool(ls & left.finals) != bool(rs & right.finals):
            letters: list[Symbol] = []
            while (back := parents[pair]) is not None:
                pair, k = back
                letters.append(left.letters[k])
            return EquivalenceVerdict(False, tuple(reversed(letters)))
        for k in range(len(left.letters)):
            successor = (left.advance(ls, k), right.advance(rs, k))
            if successor not in parents:
                parents[successor] = (pair, k)
                queue.append(successor)
    return EquivalenceVerdict(True, None)


def enumerate_language(
    automaton: Automaton, max_len: int, cap: int = 10
) -> list[Word]:
    """All accepted words of length <= ``max_len``, shortest then lexicographic.

    Breadth first on the automaton's kernel: each level holds the words of
    one length whose frontier is still alive, with their frontier masks, in
    lexicographic order.  Extending each word by the letters in canonical
    order keeps the next level in that order, so the result needs no sort.
    Each (frontier, letter) move is computed once per call; a dead frontier
    is dropped with every word below it.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if max_len > cap:
        raise EnumerationBoundError(
            f"max_len {max_len} exceeds the configured cap {cap}"
        )
    kernel = _kernel(automaton)
    letters = list(enumerate(kernel.letters))
    finals = kernel.finals
    memo: list[dict[int, int]] = [{} for _ in letters]
    accepted: list[Word] = []
    level: list[tuple[Word, int]] = [((), kernel.start)]
    for length in range(max_len + 1):
        accepted.extend(w for w, mask in level if mask & finals)
        if length == max_len:
            break
        following: list[tuple[Word, int]] = []
        for w, mask in level:
            for k, sym in letters:
                known = memo[k]
                successor = known.get(mask)
                if successor is None:
                    successor = known[mask] = kernel.advance(mask, k)
                if successor:
                    following.append((w + (sym,), successor))
        level = following
    return accepted


def dfa_to_automaton(dfa: Dfa) -> Automaton:
    """Repackage a Dfa as an ordinary automaton with compact state names.

    Subset states are renamed ``d0, d1, ...`` in breadth-first order from
    the initial state (letters in canonical order), so the output is stable
    and parses back from its canonical rendering.
    """
    letters = sorted(dfa.alphabet, key=symbol_key)
    names: dict[SubsetState, StateId] = {dfa.initial: StateId((), "d0")}
    order: deque[SubsetState] = deque([dfa.initial])
    while order:
        current = order.popleft()
        for sym in letters:
            successor = dfa.transition[(current, sym)]
            if successor not in names:
                names[successor] = StateId((), f"d{len(names)}")
                order.append(successor)
    for leftover in sorted(dfa.states - names.keys()):
        names[leftover] = StateId((), f"d{len(names)}")
    transitions = {
        (names[source], sym): frozenset({names[target]})
        for (source, sym), target in dfa.transition.items()
    }
    return Automaton(
        alphabet=dfa.alphabet,
        states=frozenset(names.values()),
        initial=names[dfa.initial],
        transitions=transitions,
        finals=frozenset(names[s] for s in dfa.finals if s in names),
    )

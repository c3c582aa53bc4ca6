"""Deterministic analysis of automata.

Subset construction, language equivalence with counterexamples, and
bounded enumeration, all on the automaton's cached integer kernel; an
automaton that ``validate`` rejects raises ``InvalidAutomatonError`` when
its kernel is compiled.  The two subset searches, ``determinize`` and
``equivalent``, step a subset through chunk tables that each call builds
from the kernel's successor rows, after Navarro and Raffinot's compact
DFA representation: per letter, one table for each 8-bit chunk of the
state mask maps the chunk's value to the union of its states' closed
successors, so a step costs one lookup and one ``|`` per chunk however
many states are set.  ``determinize`` builds each subset's tuple of
states the same way, from tables of sorted tuples joined with ``+``.
Above 24 states a step visits the set bits one by one, since the tables
would cost 256 entries per chunk and letter however few subsets the
search visits.  ``enumerate_language`` steps bit by bit too, with a memo:
the property suite runs it on hundreds of automata of at most 9 states,
where building tables costs more than the few steps save.  A ``Dfa`` is
an indexed table: its subsets in the order the subset construction found
them, and one row of successor indices per subset.  It is there to
inspect, or to repackage as an ordinary automaton with
``dfa_to_automaton``, which names row ``i`` as ``d{i}``; words are run
with ``accepts``, on the kernel, not on the table.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import repeat
from operator import add, or_
from typing import Callable, Iterable, Sequence, TypeVar

from . import _EXPORTS
from .automaton import (
    EPSILON,
    Automaton,
    InvalidAutomatonError,
    StateId,
    Symbol,
    Word,
    _bits,
    _Frozen,
    _gather,
    _kernel,
    _on_union_alphabet,
    symbol_key,
)

__all__ = sorted([*_EXPORTS["analysis"], "InvalidAutomatonError"])

SubsetState = tuple[StateId, ...]


class EnumerationBoundError(ValueError):
    """Requested enumeration length exceeds the configured cap."""


class Dfa(_Frozen):
    """Deterministic view of an automaton as an indexed table.

    ``states[0]`` is the initial subset.  Row ``i`` of ``transition`` holds
    state ``i``'s successor index on each letter of ``alphabet``, in
    ``symbol_key`` order, so the table is total; ``finals`` holds the
    indices of the final states.  ``determinize`` lists only reachable
    subsets, in breadth-first discovery order with letters in canonical
    order, and makes a subset final iff it contains a final state of the
    source.  The empty subset is the sink and appears among the states
    only when it is reachable.

    A table that does not fit its states and alphabet raises ``ValueError``
    naming the first problem found: the empty-string symbol in the
    alphabet, no states, a row count or row width that is off, or a target
    or final outside ``range(len(states))``.
    """

    __match_args__ = ("alphabet", "states", "transition", "finals")

    alphabet: frozenset[Symbol]
    states: tuple[SubsetState, ...]
    transition: tuple[tuple[int, ...], ...]
    finals: frozenset[int]

    def __init__(
        self,
        alphabet: Iterable[Symbol],
        states: Iterable[SubsetState],
        transition: Iterable[Iterable[int]],
        finals: Iterable[int],
    ) -> None:
        object.__setattr__(self, "alphabet", frozenset(alphabet))
        object.__setattr__(self, "states", tuple(states))
        object.__setattr__(self, "transition", tuple(map(tuple, transition)))
        object.__setattr__(self, "finals", frozenset(finals))
        rows, count, width = self.transition, len(self.states), len(self.alphabet)
        if EPSILON in self.alphabet:
            raise ValueError("the alphabet holds the empty-string symbol")
        if not count:
            raise ValueError("a Dfa needs at least one state")
        if len(rows) != count:
            raise ValueError(f"{len(rows)} transition rows for {count} states")
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} targets for {width} letters")
        for kind, indices in (("target", set().union(*rows)), ("final", self.finals)):
            outside = sorted(indices.difference(range(count)))
            if outside:
                raise ValueError(f"{kind} {outside[0]} is outside range({count})")


class EquivalenceVerdict(_Frozen):
    """Outcome of a language comparison.

    ``counterexample`` is present exactly when the languages differ, and is
    accepted by exactly one of the two compared automata.
    """

    __match_args__ = ("equivalent", "counterexample")

    equivalent: bool
    counterexample: Word | None


_T = TypeVar("_T")


def _lookup(
    units: Sequence[_T], empty: _T, join: Callable[[_T, _T], _T]
) -> Callable[[int], _T]:
    """The join of ``units[i]`` over the set bits ``i`` of a mask, in
    ascending order, through one table per 8-bit chunk of the mask.

    Entry ``v`` of a chunk's table joins the units of the set bits of
    ``v``.  Each table doubles once per bit of its chunk, one ``join`` per
    new entry, so a chunk of ``w`` bits costs ``2**w`` entries.  A lookup
    then costs one index and one ``join`` per chunk, however many bits are
    set.  One and two chunks, up to 16 units, have their own forms, which
    step faster than the loop that more chunks take.
    """
    tables = []
    for base in range(0, len(units), 8):
        table = [empty]
        for unit in units[base : base + 8]:
            table += [join(x, unit) for x in table]
        tables.append(table)
    if len(tables) == 1:
        return tables[0].__getitem__
    if len(tables) == 2:
        low, high = tables
        return lambda mask: join(low[mask & 255], high[mask >> 8])

    def chunked(mask: int) -> _T:
        out = empty
        for table in tables:
            out = join(out, table[mask & 255])
            mask >>= 8
        return out

    return chunked


# The most states a kernel may have for its searches to use chunk tables.
# Tables cost 256 entries per chunk and letter, each as wide as the state
# mask, however few subsets the search then visits: on the 4096-state DFA
# of T_12, whose subsets each hold one state, they made ``determinize``
# about 30 times slower and its memory peak 35 times higher.  Larger
# kernels step bit by bit.
_TABLE_STATES = 24


def _steps(successors: list[list[int]]) -> list[Callable[[int], int]]:
    """The closed successor of a closed mask on each letter, from a
    kernel's ``successors`` rows: through chunk tables built on each call,
    or bit by bit above ``_TABLE_STATES`` states."""
    return [
        _lookup(row, 0, or_) if len(row) <= _TABLE_STATES else partial(_gather, row)
        for row in successors
    ]


def _subsets(states: tuple[StateId, ...]) -> Callable[[int], SubsetState]:
    """A mask of a kernel's ``states`` as the sorted tuple of its states:
    through chunk tables of tuples joined with ``+``, or bit by bit above
    ``_TABLE_STATES`` states."""
    if len(states) <= _TABLE_STATES:
        return _lookup([(s,) for s in states], (), add)
    return lambda mask: tuple(states[i] for i in _bits(mask))


def determinize(automaton: Automaton) -> Dfa:
    """Subset construction.

    Starts from the closure of the initial state and keeps only reachable
    subset states, each numbered in the order it is found; the empty sink
    shows up exactly when some move reaches it.  The result accepts the
    same language as the input.
    """
    kernel = _kernel(automaton)
    steps = _steps(kernel.successors)
    masks = [kernel.start]
    index = {kernel.start: 0}
    rows: list[list[int]] = []
    for mask in masks:  # grows as subsets are found: a breadth-first queue
        row = []
        for step in steps:
            successor = step(mask)
            target = index.get(successor)
            if target is None:
                target = index[successor] = len(masks)
                masks.append(successor)
            row.append(target)
        rows.append(row)
    return Dfa(
        automaton.alphabet,
        tuple(map(_subsets(kernel.states), masks)),
        rows,
        frozenset(i for i, mask in enumerate(masks) if mask & kernel.finals),
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
    moves = list(enumerate(zip(_steps(left.successors), _steps(right.successors))))
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
        for k, (step_left, step_right) in moves:
            successor = (step_left(ls), step_right(rs))
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
                    successor = known[mask] = _gather(kernel.successors[k], mask)
                if successor:
                    following.append((w + (sym,), successor))
        level = following
    return accepted


def dfa_to_automaton(dfa: Dfa) -> Automaton:
    """Repackage a Dfa as an ordinary automaton with compact state names.

    Row ``i`` is named ``d{i}``.  For a ``determinize`` result that is
    breadth-first order from the initial state, letters in canonical
    order, so the output is stable and parses back from its canonical
    rendering.
    """
    letters = sorted(dfa.alphabet, key=symbol_key)
    names = [StateId((), f"d{i}") for i in range(len(dfa.states))]
    singletons = [frozenset({name}) for name in names]
    # One column of the table per letter: its keys pair every row's name
    # with the letter, its values are the rows' targets.
    transitions: dict[tuple[StateId, Symbol], frozenset[StateId]] = {}
    for sym, column in zip(letters, zip(*dfa.transition)):
        transitions.update(
            zip(zip(names, repeat(sym)), map(singletons.__getitem__, column))
        )
    return Automaton(
        alphabet=dfa.alphabet,
        states=frozenset(names),
        initial=names[0],
        transitions=transitions,
        finals=frozenset(names[i] for i in dfa.finals),
    )

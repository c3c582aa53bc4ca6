"""Deterministic analysis of automata.

Subset construction, synchronous products, language equivalence with
counterexamples, and bounded enumeration.  Subset construction,
equivalence and enumeration run on the automaton's cached integer kernel;
``product`` and ``is_empty`` work on ``Dfa`` tables.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .automaton import (
    EPSILON,
    Automaton,
    StateId,
    Symbol,
    UnknownStateError,
    UnknownSymbolError,
    Word,
    _kernel,
    pad_alphabet,
    symbol_key,
    validate,
)

__all__ = [
    "AlphabetMismatchError",
    "Dfa",
    "EnumerationBoundError",
    "EquivalenceVerdict",
    "InvalidAutomatonError",
    "SubsetState",
    "determinize",
    "dfa_accepts",
    "dfa_to_automaton",
    "enumerate_language",
    "equivalent",
    "is_empty",
    "product",
]

SubsetState = tuple[StateId, ...]


class AlphabetMismatchError(ValueError):
    """Product operands must share one alphabet; pad to the union first."""


class InvalidAutomatonError(ValueError):
    """The operation requires an automaton that passes validation."""


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


def _require_valid(automaton: Automaton) -> None:
    problems = validate(automaton)
    if problems:
        codes = "; ".join(v.code for v in problems)
        raise InvalidAutomatonError(f"invalid automaton: {codes}")


def determinize(automaton: Automaton) -> Dfa:
    """Subset construction.

    Starts from the closure of the initial state and keeps only reachable
    subset states; the empty sink shows up exactly when some move reaches
    it.  The result accepts the same language as the input.
    """
    _require_valid(automaton)
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


def dfa_accepts(dfa: Dfa, input_word: Iterable[Symbol]) -> bool:
    """Walk the total transition table; no search involved."""
    current = dfa.initial
    for symbol in input_word:
        key = (current, symbol)
        if key not in dfa.transition:
            raise UnknownSymbolError(
                f"symbol {symbol} is not a letter of the alphabet"
            )
        current = dfa.transition[key]
    return current in dfa.finals


def product(
    left: Dfa, right: Dfa, combine: Callable[[bool, bool], bool]
) -> Dfa:
    """Synchronous product of two DFAs over the same alphabet.

    A pair state is final iff ``combine(left-final?, right-final?)``.  Pair
    states are encoded by tagging each side's members with an L/R namespace
    and taking the union, which keeps the result an ordinary Dfa.
    """
    if left.alphabet != right.alphabet:
        raise AlphabetMismatchError(
            "product requires identical alphabets; pad to the union first"
        )
    letters = sorted(left.alphabet, key=symbol_key)

    def encode(ls: SubsetState, rs: SubsetState) -> SubsetState:
        tagged = [StateId(("L", *s.namespace), s.local) for s in ls]
        tagged += [StateId(("R", *s.namespace), s.local) for s in rs]
        return tuple(sorted(tagged))

    start = (left.initial, right.initial)
    table: dict[tuple[SubsetState, Symbol], SubsetState] = {}
    states: set[SubsetState] = set()
    finals: set[SubsetState] = set()
    seen: set[tuple[SubsetState, SubsetState]] = {start}
    queue: deque[tuple[SubsetState, SubsetState]] = deque([start])
    while queue:
        ls, rs = queue.popleft()
        here = encode(ls, rs)
        states.add(here)
        if combine(ls in left.finals, rs in right.finals):
            finals.add(here)
        for sym in letters:
            successor = (left.transition[(ls, sym)], right.transition[(rs, sym)])
            table[(here, sym)] = encode(*successor)
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return Dfa(
        left.alphabet, frozenset(states), encode(*start), table, frozenset(finals)
    )


def is_empty(dfa: Dfa) -> Word | None:
    """None when the language is empty, else its least word.

    Breadth-first over the table with letters in canonical order, so the
    returned word is the shortest accepted one, lexicographically least
    among the shortest.
    """
    letters = sorted(dfa.alphabet, key=symbol_key)
    reached: dict[SubsetState, Word] = {dfa.initial: ()}
    queue: deque[SubsetState] = deque([dfa.initial])
    while queue:
        current = queue.popleft()
        if current in dfa.finals:
            return reached[current]
        for sym in letters:
            successor = dfa.transition[(current, sym)]
            if successor not in reached:
                reached[successor] = reached[current] + (sym,)
                queue.append(successor)
    return None


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
    _require_valid(a)
    _require_valid(b)
    union = a.alphabet | b.alphabet
    left = _kernel(pad_alphabet(a, union))
    right = _kernel(pad_alphabet(b, union))
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

    An invalid automaton raises what simulating every word in prefix order
    with ``step`` would raise first: ``UnknownStateError`` for an undeclared
    initial state or for a move out of or into an undeclared state, and
    ``UnknownSymbolError`` for the empty-string symbol stored as a letter.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if max_len > cap:
        raise EnumerationBoundError(
            f"max_len {max_len} exceeds the configured cap {cap}"
        )
    kernel = _kernel(automaton)
    kernel.check_initial()
    if max_len and EPSILON in automaton.alphabet:
        raise UnknownSymbolError(f"symbol {EPSILON} is not a letter of the alphabet")
    letters = list(enumerate(kernel.letters))
    finals = kernel.finals
    # Successor per frontier, per letter; -1 marks a move that raises.
    memo: list[dict[int, int]] = [{} for _ in letters]
    # The least word, in prefix order, whose last move raises, and that move.
    failure: tuple[tuple[str, ...], int, int] | None = None
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
                    try:
                        if kernel.undeclared:
                            kernel.check_declared(mask, k)
                        successor = kernel.advance(mask, k)
                    except UnknownStateError:
                        successor = -1
                    known[mask] = successor
                if successor > 0:
                    following.append((w + (sym,), successor))
                elif successor < 0:
                    spelled = tuple(s.token for s in w) + (sym.token,)
                    if failure is None or spelled < failure[0]:
                        failure = (spelled, mask, k)
        level = following
    if failure is not None:
        kernel.check_declared(failure[1], failure[2])
    return accepted


def dfa_to_automaton(dfa: Dfa, prefix: str = "d") -> Automaton:
    """Repackage a Dfa as an ordinary automaton with compact state names.

    Subset states are renamed ``d0, d1, ...`` in breadth-first order from
    the initial state (letters in canonical order), so the output is stable
    and parses back from its canonical rendering.
    """
    letters = sorted(dfa.alphabet, key=symbol_key)
    names: dict[SubsetState, StateId] = {dfa.initial: StateId((), f"{prefix}0")}
    order: deque[SubsetState] = deque([dfa.initial])
    while order:
        current = order.popleft()
        for sym in letters:
            successor = dfa.transition[(current, sym)]
            if successor not in names:
                names[successor] = StateId((), f"{prefix}{len(names)}")
                order.append(successor)
    for leftover in sorted(dfa.states - names.keys()):
        names[leftover] = StateId((), f"{prefix}{len(names)}")
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

"""Seeded random devices and the composition-law suite.

Randomness comes from ``random.Random`` (Python's documented Mersenne
Twister), drawn in a fixed order so a seed pins every generated value:
state count first, then one final flag per state, then one flag per
possible edge (source ascending, then letter a, b, empty-string, then
target ascending).  Devices use the two-letter alphabet {a, b} and at most
four states, which keeps exhaustive word checks cheap.  The suite builds
each composite with ``elaborate``, as the CLI does, so the laws are checked
on the code that ``accept``, ``trace`` and ``compose`` run.
"""

from __future__ import annotations

import random
from itertools import product

from .algebra import Concat, Device, Parallel, elaborate
from .analysis import enumerate_language
from .automaton import EPSILON, Automaton, StateId, Symbol, Word, _Frozen, letter

__all__ = [
    "DEFAULT_LETTERS",
    "LawFailure",
    "MAX_LEN",
    "SuiteResult",
    "all_words",
    "random_automaton",
    "run_closure_suite",
]

DEFAULT_LETTERS = (letter("a"), letter("b"))

# Longest words the suite checks: each case enumerates 2^(max_len + 1) words.
MAX_LEN = 10

# Each law and its composite, over the operands bound as "left" and "right".
_LAWS = (
    ("concat", Concat(Device("left"), Device("right"))),
    ("parallel", Parallel(Device("left"), Device("right"))),
)


def random_automaton(rng: random.Random, max_states: int = 4) -> Automaton:
    """One random device over {a, b}.

    State count is uniform on 1..max_states; each state is final with
    probability 0.3; each possible edge, empty-string edges included, is
    present independently with probability 0.3.  The first state is
    initial.
    """
    count = rng.randint(1, max_states)
    states = [StateId((), f"s{i}") for i in range(count)]
    finals = frozenset(s for s in states if rng.random() < 0.3)
    transitions: dict[tuple[StateId, Symbol], set[StateId]] = {}
    for source in states:
        for symbol in (*DEFAULT_LETTERS, EPSILON):
            for target in states:
                if rng.random() < 0.3:
                    transitions.setdefault((source, symbol), set()).add(target)
    return Automaton(
        alphabet=frozenset(DEFAULT_LETTERS),
        states=frozenset(states),
        initial=states[0],
        transitions=transitions,
        finals=finals,
    )


def all_words(max_len: int = 6) -> list[Word]:
    """Every word over {a, b} of length <= max_len, shortest first then
    lexicographic."""
    return [
        w for n in range(max_len + 1) for w in product(DEFAULT_LETTERS, repeat=n)
    ]


class LawFailure(_Frozen):
    """One disagreement between a composite and its operand-level oracle."""

    __match_args__ = (
        "case", "law", "word", "composite_verdict", "oracle_verdict", "left", "right"
    )

    case: int
    law: str  # "concat" or "parallel"
    word: Word
    composite_verdict: bool
    oracle_verdict: bool
    left: Automaton
    right: Automaton


class SuiteResult(_Frozen):
    """The outcome of one run of the suite: its settings and every failure."""

    __match_args__ = ("seed", "cases", "max_len", "failures")

    seed: int
    cases: int
    max_len: int
    failures: tuple[LawFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def run_closure_suite(seed: int, cases: int, max_len: int = 6) -> SuiteResult:
    """Check the two composition laws on seeded random operand pairs.

    For every word w up to ``max_len`` (0 to ``MAX_LEN``) over {a, b}:

    * the sequential composite accepts w iff some index splits w into a
      prefix the left operand accepts and a suffix the right one accepts;
    * the branching composite accepts w iff the left or the right operand
      accepts w.

    Each composite is built by ``elaborate`` from the expressions
    ``left ; right`` and ``left | right``.  Both oracles consult only the
    operands' enumerated languages; each composite is judged by enumerating
    its own language.  Enumeration runs on each automaton's integer kernel,
    and the tests check it against a set-based brute force.  Cases are run
    in index order, so output is reproducible for a fixed seed.
    """
    if cases < 0:
        raise ValueError(f"cases must be >= 0, got {cases}")
    if not 0 <= max_len <= MAX_LEN:
        raise ValueError(f"max_len must be in 0..{MAX_LEN}, got {max_len}")
    rng = random.Random(seed)
    words = all_words(max_len)
    failures: list[LawFailure] = []
    for case in range(cases):
        left = random_automaton(rng)
        right = random_automaton(rng)
        env = {"left": left, "right": right}
        left_language = set(enumerate_language(left, max_len, MAX_LEN))
        right_language = set(enumerate_language(right, max_len, MAX_LEN))
        # Each law's oracle: the words its composite must accept.  A word is
        # in the ";" oracle when some cut of it works; the first one settles it.
        cut: set[Word] = set()
        for w in words:
            for i in range(len(w) + 1):
                if w[:i] in left_language and w[i:] in right_language:
                    cut.add(w)
                    break
        oracles = {"concat": cut, "parallel": left_language | right_language}
        checks = [
            (law, set(enumerate_language(elaborate(expr, env), max_len, MAX_LEN)))
            for law, expr in _LAWS
        ]
        # Every language here holds only words of ``words``, so equal sets
        # leave no word to report.
        if all(language == oracles[law] for law, language in checks):
            continue
        for w in words:
            for law, language in checks:
                verdict = w in language
                if verdict != (w in oracles[law]):
                    failures.append(
                        LawFailure(case, law, w, verdict, not verdict, left, right)
                    )
    return SuiteResult(seed, cases, max_len, tuple(failures))

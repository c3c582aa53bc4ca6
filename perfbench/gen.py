"""Seeded inputs: words, expression strings and device files.

Everything the program under test receives is made here from the run's
seed, so the same seed gives byte-identical inputs.  Nothing in this module
imports the package: the expression trees below are plain tuples that the
oracle evaluates on its own, and their text is what the program parses.

Tree nodes are ``("leaf", name)``, ``(";", left, right)`` and
``("|", left, right)``.
"""

from __future__ import annotations

import random
from pathlib import Path

# The two bundled devices, written out by this module rather than copied
# from the package: N1 accepts words whose third letter from the right is
# b, N2 accepts a+b*.
LEAF_STATES = {"N1": 4, "N2": 2}

_N1 = {
    "states": ["p0", "p1", "p2", "p3"],
    "initial": "p0",
    "finals": ["p3"],
    "trans": [
        ("p0", "a", "p0"), ("p0", "b", "p0"), ("p0", "b", "p1"),
        ("p1", "a", "p2"), ("p1", "b", "p2"),
        ("p2", "a", "p3"), ("p2", "b", "p3"),
    ],
}
_N2 = {
    "states": ["q0", "q1"],
    "initial": "q0",
    "finals": ["q1"],
    "trans": [("q0", "a", "q0"), ("q0", "a", "q1"), ("q1", "b", "q1")],
}


def device_text(rng: random.Random, name: str, spec: dict) -> str:
    """An .nfa file for ``spec``; the order of its trans lines is seeded."""
    trans = list(spec["trans"])
    rng.shuffle(trans)
    lines = [
        f"name {name}",
        "alphabet a b",
        "states " + " ".join(spec["states"]),
        f"initial {spec['initial']}",
        "final " + " ".join(spec["finals"]),
    ]
    lines += [f"trans {s} {letter} {t}" for s, letter, t in trans]
    return "\n".join(lines) + "\n"


def nth_from_right(n: int, prefix: str, names: list[int] | None = None) -> dict:
    """T_n: the n-th letter from the right is b (N1 is T_3).

    ``names`` renames state i to ``prefix + str(names[i])``; two different
    namings give two files with one language.
    """
    names = names if names is not None else list(range(n + 1))
    st = [f"{prefix}{names[i]}" for i in range(n + 1)]
    trans = [(st[0], "a", st[0]), (st[0], "b", st[0]), (st[0], "b", st[1])]
    for i in range(1, n):
        trans += [(st[i], "a", st[i + 1]), (st[i], "b", st[i + 1])]
    return {"states": st, "initial": st[0], "finals": [st[n]], "trans": trans}


def write_leaf_devices(rng: random.Random, workdir: Path) -> list[Path]:
    paths = []
    for name, spec in (("N1", _N1), ("N2", _N2)):
        path = workdir / f"{name}.nfa"
        path.write_text(device_text(rng, name, spec), "utf-8")
        paths.append(path)
    return paths


def write_family(rng: random.Random, workdir: Path, ns: list[int]) -> dict:
    """T_n files for every n in ``ns`` and n+1, plus S_n, a renamed T_n."""
    paths = {}
    for n in sorted(set(ns) | {n + 1 for n in ns}):
        path = workdir / f"T{n}.nfa"
        path.write_text(device_text(rng, f"T{n}", nth_from_right(n, "t")), "utf-8")
        paths[f"T{n}"] = path
    for n in ns:
        names = list(range(n + 1))
        rng.shuffle(names)
        path = workdir / f"S{n}.nfa"
        path.write_text(device_text(rng, f"S{n}", nth_from_right(n, "s", names)), "utf-8")
        paths[f"S{n}"] = path
    return paths


def random_word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("ab") for _ in range(length))


def n1_word(rng: random.Random) -> str:
    """A short word of N1: up to two letters, then b and two letters."""
    return random_word(rng, rng.randint(0, 2)) + "b" + random_word(rng, 2)


def n2_word(rng: random.Random) -> str:
    return "a" * rng.randint(1, 3) + "b" * rng.randint(0, 2)


def leaf_word(rng: random.Random, name: str) -> str:
    return n1_word(rng) if name == "N1" else n2_word(rng)


def member(rng: random.Random, node: tuple) -> str:
    """A word the tree accepts, built leaf by leaf."""
    if node[0] == "leaf":
        return leaf_word(rng, node[1])
    if node[0] == ";":
        return member(rng, node[1]) + member(rng, node[2])
    return member(rng, node[1 + rng.randrange(2)])


# Suffixes that fix a long word's verdict whatever its random prefix.  The
# oracle confirms each verdict when the inputs are made.
#   cat (N1 ; N2): "babaab" ends with u v, u = ..bab in N1 and v = aab.
#   A leading b and the ending "aabab" defeat N1 ; N2 (the only split with
#   a suffix in a+b* has an a three letters before it), N2 ; N1 and N2.
#   "bab" makes N1 hold; "aab" makes it fail.
LONG_PLANTS = {
    ("cat", True): ("", "babaab"),
    ("cat", False): ("b", "aabab"),
    ("par", True): ("", "bab"),
    ("par", False): ("b", "aab"),
    ("mix", True): ("", "babaab"),
    ("mix", False): ("b", "aabab"),
}


def long_word(rng: random.Random, expr: str, accepted: bool, length: int) -> str:
    head, tail = LONG_PLANTS[(expr, accepted)]
    return head + random_word(rng, length - len(head) - len(tail)) + tail


def leaf(name: str) -> tuple:
    return ("leaf", name)


def left_chain(names: list[str]) -> tuple:
    node = leaf(names[0])
    for name in names[1:]:
        node = (";", node, leaf(name))
    return node


def right_chain(names: list[str]) -> tuple:
    node = leaf(names[-1])
    for name in reversed(names[:-1]):
        node = (";", leaf(name), node)
    return node


def balanced(names: list[str]) -> tuple:
    if len(names) == 1:
        return leaf(names[0])
    half = len(names) // 2
    return ("|", balanced(names[:half]), balanced(names[half:]))


SHAPES = {"left": left_chain, "right": right_chain, "balanced": balanced}


def leaf_names(k: int) -> list[str]:
    """k leaves alternating N1 and N2.

    The order is fixed: elaborating a chain renames a leaf once per level
    above it, so its cost depends on where the bigger N1 leaves sit, and a
    seeded order would make the work differ by seed.
    """
    return [("N1", "N2")[i % 2] for i in range(k)]


def text(node: tuple) -> str:
    """Expression text; every composite operand is parenthesised."""
    if node[0] == "leaf":
        return node[1]

    def operand(child: tuple) -> str:
        return text(child) if child[0] == "leaf" else f"({text(child)})"

    return f"{operand(node[1])} {node[0]} {operand(node[2])}"


def nested_parens(depth: int, name: str = "N1") -> str:
    return "(" * depth + name + ")" * depth

"""Answers computed apart from the package, and properties its outputs must have.

Verdicts come from the two string predicates (N1: the third letter from the
right is b; N2: a+b*) combined over the generator's own expression trees by
a scan over word positions.  No function here calls into ``nfalgebra``;
callers hand in the program's outputs as plain strings, dicts and sets.
Each ``check_*`` returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import itertools
import re

_N2 = re.compile(r"a+b*")


def n1(w: str) -> bool:
    return len(w) >= 3 and w[-3] == "b"


def n2(w: str) -> bool:
    return _N2.fullmatch(w) is not None


def nth_from_right(n: int, w: str) -> bool:
    return len(w) >= n and w[-n] == "b"


LEAF_PREDICATES = {"N1": n1, "N2": n2}


def _n1_ends(w: str, starts: set[int]) -> set[int]:
    # From any start s, N1 reads w[s:e] for every e >= s + 3 with w[e-3] = b.
    if not starts:
        return set()
    return {e for e in range(min(starts) + 3, len(w) + 1) if w[e - 3] == "b"}


def _n2_ends(w: str, starts: set[int]) -> set[int]:
    # One sweep of the two phases of a+b*: "in the a's" and "in the b's".
    out: set[int] = set()
    in_a = in_b = False
    for p, c in enumerate(w):
        if c == "a":
            in_a, in_b = in_a or p in starts, False
        else:
            in_a, in_b = False, in_a or in_b
        if in_a or in_b:
            out.add(p + 1)
    return out


def _ends(node: tuple, w: str, starts: set[int]) -> set[int]:
    """Positions where a run of ``node`` that starts in ``starts`` can end."""
    kind = node[0]
    if kind == "leaf":
        return (_n1_ends if node[1] == "N1" else _n2_ends)(w, starts)
    if kind == ";":
        return _ends(node[2], w, _ends(node[1], w, starts))
    return _ends(node[1], w, starts) | _ends(node[2], w, starts)


def accepts(node: tuple, w: str) -> bool:
    return len(w) in _ends(node, w, {0})


def splits(w: str) -> set[int]:
    """Cuts of ``w`` into an N1 prefix and an N2 suffix."""
    return {i for i in range(3, len(w) + 1) if w[i - 3] == "b" and n2(w[i:])}


def least_difference(first: tuple, second: tuple, max_len: int) -> str | None:
    """Shortest, then alphabetically least, word on which the trees differ."""
    for length in range(max_len + 1):
        for letters in itertools.product("ab", repeat=length):
            w = "".join(letters)
            if accepts(first, w) != accepts(second, w):
                return w
    return None


def leaves(node: tuple, path: str = "") -> list[tuple[str, str]]:
    """(position path, device name) of every leaf, left to right."""
    if node[0] == "leaf":
        return [(path, node[1])]
    left = f"{path}.L" if path else "L"
    right = f"{path}.R" if path else "R"
    return leaves(node[1], left) + leaves(node[2], right)


def node_paths(node: tuple, path: str = "") -> set[str]:
    if node[0] == "leaf":
        return {path}
    left = f"{path}.L" if path else "L"
    right = f"{path}.R" if path else "R"
    return {path} | node_paths(node[1], left) | node_paths(node[2], right)


def composite_size(node: tuple, leaf_states: dict[str, int]) -> int:
    """States of the composite: every leaf's, plus one root per ``|``."""
    if node[0] == "leaf":
        return leaf_states[node[1]]
    extra = 1 if node[0] == "|" else 0
    return composite_size(node[1], leaf_states) + composite_size(node[2], leaf_states) + extra


def read_nfa(text: str) -> dict:
    """A minimal reader for the canonical automaton text format."""
    out: dict = {"states": [], "alphabet": [], "finals": [], "trans": []}
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head, rest = tokens[0], tokens[1:]
        if head == "name":
            out["name"] = rest[0]
        elif head == "alphabet":
            out["alphabet"] = rest
        elif head == "states":
            out["states"] = rest
        elif head == "initial":
            out["initial"] = rest[0]
        elif head == "final":
            out["finals"] = rest
        elif head == "trans":
            out["trans"].append(tuple(rest))
    return out


def nfa_accepts(nfa: dict, w: str) -> bool:
    """Simulate an automaton read by ``read_nfa``, eps moves included."""
    moves: dict[tuple[str, str], list[str]] = {}
    for source, letter, target in nfa["trans"]:
        moves.setdefault((source, letter), []).append(target)

    def close(states: set[str]) -> set[str]:
        stack = list(states)
        while stack:
            for target in moves.get((stack.pop(), "eps"), ()):
                if target not in states:
                    states.add(target)
                    stack.append(target)
        return states

    current = close({nfa["initial"]})
    for c in w:
        current = close({t for s in current for t in moves.get((s, c), ())})
    return not current.isdisjoint(nfa["finals"])


def check_composite_file(nfa: dict, tree: tuple, leaf_states: dict, words: list[str]) -> list[str]:
    """A composed file: the composite's state count and the tree's verdicts."""
    problems = []
    want = composite_size(tree, leaf_states)
    if len(nfa["states"]) != want:
        problems.append(f"composite has {len(nfa['states'])} states, want {want}")
    for w in words:
        if nfa_accepts(nfa, w) != accepts(tree, w):
            problems.append(f"composite file gives the wrong verdict on {w[:20]!r}")
    return problems


_DOT_NODE = re.compile(r'\s*"[^"]*"( \[shape=doublecircle\])?;')


def check_dot(dot: str, tree: tuple, leaf_states: dict) -> list[str]:
    """A grouped DOT graph: one node line per composite state, one cluster
    per top-level operand."""
    lines = dot.splitlines()
    if not lines or lines[0] != "digraph automaton {" or lines[-1] != "}":
        return ["DOT output is not one digraph"]
    problems = []
    nodes = sum(1 for line in lines if _DOT_NODE.fullmatch(line))
    want = composite_size(tree, leaf_states)
    if nodes != want:
        problems.append(f"DOT graph has {nodes} nodes, want {want}")
    if tree[0] != "leaf":
        for side in ("L", "R"):
            if f'  subgraph "cluster_{side}" {{' not in lines:
                problems.append(f"DOT graph has no cluster for {side}")
    return problems


def check_dfa(nfa: dict, label: str, want_states: int | None, accepts_word, words: list[str]) -> list[str]:
    """A DFA: ``want_states`` states when given, one move per state and
    letter, and the verdict of ``accepts_word`` on every word."""
    problems = []
    if want_states is not None and len(nfa["states"]) != want_states:
        problems.append(f"DFA of {label} has {len(nfa['states'])} states, want {want_states}")
    delta: dict[tuple[str, str], str] = {}
    for source, letter, target in nfa["trans"]:
        if letter == "eps" or (source, letter) in delta:
            return problems + [f"DFA of {label} is not deterministic at {source} {letter}"]
        delta[(source, letter)] = target
    if len(delta) != len(nfa["states"]) * len(nfa["alphabet"]):
        return problems + [f"DFA of {label} is not total"]
    finals = set(nfa["finals"])
    for w in words:
        current = nfa["initial"]
        for c in w:
            current = delta[(current, c)]
        if (current in finals) != accepts_word(w):
            problems.append(f"DFA of {label} is wrong on {w[:20]!r}")
            break
    return problems


def check_counterexample(n: int, word: str | None) -> list[str]:
    """T_n against T_{n+1}: the least difference is b followed by n-1 a's."""
    want = "b" + "a" * (n - 1)
    return [] if word == want else [f"T{n} vs T{n + 1}: counterexample {word!r}, want {want!r}"]


def check_run(
    states: list[str], symbols: list[str], w: str, initial: str, finals: set[str],
    edges: set[tuple[str, str, str]],
) -> list[str]:
    """A witness run: from the initial state along edges, reading ``w``, to a final."""
    if len(states) != len(symbols) + 1 or states[0] != initial or states[-1] not in finals:
        return ["witness run does not go from the initial state to a final one"]
    for source, letter, target in zip(states, symbols, states[1:]):
        if (source, letter, target) not in edges:
            return [f"witness move {source} -{letter}-> {target} is not an edge"]
    if "".join(a for a in symbols if a != "eps") != w:
        return ["witness run does not read the input"]
    return []


def _owner(state: str, paths: set[str]) -> str:
    # Longest expression-position prefix of the state's namespace.
    best = ""
    segments = state.split(".")[:-1]
    for i in range(1, len(segments) + 1):
        candidate = ".".join(segments[:i])
        if candidate not in paths:
            break
        best = candidate
    return best


def check_accepted_trace(
    events: list[dict], w: str, tree: tuple, initial: str, finals: set[str],
    edges: set[tuple[str, str, str]],
) -> list[str]:
    """The trace replays a legal run of the composite over ``w``.

    It starts at the initial state, every step or handoff is an edge, the
    moves chain, the letters read are ``w`` in order, it ends in a final
    state, and a handoff is an eps edge between two different devices.
    """
    paths = node_paths(tree)
    if not events or events[0] != {"kind": "activate", "device": _owner(initial, paths)}:
        return ["accepted trace does not open by activating the initial device"]
    current, read = initial, []
    for event in events:
        kind = event["kind"]
        if kind not in ("step", "handoff"):
            continue
        source, letter, target = event["from"], event["letter"], event["to"]
        if source != current:
            return [f"trace move from {source} does not continue from {current}"]
        if (source, letter, target) not in edges:
            return [f"trace move {source} -{letter}-> {target} is not an edge"]
        here, there = _owner(source, paths), _owner(target, paths)
        if event["device"] != here:
            return [f"trace move from {source} is attributed to {event['device']!r}"]
        if kind == "handoff":
            if letter != "eps" or here == there or event["to_device"] != there:
                return [f"bad handoff {source} -> {target}"]
        elif letter == "eps" and here != there:
            return [f"eps move {source} -> {target} crosses devices but is not a handoff"]
        if letter != "eps":
            read.append(letter)
        current = target
    if "".join(read) != w:
        return ["accepted trace does not read the input in order"]
    if current not in finals:
        return [f"accepted trace ends in {current}, which is not final"]
    if events[-1] != {"kind": "verdict", "device": _owner(current, paths), "accepted": True}:
        return ["accepted trace does not close with an accepting verdict"]
    return []


def check_rejected_trace(events: list[dict], w: str, tree: tuple) -> list[str]:
    """Each leaf reports its own predicate's verdict on the whole word."""
    want = [
        {"kind": "verdict", "device": path, "accepted": LEAF_PREDICATES[name](w)}
        for path, name in leaves(tree)
    ]
    return [] if events == want else ["rejected trace's leaf verdicts are wrong"]

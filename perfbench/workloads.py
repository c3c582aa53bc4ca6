"""The four workloads.

A workload makes its inputs from the seed when it is built (that is set-up
time), then offers two halves of one round: ``cli_calls`` for the CLI half
and ``lib_pass`` for the in-process library half.  Every round makes the
same operations, so a run's share of failed operations never depends on the
seed or on how many rounds fit in the run.

Library calls go through ``Harness.call``, which times them and, in a traced
run, records a span named after the public function.  The ``metric``
argument names the per-layer metric the span feeds (see ``spec.per_layer``).
"""

from __future__ import annotations

import itertools
import json
import random
from functools import partial
from pathlib import Path

import gen
import oracle
import spec
from harness import CliCall, CliResult, Harness, exit_is

from nfalgebra import (
    Concat,
    Device,
    Parallel,
    accepts,
    control_trace,
    determinize,
    dfa_to_automaton,
    elaborate,
    enumerate_language,
    equivalent,
    format_word,
    instantiate,
    parallel_verdicts,
    parse_automaton,
    parse_expression,
    parse_input,
    render_automaton,
    render_dot,
    render_expression,
    splits,
    validate,
    witness,
)
from nfalgebra.properties import run_closure_suite
from nfalgebra.trace import Activate, Handoff, Step, Verdict

LEAF_STATES = gen.LEAF_STATES
LEAF_EDGES = {"N1": 7, "N2": 3}


def to_expr(node: tuple):
    """The package's expression value for a generator tree."""
    if node[0] == "leaf":
        return Device(node[1])
    kind = Concat if node[0] == ";" else Parallel
    return kind(to_expr(node[1]), to_expr(node[2]))


def trace_events(trace) -> list[dict]:
    """A ControlTrace's events in the form ``trace --json`` prints them."""
    out = []
    for e in trace.events:
        if isinstance(e, Activate):
            out.append({"kind": "activate", "device": e.device})
        elif isinstance(e, Step):
            out.append({"kind": "step", "device": e.device, "from": str(e.source),
                        "letter": str(e.symbol), "to": str(e.target)})
        elif isinstance(e, Handoff):
            out.append({"kind": "handoff", "device": e.source_device,
                        "to_device": e.target_device, "from": str(e.source),
                        "letter": "eps", "to": str(e.target)})
        elif isinstance(e, Verdict):
            out.append({"kind": "verdict", "device": e.device, "accepted": e.accepted})
    return out


class View:
    """A composite's initial state, finals and edges, as strings."""

    def __init__(self, automaton) -> None:
        self.initial = str(automaton.initial)
        self.finals = {str(s) for s in automaton.finals}
        self.edges = {(str(s), str(a), str(t)) for s, a, t in automaton.edges()}


def check_trace(overall: bool, events: list[dict], w: str, tree: tuple, view: View) -> list[str]:
    want = oracle.accepts(tree, w)
    if overall != want:
        return [f"trace verdict {overall} on a word the oracle calls {want}"]
    if want:
        return oracle.check_accepted_trace(events, w, tree, view.initial, view.finals, view.edges)
    return oracle.check_rejected_trace(events, w, tree)


def check_trace_json(w: str, tree: tuple, view: View, result: CliResult) -> list[str]:
    try:
        payload = json.loads(result.stdout)
    except json.JSONDecodeError:
        return [f"trace --json printed no JSON (exit {result.code})"]
    problems = exit_is(0 if oracle.accepts(tree, w) else 1)(result)
    if payload["input"] != w:
        problems.append("trace --json echoes the wrong input")
    return problems + check_trace(payload["overall"], payload["events"], w, tree, view)


def check_verdict(tree: tuple, w: str, result: CliResult) -> list[str]:
    want = oracle.accepts(tree, w)
    return exit_is(0 if want else 1, "accept\n" if want else "reject\n")(result)


def check_file(path: Path, check) -> list[str]:
    if not path.is_file():
        return [f"{path.name} was not written"]
    return check(oracle.read_nfa(path.read_text("utf-8")))


def check_run(run, w: str, view: View) -> list[str]:
    if run is None:
        return [f"no witness for an accepted word of {len(w)} letters"]
    return oracle.check_run([str(s) for s in run.states], [str(a) for a in run.symbols],
                            w, view.initial, view.finals, view.edges)


class Workload:
    name = ""
    lib_repeats = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.device_paths = gen.write_leaf_devices(self.rng, workdir)
        self.env = {}
        for path in self.device_paths:
            name, automaton = parse_automaton(path.read_text("utf-8"))
            self.env[name] = automaton
        self.devices = [str(p) for p in self.device_paths]

    def cli_calls(self) -> list[CliCall]:
        raise NotImplementedError

    def lib_pass(self, h: Harness) -> None:
        raise NotImplementedError


class CliSmall(Workload):
    """One-shot calls on N1 and N2 with short words."""

    name = "cli-small"
    lib_repeats = 20
    TREES = {
        "N1": ("leaf", "N1"),
        "N2": ("leaf", "N2"),
        "cat": (";", ("leaf", "N1"), ("leaf", "N2")),
        "par": ("|", ("leaf", "N1"), ("leaf", "N2")),
        "rev": (";", ("leaf", "N2"), ("leaf", "N1")),
        "swap": ("|", ("leaf", "N2"), ("leaf", "N1")),
    }

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.words = {}
        for key in ("N1", "N2", "cat", "par", "rev"):
            tree = self.TREES[key]
            accepted = gen.member(self.rng, tree)
            rejected = gen.random_word(self.rng, self.rng.randint(1, 16))
            while oracle.accepts(tree, rejected):
                rejected = gen.random_word(self.rng, self.rng.randint(1, 16))
            self.words[key] = (accepted, rejected)
        self.text = {key: gen.text(tree) for key, tree in self.TREES.items()}
        self.views = {
            key: View(elaborate(to_expr(self.TREES[key]), self.env)) for key in ("cat", "par")
        }
        self.check_words = [gen.random_word(self.rng, self.rng.randint(0, 12)) for _ in range(40)]
        self.counterexample = oracle.least_difference(self.TREES["cat"], self.TREES["rev"], 8)

    def cli_calls(self) -> list[CliCall]:
        d = ["-d", *self.devices]
        want_check = "".join(
            f"{p}: ok ({n}: {LEAF_STATES[n]} states, {LEAF_EDGES[n]} transitions)\n"
            for p, n in zip(self.devices, ("N1", "N2"))
        )
        calls = [CliCall(["check", *self.devices], exit_is(0, want_check))]
        for key, pair in self.words.items():
            for w in pair:
                calls.append(CliCall(["accept", *d, "-e", self.text[key], "-i", w],
                                     partial(check_verdict, self.TREES[key], w)))
        for key in ("cat", "par"):
            for w in self.words[key]:
                calls.append(CliCall(
                    ["trace", *d, "-e", self.text[key], "-i", w, "--json"],
                    partial(check_trace_json, w, self.TREES[key], self.views[key])))
        calls.append(CliCall(["equiv", *d, "-e", self.text["cat"], "-e2", self.text["rev"]],
                             exit_is(1, f"{self.counterexample}\n")))
        calls.append(CliCall(["equiv", *d, "-e", self.text["par"], "-e2", self.text["swap"]],
                             exit_is(0, "equivalent\n")))
        for key in ("cat", "par"):
            out = self.workdir / f"composite-{key}.nfa"
            tree = self.TREES[key]
            calls.append(CliCall(
                ["compose", *d, "-e", self.text[key], "-o", str(out)],
                lambda r, out=out, tree=tree: exit_is(0, "")(r) + check_file(
                    out, lambda nfa: oracle.check_composite_file(
                        nfa, tree, LEAF_STATES, self.check_words))))
        for key, states in (("N1", 2**3), ("cat", None)):
            out = self.workdir / f"dfa-{key}.nfa"
            tree = self.TREES[key]
            calls.append(CliCall(
                ["dfa", *d, "-e", self.text[key], "-o", str(out)],
                lambda r, out=out, tree=tree, key=key, states=states: exit_is(0, "")(r) + check_file(
                    out, lambda nfa: oracle.check_dfa(
                        nfa, key, states, partial(oracle.accepts, tree), self.check_words))))
        for key in ("cat", "par"):
            tree = self.TREES[key]
            calls.append(CliCall(
                ["dot", *d, "-e", self.text[key], "--group"],
                lambda r, tree=tree: exit_is(0)(r) + oracle.check_dot(r.stdout, tree, LEAF_STATES)))
        return calls

    def lib_pass(self, h: Harness) -> None:
        for path, name in zip(self.device_paths, ("N1", "N2")):
            parsed_name, automaton = h.call("textio.parse_automaton", parse_automaton,
                                            path.read_text("utf-8"))
            problems = h.call("automaton.validate", validate, automaton)
            h.expect([f"{name}: {p.code}" for p in problems])
            if (parsed_name, len(automaton.states)) != (name, LEAF_STATES[name]):
                h.expect([f"{path.name} parses to {parsed_name} with {len(automaton.states)} states"])
        composites = {}
        for key in ("N1", "N2", "cat", "par", "rev", "swap"):
            expr = h.call("textio.parse_expression", parse_expression, self.text[key])
            composites[key] = h.call("algebra.elaborate", elaborate, expr, self.env)
        for key, pair in self.words.items():
            composite = composites[key]
            for w in pair:
                letters = h.call("textio.parse_input", parse_input, w, composite.alphabet)
                verdict = h.call("automaton.accepts", accepts, composite, letters)
                if verdict != oracle.accepts(self.TREES[key], w):
                    h.expect([f"accepts({self.text[key]}, {w}) = {verdict}"])
        for key in ("cat", "par"):
            for w in self.words[key]:
                letters = parse_input(w, composites[key].alphabet)
                trace = h.call("trace.control_trace", control_trace,
                               to_expr(self.TREES[key]), self.env, letters)
                h.expect(check_trace(trace.overall, trace_events(trace), w,
                                     self.TREES[key], self.views[key]))
        differ = h.call("analysis.equivalent", equivalent, composites["cat"], composites["rev"])
        if differ.counterexample is None or format_word(differ.counterexample) != self.counterexample:
            h.expect([f"equivalent(cat, rev) gives {differ.counterexample}"])
        same = h.call("analysis.equivalent", equivalent, composites["par"], composites["swap"])
        if not same.equivalent:
            h.expect(["equivalent(N1 | N2, N2 | N1) is false"])
        text = h.call("textio.render_automaton", render_automaton, composites["cat"], "composite")
        h.expect(oracle.check_composite_file(
            oracle.read_nfa(text), self.TREES["cat"], LEAF_STATES, self.check_words))
        dfa = h.call("analysis.determinize", determinize, composites["N1"])
        automaton = h.call("analysis.dfa_to_automaton", dfa_to_automaton, dfa)
        text = h.call("textio.render_automaton", render_automaton, automaton, "dfa")
        h.expect(oracle.check_dfa(oracle.read_nfa(text), "N1", 2**3, oracle.n1, self.check_words))
        dot = h.call("textio.render_dot", render_dot, composites["cat"], True)
        h.expect(oracle.check_dot(dot, self.TREES["cat"], LEAF_STATES))


class LongWords(Workload):
    """Expressions of at most four leaves on long words."""

    name = "long-words"
    TREES = {
        "cat": (";", ("leaf", "N1"), ("leaf", "N2")),
        "par": ("|", ("leaf", "N1"), ("leaf", "N2")),
        "mix": ("|", (";", ("leaf", "N1"), ("leaf", "N2")), (";", ("leaf", "N2"), ("leaf", "N1"))),
    }
    TRACED = ("cat", "mix")
    # The two slowest calls are then of one kind, so their 90th percentile
    # does not hop between kinds from run to run.
    CLI_TRACED = (("cat", True), ("mix", True))

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.words = {}
        for key in spec.LONG_EXPRS:
            for accepted in (True, False):
                w = gen.long_word(self.rng, key, accepted, spec.LONG_LEN)
                if oracle.accepts(self.TREES[key], w) != accepted:
                    raise AssertionError(f"generated {key} word has the wrong verdict")
                self.words[(key, accepted)] = w
        self.split_words = [gen.random_word(self.rng, n) for n in spec.SPLIT_LENS]
        self.text = {key: gen.text(tree) for key, tree in self.TREES.items()}
        self.composites = {
            key: elaborate(to_expr(tree), self.env) for key, tree in self.TREES.items()
        }
        self.views = {key: View(automaton) for key, automaton in self.composites.items()}

    def cli_calls(self) -> list[CliCall]:
        d = ["-d", *self.devices]
        calls = []
        for (key, _), w in self.words.items():
            calls.append(CliCall(["accept", *d, "-e", self.text[key], "-i", w],
                                 partial(check_verdict, self.TREES[key], w)))
        for key, accepted in self.CLI_TRACED:
            w = self.words[(key, accepted)]
            calls.append(CliCall(
                ["trace", *d, "-e", self.text[key], "-i", w, "--json"],
                partial(check_trace_json, w, self.TREES[key], self.views[key])))
        return calls

    def lib_pass(self, h: Harness) -> None:
        for (key, accepted), w in self.words.items():
            composite = self.composites[key]
            letters = h.call("textio.parse_input", parse_input, w, composite.alphabet,
                             metric="textio.parse_input_us_per_letter", letters=len(w))
            verdict = h.call("automaton.accepts", accepts, composite, letters,
                             metric=f"automaton.accepts_us_per_letter.{key}", letters=len(w))
            if verdict != accepted:
                h.expect([f"accepts({self.text[key]}) = {verdict} on a {len(w)}-letter word"])
            run = h.call("automaton.witness", witness, composite, letters,
                         metric=f"automaton.witness_us_per_letter.{key}", letters=len(w))
            if accepted:
                h.expect(check_run(run, w, self.views[key]))
                h.tracer.count(f"automaton.witness_steps.{key}", len(run.symbols) if run else 0)
            elif run is not None:
                h.expect([f"witness found for a rejected {key} word"])
            if key in self.TRACED:
                outcome = "accepted" if accepted else "rejected"
                trace = h.call("trace.control_trace", control_trace,
                               to_expr(self.TREES[key]), self.env, letters,
                               metric=f"trace.control_trace_us_per_letter.{outcome}",
                               letters=len(w))
                events = trace_events(trace)
                h.tracer.count(f"trace.events.{outcome}", len(events))
                h.expect(check_trace(trace.overall, events, w, self.TREES[key], self.views[key]))
            if key == "par":
                both = h.call("trace.parallel_verdicts", parallel_verdicts,
                              self.env["N1"], self.env["N2"], letters,
                              metric="trace.parallel_verdicts_us_per_letter", letters=len(w))
                if both != (oracle.n1(w), oracle.n2(w)):
                    h.expect([f"parallel_verdicts = {both}"])
        for w in self.split_words:
            letters = parse_input(w, self.env["N1"].alphabet)
            cuts = h.call("trace.splits", splits, self.env["N1"], self.env["N2"], letters,
                          metric=f"trace.splits_ms.len{len(w)}")
            if cuts != oracle.splits(w):
                h.expect([f"splits of a {len(w)}-letter word are wrong"])


class DeepExpressions(Workload):
    """Expression trees of up to 64 leaves in three shapes."""

    name = "deep-expressions"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.trees = {}
        for shape in spec.SHAPES:
            for k in spec.K_SET:
                tree = gen.SHAPES[shape](gen.leaf_names(k))
                self.trees[(shape, k)] = (tree, gen.text(tree), gen.member(self.rng, tree))
        self.nested = gen.nested_parens(spec.NESTED_DEPTH)
        self.nested_word = "abaa"

    def cli_calls(self) -> list[CliCall]:
        d = ["-d", *self.devices]
        calls = []
        for (shape, k), (tree, text, w) in self.trees.items():
            out = self.workdir / f"composite-{shape}-{k}.nfa"
            calls.append(CliCall(
                ["compose", *d, "-e", text, "-o", str(out)],
                lambda r, out=out, tree=tree, w=w: exit_is(0, "")(r) + check_file(
                    out, lambda nfa: oracle.check_composite_file(nfa, tree, LEAF_STATES, [w]))))
            if k in spec.CLI_DOT_K:
                calls.append(CliCall(
                    ["dot", *d, "-e", text, "--group"],
                    lambda r, tree=tree: exit_is(0)(r) + oracle.check_dot(r.stdout, tree, LEAF_STATES)))
        # Fails today: parse_expression recurses once per parenthesis.
        calls.append(CliCall(["accept", *d, "-e", self.nested, "-i", self.nested_word],
                             exit_is(0, "accept\n")))
        return calls

    def lib_pass(self, h: Harness) -> None:
        top = spec.K_SET[-1]
        for (shape, k), (tree, text, w) in self.trees.items():
            expr = h.call("textio.parse_expression", parse_expression, text,
                          metric=f"textio.parse_expression_ms.k{k}")
            if expr != to_expr(tree):
                h.expect([f"parse_expression({shape} k={k}) builds another tree"])
            composite = h.call("algebra.elaborate", elaborate, expr, self.env,
                               metric=f"algebra.elaborate_ms.{shape}.k{k}")
            size = oracle.composite_size(tree, LEAF_STATES)
            if len(composite.states) != size:
                h.expect([f"{shape} k={k} composite has {len(composite.states)} states, want {size}"])
            if k == top:
                h.tracer.count(f"algebra.composite_states.{shape}.k{k}", len(composite.states))
                h.tracer.count(f"algebra.composite_edges.{shape}.k{k}", len(composite.edges()))
            text_form = h.call("textio.render_automaton", render_automaton, composite, "composite")
            _, back = h.call("textio.parse_automaton", parse_automaton, text_form)
            if back != composite or render_automaton(back, "composite") != text_form:
                h.expect([f"{shape} k={k} composite does not survive render and parse"])
            dot = h.call("textio.render_dot", render_dot, composite, True,
                         metric=f"textio.render_dot_ms.k{k}")
            h.expect(oracle.check_dot(dot, tree, LEAF_STATES))
            rendered = h.call("textio.render_expression", render_expression, expr)
            if parse_expression(rendered) != expr:
                h.expect([f"render_expression({shape} k={k}) does not parse back"])
            letters = parse_input(w, composite.alphabet)
            if not h.call("automaton.accepts", accepts, composite, letters):
                h.expect([f"{shape} k={k} composite rejects a member word"])


class SubsetBlowup(Workload):
    """T_n, whose DFA has 2^n states."""

    name = "subset-blowup"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.family = gen.write_family(self.rng, workdir, list(spec.N_SET))
        self.automata = {
            name: parse_automaton(path.read_text("utf-8"))[1] for name, path in self.family.items()
        }
        self.check_words = [gen.random_word(self.rng, self.rng.randint(0, 30)) for _ in range(40)]
        self.enum_words = [
            "".join(p) for length in range(spec.ENUM_LEN + 1)
            for p in itertools.product("ab", repeat=length)
            if oracle.nth_from_right(spec.ENUM_N, "".join(p))
        ]

    def cli_calls(self) -> list[CliCall]:
        calls = []
        for n in spec.N_SET:
            out = self.workdir / f"D{n}.nfa"
            calls.append(CliCall(
                ["dfa", "-d", str(self.family[f"T{n}"]), "-e", f"T{n}", "-o", str(out)],
                lambda r, out=out, n=n: exit_is(0, "")(r) + check_file(
                    out, lambda nfa: oracle.check_dfa(
                        nfa, f"T{n}", 2**n, partial(oracle.nth_from_right, n), self.check_words))))
        for n in spec.CLI_EQUIV_N:
            calls.append(CliCall(
                ["equiv", "-d", str(self.family[f"T{n}"]), str(self.family[f"S{n}"]),
                 "-e", f"T{n}", "-e2", f"S{n}"],
                exit_is(0, "equivalent\n")))
            calls.append(CliCall(
                ["equiv", "-d", str(self.family[f"T{n}"]), str(self.family[f"T{n + 1}"]),
                 "-e", f"T{n}", "-e2", f"T{n + 1}"],
                exit_is(1, "b" + "a" * (n - 1) + "\n")))
        calls.append(CliCall(
            ["props", "--seed", str(spec.PROPS_SEED), "--cases", str(spec.PROPS_CASES)],
            exit_is(0, f"seed {spec.PROPS_SEED} cases {spec.PROPS_CASES} max-len 6\nfailures 0\n")))
        return calls

    def lib_pass(self, h: Harness) -> None:
        for n in spec.N_SET:
            tn = self.automata[f"T{n}"]
            dfa = h.call("analysis.determinize", determinize, tn,
                         metric=f"analysis.determinize_ms.n{n}")
            h.tracer.count(f"analysis.dfa_states.n{n}", len(dfa.states))
            if len(dfa.states) != 2**n:
                h.expect([f"determinize(T{n}) has {len(dfa.states)} states, want {2**n}"])
            automaton = h.call("analysis.dfa_to_automaton", dfa_to_automaton, dfa,
                               metric=f"analysis.dfa_to_automaton_ms.n{n}")
            text = h.call("textio.render_automaton", render_automaton, automaton, "dfa",
                          metric=f"textio.render_automaton_ms.n{n}")
            _, back = h.call("textio.parse_automaton", parse_automaton, text,
                             metric=f"textio.parse_automaton_ms.n{n}")
            if back != automaton or render_automaton(back, "dfa") != text:
                h.expect([f"DFA of T{n} does not survive render and parse"])
            h.expect(oracle.check_dfa(oracle.read_nfa(text), f"T{n}", 2**n,
                                      partial(oracle.nth_from_right, n), self.check_words))
        for n in spec.EQUIV_N:
            tn, bigger = self.automata[f"T{n}"], self.automata[f"T{n + 1}"]
            copy = h.call("algebra.instantiate", instantiate, tn, "X")
            same = h.call("analysis.equivalent", equivalent, tn, copy,
                          metric=f"analysis.equivalent_ms.same.n{n}")
            if not same.equivalent:
                h.expect([f"T{n} is not equivalent to its renamed copy"])
            differ = h.call("analysis.equivalent", equivalent, tn, bigger,
                            metric=f"analysis.equivalent_ms.differ.n{n}")
            found = format_word(differ.counterexample) if differ.counterexample else None
            h.expect(oracle.check_counterexample(n, found))
        words = h.call("analysis.enumerate_language", enumerate_language,
                       self.automata[f"T{spec.ENUM_N}"], spec.ENUM_LEN,
                       metric="analysis.enumerate_language_ms")
        if [format_word(w) for w in words] != self.enum_words:
            h.expect([f"enumerate_language(T{spec.ENUM_N}, {spec.ENUM_LEN}) is wrong"])
        result = h.call("properties.run_closure_suite", run_closure_suite,
                        spec.SUITE_SEED, spec.SUITE_CASES,
                        metric="properties.run_closure_suite_ms")
        h.tracer.count("properties.cases_per_s", spec.SUITE_CASES / h.op_seconds[-1])
        if result.failures:
            h.expect([f"run_closure_suite reports {len(result.failures)} failures"])


WORKLOADS = {cls.name: cls for cls in (CliSmall, LongWords, DeepExpressions, SubsetBlowup)}

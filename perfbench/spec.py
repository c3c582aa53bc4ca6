"""What the benchmark measures: workloads, input sizes and metrics.

``BENCHMARK.json`` at the repository root is written from this module by
``python3 perfbench/run.py --write-manifest``, so the two never disagree.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
RUN_SECONDS = 24
SETUP_REPEATS = 15
# Time metrics are medians over rounds, which need at least three of them:
# a shared host slows the CPUs in bursts, and a median of three drops one.
MIN_ROUNDS = 3

# Input sizes.  Each family scales with one parameter.
K_SET = (8, 16, 32, 64)  # leaves per expression tree (deep-expressions)
CLI_DOT_K = (8, 16, 32)  # trees the CLI's dot --group call draws
N_SET = (4, 6, 8, 10, 12)  # T_n, "the n-th letter from the right is b"
EQUIV_N = (4, 6, 8, 10)  # equivalent at n = 12 alone takes 6 s, two rounds' worth
CLI_EQUIV_N = (4, 8, 10)  # T_n for the CLI's equiv calls
LONG_LEN = 12000  # letters per long word
SPLIT_LENS = (100, 200, 300)  # splits is quadratic in the word length
NESTED_DEPTH = 3000  # parentheses around N1 in the failing accept
SUITE_SEED, SUITE_CASES = 42, 50  # run_closure_suite in the library half
PROPS_SEED, PROPS_CASES = 7, 30  # the CLI's props call
ENUM_N, ENUM_LEN = 8, 10  # enumerate_language(T_8, 10)

SHAPES = ("left", "right", "balanced")
LONG_EXPRS = ("cat", "par", "mix")

WORKLOADS = [
    (
        "cli-small",
        "one-shot CLI calls on N1 and N2 with words of at most 16 letters: "
        "interpreter start, package import and argparse dominate",
    ),
    (
        "long-words",
        "expressions of at most 4 leaves on words of 12000 letters: per-letter "
        "simulation in automaton and trace dominates; trace --json output size shows",
    ),
    (
        "deep-expressions",
        "left-deep, right-deep and balanced trees of up to 64 leaves: elaborate "
        "dominates; holds the 3000-parenthesis accept that fails today",
    ),
    (
        "subset-blowup",
        "T_n for n up to 12: determinize and equivalent grow as 2^n; the same "
        "step kernel as long-words, across subsets instead of along a word",
    ),
]

# name, unit, bound (share of the parent's median it may worsen by)
# On the shared 2-vCPU sandbox these were set on, the host slows the CPUs by
# up to a half for seconds at a time, and CPU time slows with wall time, so
# run-to-run spreads of the times reach 5 to 20 %; only the widest bound
# leaves room for them (see README.md, "Reference figures").
END_TO_END = [
    ("setup_s", "s", 0.25),
    ("cli_pass_s", "s", 0.25),
    ("cli_call_ms", "ms", 0.25),
    ("cli_call_ms_p90", "ms", 0.25),
    ("lib_pass_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.1),
]


def per_layer() -> list[tuple[str, str]]:
    """Every per-layer metric, with its unit, in the order it is reported."""
    out = [("cli.startup_ms", "ms"), ("cli.import_ms", "ms")]
    for n in N_SET:
        out.append((f"textio.parse_automaton_ms.n{n}", "ms"))
    for n in N_SET:
        out.append((f"textio.render_automaton_ms.n{n}", "ms"))
    for k in K_SET:
        out.append((f"textio.parse_expression_ms.k{k}", "ms"))
    for k in K_SET:
        out.append((f"textio.render_dot_ms.k{k}", "ms"))
    out.append(("textio.parse_input_us_per_letter", "us/letter"))
    for shape in SHAPES:
        for k in K_SET:
            out.append((f"algebra.elaborate_ms.{shape}.k{k}", "ms"))
    for shape in SHAPES:
        out.append((f"algebra.composite_states.{shape}.k{K_SET[-1]}", "count"))
        out.append((f"algebra.composite_edges.{shape}.k{K_SET[-1]}", "count"))
    for name in LONG_EXPRS:
        out.append((f"automaton.accepts_us_per_letter.{name}", "us/letter"))
    for name in LONG_EXPRS:
        out.append((f"automaton.witness_us_per_letter.{name}", "us/letter"))
    for name in LONG_EXPRS:
        out.append((f"automaton.witness_steps.{name}", "count"))
    for verdict in ("accepted", "rejected"):
        out.append((f"trace.control_trace_us_per_letter.{verdict}", "us/letter"))
    for length in SPLIT_LENS:
        out.append((f"trace.splits_ms.len{length}", "ms"))
    out.append(("trace.parallel_verdicts_us_per_letter", "us/letter"))
    for verdict in ("accepted", "rejected"):
        out.append((f"trace.events.{verdict}", "count"))
    for n in N_SET:
        out.append((f"analysis.determinize_ms.n{n}", "ms"))
    for n in N_SET:
        out.append((f"analysis.dfa_to_automaton_ms.n{n}", "ms"))
    for kind in ("same", "differ"):
        for n in EQUIV_N:
            out.append((f"analysis.equivalent_ms.{kind}.n{n}", "ms"))
    out.append(("analysis.enumerate_language_ms", "ms"))
    for n in N_SET:
        out.append((f"analysis.dfa_states.n{n}", "count"))
    out.append(("properties.run_closure_suite_ms", "ms"))
    out.append(("properties.cases_per_s", "1/s"))
    out.append(("bench.tracing_overhead_s", "s"))
    return out


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": bound}
            for name, unit, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": "higher" if unit == "1/s" else "lower"}
            for name, unit in per_layer()
        ],
    }

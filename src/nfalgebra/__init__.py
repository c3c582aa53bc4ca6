"""Composable epsilon-NFAs.

Automata are immutable values; two operators combine them (sequential
composition via empty-string bridges out of final states, and parallel
composition via a fresh forking root), and composites are ordinary
automata that compose again.  The package also ships deterministic
analysis (subset construction, equivalence with counterexamples, bounded
enumeration), control-flow traces that show which device is active and
where control is handed over, canonical text formats, DOT export, and a
seeded property suite.
"""

from .algebra import (
    CompositionExpr,
    Concat,
    Device,
    DeviceEnvironment,
    InvalidDeviceError,
    Parallel,
    StateClashError,
    UnboundDeviceError,
    concat,
    elaborate,
    instantiate,
    leaf_devices,
    parallel,
    subexpressions,
)
from .analysis import (
    Dfa,
    EnumerationBoundError,
    EquivalenceVerdict,
    SubsetState,
    determinize,
    dfa_to_automaton,
    enumerate_language,
    equivalent,
)
from .automaton import (
    EPSILON,
    EPSILON_TOKEN,
    Automaton,
    InvalidAutomatonError,
    RunWitness,
    StateId,
    Symbol,
    UnknownSymbolError,
    Violation,
    Word,
    accepts,
    check_witness,
    letter,
    pad_alphabet,
    state,
    symbol_key,
    validate,
    witness,
    word,
)
from .textio import (
    ParseDiagnostic,
    ParseError,
    format_word,
    parse_automaton,
    parse_expression,
    parse_input,
    render_automaton,
    render_dot,
    render_expression,
)
from .trace import (
    Activate,
    ControlTrace,
    Handoff,
    Step,
    TraceEvent,
    Verdict,
    control_trace,
    parallel_verdicts,
    splits,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # The CLI (argparse, json, the property suite) loads on first use, so
    # ``import nfalgebra`` stays light and ``python -m nfalgebra.cli`` finds
    # no half-imported ``cli`` module to warn about.
    if name == "run_cli":
        from .cli import run_cli

        return run_cli
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EPSILON",
    "EPSILON_TOKEN",
    "Activate",
    "Automaton",
    "CompositionExpr",
    "Concat",
    "ControlTrace",
    "Device",
    "DeviceEnvironment",
    "Dfa",
    "EnumerationBoundError",
    "EquivalenceVerdict",
    "Handoff",
    "InvalidAutomatonError",
    "InvalidDeviceError",
    "Parallel",
    "ParseDiagnostic",
    "ParseError",
    "RunWitness",
    "StateClashError",
    "StateId",
    "Step",
    "SubsetState",
    "Symbol",
    "TraceEvent",
    "UnboundDeviceError",
    "UnknownSymbolError",
    "Verdict",
    "Violation",
    "Word",
    "accepts",
    "check_witness",
    "concat",
    "control_trace",
    "determinize",
    "dfa_to_automaton",
    "elaborate",
    "enumerate_language",
    "equivalent",
    "format_word",
    "instantiate",
    "leaf_devices",
    "letter",
    "pad_alphabet",
    "parallel",
    "parallel_verdicts",
    "parse_automaton",
    "parse_expression",
    "parse_input",
    "render_automaton",
    "render_dot",
    "render_expression",
    "run_cli",
    "splits",
    "state",
    "subexpressions",
    "symbol_key",
    "validate",
    "witness",
    "word",
]

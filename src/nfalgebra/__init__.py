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

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines them.  This is the one
# list of them: each of these submodules builds its ``__all__`` from its
# entry (``analysis`` adds its re-export of ``InvalidAutomatonError``).
# ``import nfalgebra`` loads none of these submodules: each loads on first
# access to one of its names, so a CLI call pays only for the code its
# subcommand runs, and ``python -m nfalgebra.cli`` finds no half-imported
# ``cli`` to warn about.
_EXPORTS = {
    "algebra": (
        "CompositionExpr", "Concat", "Device", "DeviceEnvironment",
        "InvalidDeviceError", "Parallel", "StateClashError", "UnboundDeviceError",
        "concat", "elaborate", "instantiate", "leaf_devices", "parallel",
        "subexpressions",
    ),
    "analysis": (
        "Dfa", "EnumerationBoundError", "EquivalenceVerdict", "SubsetState",
        "determinize", "dfa_to_automaton", "enumerate_language", "equivalent",
    ),
    "automaton": (
        "EPSILON", "EPSILON_TOKEN", "Automaton", "InvalidAutomatonError",
        "RunWitness", "StateId", "Symbol", "UnknownSymbolError", "Violation",
        "Word", "accepts", "check_witness", "letter", "state",
        "symbol_key", "validate", "witness", "word",
    ),
    "cli": ("run_cli",),
    "textio": (
        "ParseDiagnostic", "ParseError", "format_word", "parse_automaton",
        "parse_expression", "parse_input", "render_automaton", "render_dot",
        "render_expression",
    ),
    "trace": (
        "Activate", "ControlTrace", "Handoff", "Step", "TraceEvent", "Verdict",
        "control_trace", "parallel_verdicts", "splits",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Sparse integer-register simulator with arithmetic gates and dynamics.

The computational basis is labeled by integers, states are finite
superpositions, and the two arithmetic gates (adder and multiplier) act
by rewriting labels.  On top of that sit a time-resolved model of the
adder, a boolean layer, and an indexed algebra of composed operations.

``import qarith`` loads no layer.  Each public name, and each layer
module, is looked up when first read (PEP 562), and loads only its own
layer and what that imports.  Only the dynamics layer needs numpy, so
no other name loads it.
"""

import importlib

# Each layer module and the public names it defines.
_EXPORTS = {
    "config": ("Config", "WindowError"),
    "states": ("Ket", "ZeroNormError", "basis_ket", "superposition"),
    "gates": (
        "AncillaError",
        "ArityError",
        "Circuit",
        "GateDomainError",
        "GateKind",
        "GateProgram",
        "GateStep",
        "ProgramStepError",
        "apply_gate",
        "apply_minus",
        "apply_plus",
        "apply_times",
        "iterate_plus",
        "repeat_plus",
        "run_basis",
        "run_program",
    ),
    "logic": (
        "DisagreementError", "and_", "compiled_op", "eval_with_gates", "not_", "or_", "truth_table",
    ),
    "terms": (
        "FREE",
        "MAX_TERM_DEPTH",
        "BinOp",
        "EvalReport",
        "FreeVar",
        "Node",
        "TermSyntaxError",
        "arity",
        "bijection_report",
        "class_of",
        "class_size",
        "compile_term",
        "cumulative_size",
        "decompose_index",
        "enumerate_class",
        "evaluate_gates",
        "evaluate_oracle",
        "index_of",
        "parse_term",
        "render_infix",
        "render_term",
        "term_of",
    ),
    "dynamics": (
        "GATE_TIME",
        "EvolutionTrace",
        "HamiltonianModel",
        "SuperadditivityRow",
        "build_model",
        "detect_stopping_time",
        "evolve_exact",
        "evolve_numeric",
        "subsystem_evolve",
        "superadditivity_table",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not ``from . import``: that would look the attribute
    # up on this package and land here again.  Importing a layer binds it
    # on the package, and a name read is bound here, so each runs once.
    layer = importlib.import_module(f".{module}", __name__)
    if module == name:
        return layer
    value = globals()[name] = getattr(layer, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

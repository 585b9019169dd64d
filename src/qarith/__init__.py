"""Sparse integer-register simulator with arithmetic gates and dynamics.

The computational basis is labeled by integers, states are finite
superpositions, and the two arithmetic gates (adder and multiplier) act
by rewriting labels.  On top of that sit a time-resolved model of the
adder, a boolean layer, and an indexed algebra of composed operations.

Only that model needs numpy.  Its names (``build_model``,
``evolve_exact``, ...) are looked up in ``qarith.dynamics`` when first
read, so ``import qarith`` does not load numpy.
"""

import importlib

from .config import Config, WindowError
from .gates import (
    AncillaError,
    ArityError,
    Circuit,
    GateDomainError,
    GateKind,
    GateProgram,
    GateStep,
    ProgramStepError,
    apply_gate,
    apply_minus,
    apply_plus,
    apply_times,
    iterate_plus,
    repeat_plus,
    run_basis,
    run_program,
)
from .logic import DisagreementError, and_, compiled_op, eval_with_gates, not_, or_, truth_table
from .states import Ket, ZeroNormError, basis_ket, superposition
from .terms import (
    FREE,
    MAX_TERM_DEPTH,
    BinOp,
    EvalReport,
    FreeVar,
    Node,
    TermSyntaxError,
    arity,
    bijection_report,
    class_of,
    class_size,
    compile_term,
    cumulative_size,
    decompose_index,
    enumerate_class,
    evaluate_gates,
    evaluate_oracle,
    index_of,
    parse_term,
    render_infix,
    render_term,
    term_of,
)

# Names read from .dynamics on first access (PEP 562), so that importing
# the package does not import numpy.  ``qarith.dynamics`` itself also
# resolves without an explicit import.
_DYNAMICS_NAMES = (
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
)

__all__ = [
    "Config",
    "WindowError",
    *_DYNAMICS_NAMES,
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
    "DisagreementError",
    "and_",
    "compiled_op",
    "eval_with_gates",
    "not_",
    "or_",
    "truth_table",
    "Ket",
    "ZeroNormError",
    "basis_ket",
    "superposition",
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
]


def __getattr__(name: str):
    if name == "dynamics" or name in _DYNAMICS_NAMES:
        # import_module, not ``from . import``: that would look the
        # attribute up on this package and land here again.
        dynamics = importlib.import_module(".dynamics", __name__)
        return dynamics if name == "dynamics" else getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

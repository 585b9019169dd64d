"""Adder and multiplier gates as basis-label maps, extended linearly.

Each gate rewrites register labels and never touches amplitudes, so norm
preservation and linearity hold by construction.  The strict multiplier
is partial: a source label of 0 collapses distinct targets onto one
label, so it is rejected rather than applied.  The reversible multiplier
sidesteps this by writing the product into a third register that must
start at 0.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from operator import add, mul, sub

from .states import Ket, _check_labels, basis_ket


class GateKind(Enum):
    PLUS = "PLUS"
    MINUS = "MINUS"
    TIMES_STRICT = "TIMES_STRICT"
    TIMES_REVERSIBLE = "TIMES_REVERSIBLE"


ARITY = {
    GateKind.PLUS: 2,
    GateKind.MINUS: 2,
    GateKind.TIMES_STRICT: 2,
    GateKind.TIMES_REVERSIBLE: 3,
}


class GateDomainError(ValueError):
    """Strict multiplication hit a component whose source label is 0."""

    def __init__(self, component: tuple[int, ...], roles: tuple[int, ...]):
        self.component = component
        self.roles = roles
        super().__init__(
            f"strict multiplier undefined on component {component}: "
            f"source register {roles[0]} holds label 0"
        )


class AncillaError(ValueError):
    """Reversible multiplication needs its result register at label 0."""

    def __init__(self, component: tuple[int, ...], register: int):
        self.component = component
        self.register = register
        super().__init__(
            f"result register {register} must hold label 0, "
            f"found component {component}"
        )


class ArityError(ValueError):
    """Argument count does not match a circuit's or term's inputs."""


class ProgramStepError(RuntimeError):
    """A gate program failed; carries the offending step index."""

    def __init__(self, step_index: int, step: GateStep, cause: Exception):
        self.step_index = step_index
        self.step = step
        self.cause = cause
        # A step built in Python may carry a kind that is no GateKind.
        name = step.kind.value if isinstance(step.kind, GateKind) else repr(step.kind)
        super().__init__(f"step {step_index} ({name} {step.roles}): {cause}")


# ARITY's kinds by arity, for the fast path of _check_roles: an Enum
# member hashes in Python, so ``in`` on a short tuple beats ARITY.get.
_TWO_ROLES = tuple(k for k, n in ARITY.items() if n == 2)
_THREE_ROLES = tuple(k for k, n in ARITY.items() if n == 3)


def _check_roles(registers: int, kind: GateKind, roles: tuple[int, ...]) -> None:
    # Fast accept: plain ints (no bools or other subclasses), distinct and
    # in range, as many as the gate takes.  Anything else, valid or not,
    # goes through the checks below, which name the fault.
    if kind in _TWO_ROLES and len(roles) == 2:
        s, t = roles
        if type(s) is int and type(t) is int and s != t and 0 <= s < registers and 0 <= t < registers:
            return
    elif kind in _THREE_ROLES and len(roles) == 3:
        a, b, c = roles
        if (
            type(a) is int and type(b) is int and type(c) is int
            and a != b and a != c and b != c
            and 0 <= a < registers and 0 <= b < registers and 0 <= c < registers
        ):
            return
    arity = ARITY.get(kind)
    if arity is None:
        # Only a program step can carry another kind: apply_gate hands one
        # to apply_times, which rejects it as a multiplier mode first.
        raise ValueError(f"not a gate kind: {kind!r}")
    if len(roles) != arity:
        raise ValueError(f"{kind.value} takes {arity} roles, got {roles}")
    if len(set(roles)) != len(roles):
        raise ValueError(f"roles must be distinct registers, got {roles}")
    for r in roles:
        if not isinstance(r, int) or isinstance(r, bool) or r < 0 or r >= registers:
            raise ValueError(f"role {r!r} out of range for a {registers}-register state")


def _apply(state: Ket, kind: GateKind, roles: tuple[int, ...]) -> Ket:
    """One gate on a ket: the one-step program, failing with its step's cause."""
    try:
        return run_program(GateProgram((GateStep(kind, roles),)), state)
    except ProgramStepError as exc:
        raise exc.cause from None


def apply_plus(state: Ket, roles: tuple[int, int] = (0, 1)) -> Ket:
    """Add the source label into the target: (..n.., ..m..) -> (..n.., ..n+m..)."""
    return _apply(state, GateKind.PLUS, roles)


def apply_minus(state: Ket, roles: tuple[int, int] = (0, 1)) -> Ket:
    """Subtract the source label from the target; inverse of apply_plus."""
    return _apply(state, GateKind.MINUS, roles)


def apply_times(
    state: Ket,
    mode: GateKind = GateKind.TIMES_STRICT,
    roles: tuple[int, ...] | None = None,
) -> Ket:
    if mode is not GateKind.TIMES_STRICT and mode is not GateKind.TIMES_REVERSIBLE:
        raise ValueError(f"not a multiplier mode: {mode!r}")
    if roles is None:
        roles = (0, 1) if mode is GateKind.TIMES_STRICT else (0, 1, 2)
    return _apply(state, mode, roles)


def _check_count(count: object) -> None:
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise ValueError(f"iteration count must be a non-negative integer, got {count!r}")


def iterate_plus(state: Ket, count: int, roles: tuple[int, int] = (0, 1)) -> Ket:
    """Apply the adder ``count`` times (count >= 0), one gate pass per time."""
    _check_count(count)
    _check_roles(state.registers, GateKind.PLUS, roles)
    for _ in range(count):
        state = apply_plus(state, roles)
    return state


def repeat_plus(state: Ket, count: int, roles: tuple[int, int] = (0, 1)) -> Ket:
    """``iterate_plus`` in one pass: (..n.., ..m..) -> (..n.., ..m + count*n..).

    Checks and errors are the loop's: the count first, then the roles,
    also for a count of 0.
    """
    _check_count(count)
    _check_roles(state.registers, GateKind.PLUS, roles)
    if count == 0:
        return state
    s, t = roles
    cols = state._columns()
    cols[t] = tuple(m + count * n for n, m in zip(cols[s], cols[t]))
    return state._relabeled(cols)


def apply_gate(state: Ket, kind: GateKind, roles: tuple[int, ...] | None = None) -> Ket:
    if kind is GateKind.PLUS:
        return apply_plus(state, (0, 1) if roles is None else roles)
    if kind is GateKind.MINUS:
        return apply_minus(state, (0, 1) if roles is None else roles)
    return apply_times(state, kind, roles)


class GateStep(namedtuple("GateStep", ("kind", "roles"))):
    """One gate application: a ``GateKind`` and its register roles.

    An immutable named tuple, cheap to build: compiling a term builds one
    per gate.
    """

    __slots__ = ()

    kind: GateKind
    roles: tuple[int, ...]


@dataclass(frozen=True)
class GateProgram:
    """A straight-line sequence of gate applications."""

    steps: tuple[GateStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


def _check_steps(registers: int, steps: tuple[GateStep, ...]) -> None:
    """Raise the first step's role error on ``registers`` registers, if any, with its index."""
    for i, step in enumerate(steps):
        try:
            _check_roles(registers, step.kind, step.roles)
        except ValueError as exc:
            raise ProgramStepError(i, step, exc) from exc


# Bound once: looking up an Enum member costs more than a gate's
# arithmetic on small labels.  Compiled terms use only the adder and the
# reversible multiplier, so _program_map and _run_columns test for those
# first.
_PLUS, _MINUS, _TIMES_REVERSIBLE = GateKind.PLUS, GateKind.MINUS, GateKind.TIMES_REVERSIBLE


def _program_map(steps: tuple[GateStep, ...], labels: tuple[int, ...]) -> tuple[int, ...]:
    """A program's label map: one basis state's labels in, its final labels out.

    A basis state runs it on its one label tuple (``run_basis``,
    ``Circuit.run``); a ket runs it on each of its components only where
    its column pass cannot name the failing one (``run_program``).  The
    steps' roles must have been checked against the tuple's length
    (``_check_steps``); they run without further checks.  A failure is a
    ``ProgramStepError`` with the step index; a gate error names the
    component as it stood at that step.
    """
    regs = list(labels)
    i = 0
    try:
        for kind, roles in steps:
            if kind is _PLUS:
                s, t = roles
                regs[t] += regs[s]
            elif kind is _TIMES_REVERSIBLE:
                a, b, c = roles
                if regs[c] != 0:
                    raise AncillaError(tuple(regs), c)
                regs[c] = regs[a] * regs[b]
            elif kind is _MINUS:
                s, t = roles
                regs[t] -= regs[s]
            else:
                s, t = roles
                if regs[s] == 0:
                    raise GateDomainError(tuple(regs), (s, t))
                regs[t] *= regs[s]
            i += 1
    except ValueError as exc:
        raise ProgramStepError(i, steps[i], exc) from exc
    return tuple(regs)


def _run_columns(steps: tuple[GateStep, ...], cols: list) -> bool:
    """Run role-checked steps on a ket's register columns, rebinding ``cols[t]``.

    Each step is one pass over whole columns, the same arithmetic as
    ``_program_map`` on every component at once.  A step builds a new
    tuple column, since columns are shared between kets (``Ket._columns``).
    Returns False, the columns part-run, at the first step some component
    would fail.
    """
    for kind, roles in steps:
        if kind is _PLUS:
            s, t = roles
            cols[t] = tuple(map(add, cols[t], cols[s]))
        elif kind is _TIMES_REVERSIBLE:
            a, b, c = roles
            if any(cols[c]):
                return False
            cols[c] = tuple(map(mul, cols[a], cols[b]))
        elif kind is _MINUS:
            s, t = roles
            cols[t] = tuple(map(sub, cols[t], cols[s]))
        else:
            s, t = roles
            if not all(cols[s]):
                return False
            cols[t] = tuple(map(mul, cols[t], cols[s]))
    return True


def run_program(program: GateProgram, state: Ket) -> Ket:
    """Run a program on a ket: one pass over whole register columns per step.

    The result carries its columns and amplitudes, so a chain of programs
    transposes the first ket's labels once and builds a label dict only
    for a result that is read (``Ket._amps``).

    The roles are checked against the ket's register count on every
    call, before any step runs.  A program whose gate fails reports the
    first component, in the ket's order, that fails, at the step where
    it fails.  Columns cannot tell which component that is, so when a gate
    would fail, the label map runs component by component and raises
    that component's error; some component always fails there.
    """
    steps = program.steps
    _check_steps(state.registers, steps)
    cols = state._columns()
    if _run_columns(steps, cols):
        return state._relabeled(cols)
    for key, _ in state.items():
        _program_map(steps, key)
    raise RuntimeError("the column pass failed where every component's label map succeeds")


def run_basis(program: GateProgram, labels: tuple[int, ...]) -> tuple[int, ...]:
    """Run a program on one basis state, given as its label tuple.

    Gates only permute basis labels, so this equals ``run_program`` on
    ``basis_ket(*labels)`` without building a ket: it returns the final
    state's labels, and fails with the same errors.  A bare program has
    no register layout, so its roles are checked against ``len(labels)``
    on every call, before any step runs; a ``Circuit`` checks them once.
    """
    if not labels:
        raise ValueError("need at least one register label")
    _check_labels(labels)
    _check_steps(len(labels), program.steps)
    return _program_map(program.steps, labels)


@dataclass(frozen=True)
class Circuit:
    """A gate program with the register layout that computes one value.

    The first ``arity`` registers hold the arguments and the rest start
    at ``constants``; the value is read off ``result_register`` of the
    final state.  Compiled terms and boolean connectives are circuits.

    The layout and the program's roles are checked once, when the
    circuit is built, so a run checks only its arguments and runs the
    program's label map on them.  A circuit whose result register is out
    of range, or with a constant that is no integer or a bad role, is not
    built; for bad roles, construction raises ``run_program``'s error for
    the first bad step.
    """

    program: GateProgram
    arity: int
    constants: tuple[int, ...]
    result_register: int

    def __post_init__(self) -> None:
        r, registers = self.result_register, self.registers
        if not isinstance(r, int) or isinstance(r, bool) or not 0 <= r < registers:
            raise ValueError(f"result register {r!r} out of range for a {registers}-register circuit")
        _check_labels(self.constants)
        _check_steps(registers, self.program.steps)

    @property
    def registers(self) -> int:
        return self.arity + len(self.constants)

    def initial_labels(self, args: tuple[int, ...]) -> tuple[int, ...]:
        if len(args) != self.arity:
            raise ArityError(f"circuit takes {self.arity} argument(s), got {len(args)}")
        return (*args, *self.constants)

    def initial_state(self, args: tuple[int, ...]) -> Ket:
        return basis_ket(*self.initial_labels(args))

    def run(self, args: tuple[int, ...]) -> int:
        """The value on basis-state arguments, computed on one tuple of labels."""
        labels = self.initial_labels(args)
        _check_labels(args)
        return _program_map(self.program.steps, labels)[self.result_register]

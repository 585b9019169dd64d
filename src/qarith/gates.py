"""Adder and multiplier gates as basis-label maps, extended linearly.

Each gate rewrites register labels and never touches amplitudes, so norm
preservation and linearity hold by construction.  The strict multiplier
is partial: a source label of 0 collapses distinct targets onto one
label, so it is rejected rather than applied.  The reversible multiplier
sidesteps this by writing the product into a third register that must
start at 0.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

from .states import Ket, basis_ket


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
        super().__init__(f"step {step_index} ({step.kind.value} {step.roles}): {cause}")


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
        # apply_gate hands any other kind to apply_times, which says so.
        raise ValueError(f"not a multiplier mode: {kind!r}")
    if len(roles) != arity:
        raise ValueError(f"{kind.value} takes {arity} roles, got {roles}")
    if len(set(roles)) != len(roles):
        raise ValueError(f"roles must be distinct registers, got {roles}")
    for r in roles:
        if not isinstance(r, int) or isinstance(r, bool) or r < 0 or r >= registers:
            raise ValueError(f"role {r!r} out of range for a {registers}-register state")


def _label_map(kind: GateKind, roles: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The basis-label map of one gate; roles must already be checked.

    The ket route applies it to every component through
    ``Ket._map_labels``.  The basis lane (``_run_labels``) does the same
    arithmetic in place on one list of labels.
    """
    if kind is GateKind.PLUS:
        s, t = roles

        def fn(key: tuple[int, ...]) -> tuple[int, ...]:
            new = list(key)
            new[t] = key[t] + key[s]
            return tuple(new)

    elif kind is GateKind.MINUS:
        s, t = roles

        def fn(key: tuple[int, ...]) -> tuple[int, ...]:
            new = list(key)
            new[t] = key[t] - key[s]
            return tuple(new)

    elif kind is GateKind.TIMES_STRICT:
        s, t = roles

        def fn(key: tuple[int, ...]) -> tuple[int, ...]:
            if key[s] == 0:
                raise GateDomainError(key, (s, t))
            new = list(key)
            new[t] = key[s] * key[t]
            return tuple(new)

    else:
        a, b, c = roles

        def fn(key: tuple[int, ...]) -> tuple[int, ...]:
            if key[c] != 0:
                raise AncillaError(key, c)
            new = list(key)
            new[c] = key[a] * key[b]
            return tuple(new)

    return fn


def apply_plus(state: Ket, roles: tuple[int, int] = (0, 1)) -> Ket:
    """Add the source label into the target: (..n.., ..m..) -> (..n.., ..n+m..)."""
    _check_roles(state.registers, GateKind.PLUS, roles)
    return state._map_labels(_label_map(GateKind.PLUS, roles))


def apply_minus(state: Ket, roles: tuple[int, int] = (0, 1)) -> Ket:
    """Subtract the source label from the target; inverse of apply_plus."""
    _check_roles(state.registers, GateKind.MINUS, roles)
    return state._map_labels(_label_map(GateKind.MINUS, roles))


def apply_times(
    state: Ket,
    mode: GateKind = GateKind.TIMES_STRICT,
    roles: tuple[int, ...] | None = None,
) -> Ket:
    if mode is not GateKind.TIMES_STRICT and mode is not GateKind.TIMES_REVERSIBLE:
        raise ValueError(f"not a multiplier mode: {mode!r}")
    if roles is None:
        roles = (0, 1) if mode is GateKind.TIMES_STRICT else (0, 1, 2)
    _check_roles(state.registers, mode, roles)
    return state._map_labels(_label_map(mode, roles))


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

    def fn(key: tuple[int, ...]) -> tuple[int, ...]:
        new = list(key)
        new[t] = key[t] + count * key[s]
        return tuple(new)

    return state._map_labels(fn)


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

    def to_json_dict(self) -> dict:
        return {"gate": self.kind.value, "roles": list(self.roles)}

    @staticmethod
    def from_json_dict(obj: object) -> GateStep:
        if not isinstance(obj, dict):
            raise ValueError(f"bad program step {obj!r}")
        name = obj.get("gate")
        try:
            kind = GateKind(name)
        except ValueError:
            raise ValueError(f"unknown gate {name!r}") from None
        roles = obj.get("roles")
        if (
            not isinstance(roles, list)
            or len(roles) != ARITY[kind]
            or not all(isinstance(r, int) and not isinstance(r, bool) for r in roles)
        ):
            raise ValueError(f"bad roles for {kind.value}: {roles!r}")
        return GateStep(kind, tuple(roles))


@dataclass(frozen=True)
class GateProgram:
    """A straight-line sequence of gate applications."""

    steps: tuple[GateStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def to_json_dict(self) -> dict:
        return {"steps": [s.to_json_dict() for s in self.steps]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(obj: object) -> GateProgram:
        if not isinstance(obj, dict) or not isinstance(obj.get("steps"), list):
            raise ValueError("program document needs a 'steps' list")
        return GateProgram(tuple(GateStep.from_json_dict(s) for s in obj["steps"]))

    @staticmethod
    def from_json(text: str) -> GateProgram:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc
        return GateProgram.from_json_dict(obj)


def run_program(program: GateProgram, state: Ket) -> Ket:
    """Run each step in order; failures carry the step index."""
    for i, step in enumerate(program.steps):
        try:
            state = apply_gate(state, step.kind, step.roles)
        except ValueError as exc:
            raise ProgramStepError(i, step, exc) from exc
    return state


def _valid_steps(registers: int, steps: tuple[GateStep, ...]) -> int:
    """How many leading steps have roles valid on ``registers`` registers."""
    for i, step in enumerate(steps):
        try:
            _check_roles(registers, step.kind, step.roles)
        except ValueError:
            return i
    return len(steps)


# Bound once: looking up an Enum member costs more than a gate's
# arithmetic on small labels.
_PLUS, _MINUS, _TIMES_STRICT = GateKind.PLUS, GateKind.MINUS, GateKind.TIMES_STRICT


def _run_labels(steps: tuple[GateStep, ...], labels: tuple[int, ...], valid: int) -> list[int]:
    """The basis lane: run ``steps`` on a list of ``labels``, in place, and return it.

    The first ``valid`` steps must have roles checked against
    ``len(labels)`` registers; they run without further checks.  If a
    step after them remains, it raises its role error once they have
    run, so a gate error in an earlier step wins, as on the ket route.
    Errors are ``run_program``'s: the step index, and the component as a
    tuple.
    """
    if not labels:
        raise ValueError("need at least one register label")
    for label in labels:
        if not isinstance(label, int) or isinstance(label, bool):
            raise ValueError(f"register label must be an integer, got {label!r}")
    regs = list(labels)
    try:
        for i in range(valid):
            step = steps[i]
            kind = step.kind
            if kind is _PLUS:
                s, t = step.roles
                regs[t] += regs[s]
            elif kind is _MINUS:
                s, t = step.roles
                regs[t] -= regs[s]
            elif kind is _TIMES_STRICT:
                s, t = step.roles
                if regs[s] == 0:
                    raise GateDomainError(tuple(regs), (s, t))
                regs[t] *= regs[s]
            else:
                a, b, c = step.roles
                if regs[c] != 0:
                    raise AncillaError(tuple(regs), c)
                regs[c] = regs[a] * regs[b]
        i = valid
        if i < len(steps):
            _check_roles(len(regs), steps[i].kind, steps[i].roles)
    except ValueError as exc:
        raise ProgramStepError(i, steps[i], exc) from exc
    return regs


def run_basis(program: GateProgram, labels: tuple[int, ...]) -> tuple[int, ...]:
    """Run a program on one basis state, given as its label tuple.

    Gates only permute basis labels, so this equals ``run_program`` on
    ``basis_ket(*labels)`` without building a ket per step: it returns
    the final state's labels, and fails with the same errors.  A bare
    program has no register layout, so its roles are checked against
    ``len(labels)`` on every call; a ``Circuit`` checks them once.
    """
    steps = program.steps
    return tuple(_run_labels(steps, labels, _valid_steps(len(labels), steps)))


@dataclass(frozen=True)
class Circuit:
    """A gate program with the register layout that computes one value.

    The first ``arity`` registers hold the arguments and the rest start
    at ``constants``; the value is read off ``result_register`` of the
    final state.  Compiled terms and boolean connectives are circuits.

    The program's roles are checked against ``registers`` once, when the
    circuit is built.  A circuit with bad roles can still be built: its
    run fails at the first bad step, with ``run_program``'s error.
    """

    program: GateProgram
    arity: int
    constants: tuple[int, ...]
    result_register: int
    # Leading program steps whose roles passed the check.
    _valid: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_valid", _valid_steps(self.registers, self.program.steps))

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
        """The value on basis-state arguments, computed on one list of labels."""
        regs = _run_labels(self.program.steps, self.initial_labels(args), self._valid)
        return regs[self.result_register]

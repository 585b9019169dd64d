"""Gate-layer tests: wide labels vs plain integer arithmetic, linear
extension, error details, roles, the unvalidated relabeling route on
kets, and the program runner on kets and on label tuples.

The label window, norm, linearity and inverse properties are checks of
``qarith verify gates``, asserted by tests/test_verify.py."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qarith import gates
from qarith.gates import (
    ARITY,
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
from qarith.states import PRUNE_EPS_SQ, Ket, basis_ket, superposition


def test_plus_basis_example():
    assert apply_plus(basis_ket(3, 4)) == basis_ket(3, 7)
    assert apply_plus(basis_ket(2, -5)) == basis_ket(2, -3)


def test_minus_basis_example():
    assert apply_minus(basis_ket(3, 7)) == basis_ket(3, 4)
    assert apply_minus(basis_ket(2, 3)) == basis_ket(2, 1)


def test_times_basis_example():
    assert apply_times(basis_ket(2, -5)) == basis_ket(2, -10)
    out = apply_times(basis_ket(3, 4, 0), GateKind.TIMES_REVERSIBLE)
    assert out == basis_ket(3, 4, 12)


def test_linear_extension_on_superposition():
    state = superposition({(1, 0): 0.6, (2, 0): 0.8})
    out = apply_plus(state)
    assert out.amplitude((1, 1)) == pytest.approx(0.6)
    assert out.amplitude((2, 2)) == pytest.approx(0.8)
    # amplitudes ride along unchanged; labels carry all the action
    assert out.norm() == pytest.approx(1.0, abs=1e-15)


def test_plus_collides_labels_without_losing_norm():
    # Two components mapping to the same output label must accumulate.
    state = superposition({(1, 2): 0.6, (2, 1): 0.8})
    out = apply_plus(state)
    assert out.amplitude((1, 3)) == pytest.approx(0.6)
    assert out.amplitude((2, 3)) == pytest.approx(0.8)


def test_label_maps_match_integer_arithmetic_sampled_wide():
    # Same oracle as the exhaustive window, on labels up to +-1000.
    rng = np.random.default_rng(20240817)
    for _ in range(250):
        n, m = (int(v) for v in rng.integers(-1000, 1001, size=2))
        pair = basis_ket(n, m)
        assert apply_plus(pair) == basis_ket(n, n + m)
        assert apply_minus(pair) == basis_ket(n, m - n)
        if n != 0:
            assert apply_times(pair) == basis_ket(n, n * m)
        out = apply_times(basis_ket(n, m, 0), GateKind.TIMES_REVERSIBLE)
        assert out == basis_ket(n, m, n * m)


def test_iterate_validation():
    with pytest.raises(ValueError):
        iterate_plus(basis_ket(1, 1), -1)
    with pytest.raises(ValueError, match="iteration count must be a non-negative integer"):
        iterate_plus(basis_ket(1, 1), True)
    assert iterate_plus(basis_ket(5, 7), 0) == basis_ket(5, 7)
    for fn in (iterate_plus, repeat_plus):
        with pytest.raises(ValueError, match="role 5 out of range for a 2-register state"):
            fn(basis_ket(5, 7), 0, (5, 6))


def test_repeat_plus_matches_the_loop():
    state = superposition(
        {(3, 5, -1): 0.6, (-2, 1, 10**40): 0.48j, (0, -7, 4): 0.64}
    )
    for roles in ((0, 1), (2, 0), (1, 2)):
        for count in (0, 1, 2, 7):
            out = repeat_plus(state, count, roles)
            assert list(out.items()) == list(iterate_plus(state, count, roles).items())
            # The result carries its labels' columns.
            assert out._columns() == list(zip(*(key for key, _ in out.items())))
    # same errors, checked in the same order: count first, then roles,
    # also for a count of 0
    for count, roles in ((-1, (0, 1)), (True, (5, 6)), (1.0, (0, 1)), (3, (0, 0)),
                         (3, (0, 3)), (3, (0, 1, 2)), (0, (5, 6))):
        outcomes = []
        for fn in (repeat_plus, iterate_plus):
            try:
                outcomes.append(list(fn(state, count, roles).items()))
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], (count, roles)


def test_strict_times_rejects_zero_source():
    with pytest.raises(GateDomainError) as exc:
        apply_times(basis_ket(0, 5))
    assert exc.value.component == (0, 5)


def test_strict_times_zero_target_is_fine():
    assert apply_times(basis_ket(5, 0)) == basis_ket(5, 0)


def test_reversible_times_requires_clean_result_register():
    with pytest.raises(AncillaError) as exc:
        apply_times(basis_ket(2, 3, 1), GateKind.TIMES_REVERSIBLE)
    assert exc.value.register == 2


def test_role_validation():
    with pytest.raises(ValueError):
        apply_plus(basis_ket(1, 2), (0, 0))
    with pytest.raises(ValueError):
        apply_plus(basis_ket(1, 2), (0, 2))
    with pytest.raises(ValueError):
        apply_times(basis_ket(1, 2), GateKind.TIMES_REVERSIBLE, (0, 1))
    with pytest.raises(ValueError):
        apply_times(basis_ket(1, 2), GateKind.PLUS)
    # bools are ints, but no register indices
    with pytest.raises(ValueError, match="role False out of range"):
        apply_plus(basis_ket(1, 2), (False, True))


def reference_check_roles(registers, kind, roles):
    """The role check without its fast accept path: every rule, in order."""
    arity = ARITY.get(kind)
    if arity is None:
        raise ValueError(f"not a gate kind: {kind!r}")
    if len(roles) != arity:
        raise ValueError(f"{kind.value} takes {arity} roles, got {roles}")
    if len(set(roles)) != len(roles):
        raise ValueError(f"roles must be distinct registers, got {roles}")
    for r in roles:
        if not isinstance(r, int) or isinstance(r, bool) or r < 0 or r >= registers:
            raise ValueError(f"role {r!r} out of range for a {registers}-register state")


class Register(int):
    """An int subclass: accepted as a role, though not on the fast path."""


NOT_A_KIND = object()


@st.composite
def role_steps(draw):
    """A register count and steps whose roles are mostly near-valid.

    Each step starts from distinct registers, as many as its gate takes
    or another count, and then has up to two roles made negative, pushed
    past the register count, repeated, or turned into a bool or an int
    subclass; some roles come as lists.
    """
    registers = draw(st.integers(0, 6))
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from([*GateKind, NOT_A_KIND]))
        size = draw(st.sampled_from([ARITY.get(kind, 2), 0, 1, 2, 3, 4]))
        roles = list(draw(st.permutations(range(max(registers, size))))[:size])
        for _ in range(draw(st.integers(0, 2)) if size else 0):
            i = draw(st.integers(0, size - 1))
            roles[i] = draw(st.sampled_from([
                -1, -2, registers, registers + 1, *roles, True, False, Register(roles[i]),
            ]))
        steps.append(GateStep(kind, roles if draw(st.integers(0, 8)) == 4 else tuple(roles)))
    return registers, tuple(steps)


def _role_outcome(check, registers, step):
    try:
        check(registers, step.kind, step.roles)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@settings(derandomize=True, max_examples=500, database=None, deadline=None)
@given(role_steps())
def test_role_check_matches_reference(case):
    registers, steps = case
    outcomes = [_role_outcome(reference_check_roles, registers, step) for step in steps]
    assert [_role_outcome(gates._check_roles, registers, step) for step in steps] == outcomes
    bad = next((i for i, outcome in enumerate(outcomes) if outcome is not None), None)
    try:
        gates._check_steps(registers, steps)
    except ProgramStepError as exc:
        assert (exc.step_index, exc.step) == (bad, steps[bad])
        assert (type(exc.cause), str(exc.cause)) == outcomes[bad]
    else:
        assert bad is None


def test_circuit_layout_and_run():
    # (a, b, 0) -> (a, b, ab) -> (a, b + ab, ab), read off register 1
    circuit = Circuit(
        GateProgram(
            (GateStep(GateKind.TIMES_REVERSIBLE, (0, 1, 2)), GateStep(GateKind.PLUS, (2, 1)))
        ),
        arity=2,
        constants=(0,),
        result_register=1,
    )
    assert circuit.registers == 3
    assert circuit.initial_labels((4, 5)) == (4, 5, 0)
    assert circuit.run((4, 5)) == 25
    assert run_program(circuit.program, circuit.initial_state((4, 5))) == basis_ket(4, 25, 20)
    with pytest.raises(ArityError, match="circuit takes 2 argument\\(s\\), got 1"):
        circuit.run((4,))


@pytest.mark.parametrize("constant", [0.0, True, False, "0", None])
def test_circuit_checks_its_constants_when_built(constant):
    # A run checks only its arguments, so a bad constant never reaches one.
    program = GateProgram((GateStep(GateKind.PLUS, (0, 1)),))
    with pytest.raises(ValueError, match=f"^register label must be an integer, got {constant!r}$"):
        Circuit(program, 1, (constant,), 1)
    circuit = Circuit(program, 1, (5,), 1)
    assert circuit.run((2,)) == 7
    with pytest.raises(ValueError, match=f"^register label must be an integer, got {constant!r}$"):
        circuit.run((constant,))


@pytest.mark.parametrize("layout", [(2, (), 2), (2, (), -1), (2, (), True), (1, (0,), 1.0), (0, (), 0)])
def test_circuit_checks_its_result_register_when_built(layout):
    # Out of range it would fail every run, or read another register.
    arity, constants, result = layout
    registers = arity + len(constants)
    with pytest.raises(ValueError, match=rf"^result register {result!r} out of range for a {registers}-register circuit$"):
        Circuit(GateProgram(()), arity, constants, result)


def test_roles_select_registers():
    out = apply_plus(basis_ket(1, 2, 3), (2, 0))
    assert out == basis_ket(4, 2, 3)
    out = apply_times(basis_ket(4, 2, 0), GateKind.TIMES_REVERSIBLE, (1, 0, 2))
    assert out == basis_ket(4, 2, 8)


def test_program_computes_sum_times_factor():
    # (n, m, k, 0): n+m into register 1, then (n+m)*k into register 3.
    program = GateProgram(
        (
            GateStep(GateKind.PLUS, (0, 1)),
            GateStep(GateKind.TIMES_REVERSIBLE, (1, 2, 3)),
        )
    )
    out = run_program(program, basis_ket(2, 3, 4, 0))
    assert out == basis_ket(2, 5, 4, 20)


def test_gate_step_is_an_immutable_value():
    step = GateStep(GateKind.TIMES_REVERSIBLE, (0, 1, 2))
    assert repr(step) == "GateStep(kind=<GateKind.TIMES_REVERSIBLE: 'TIMES_REVERSIBLE'>, roles=(0, 1, 2))"
    twin = GateStep(kind=GateKind.TIMES_REVERSIBLE, roles=(0, 1, 2))
    assert twin == step and hash(twin) == hash(step)
    assert step != GateStep(GateKind.TIMES_REVERSIBLE, (1, 0, 2))
    assert step != GateStep(GateKind.TIMES_STRICT, (0, 1))
    assert len({step, twin, GateStep(GateKind.PLUS, (0, 1))}) == 2
    for name in ("kind", "roles", "other"):
        with pytest.raises(AttributeError):
            setattr(step, name, None)
    assert step == GateStep(GateKind.TIMES_REVERSIBLE, (0, 1, 2))


def test_basis_lane_runs_program_on_labels():
    program = GateProgram(
        (
            GateStep(GateKind.PLUS, (0, 1)),
            GateStep(GateKind.TIMES_REVERSIBLE, (1, 2, 3)),
        )
    )
    assert run_basis(program, (2, 3, 4, 0)) == (2, 5, 4, 20)
    assert run_basis(GateProgram(()), (7,)) == (7,)
    with pytest.raises(ValueError, match="register label must be an integer"):
        run_basis(program, (2, 3.0, 4, 0))
    with pytest.raises(ValueError, match="at least one register"):
        run_basis(program, ())


# Labels: zero (the strict multiplier's and the ancilla's edge), small
# ones, and ones of several hundred digits.
LABELS = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(-(10**400), 10**400),
)


@st.composite
def program_and_labels(draw):
    registers = draw(st.integers(2, 5))
    labels = tuple(draw(st.lists(LABELS, min_size=registers, max_size=registers)))
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(list(GateKind)))
        if draw(st.integers(0, 9)):
            # Distinct registers in range; too few of them for a three-role
            # gate on two registers.
            roles = draw(st.permutations(range(registers)))[: ARITY[kind]]
        else:
            # Any count, repeats, and registers one past either end.
            roles = draw(st.lists(st.integers(-1, registers), min_size=1, max_size=4))
        steps.append(GateStep(kind, tuple(roles)))
    return GateProgram(tuple(steps)), labels


def _outcome(run):
    try:
        return run(), None
    except ProgramStepError as exc:
        return None, exc


@settings(derandomize=True, max_examples=400, database=None, deadline=None)
@given(program_and_labels())
# A strict product by 0 before bad roles, and bad roles after a good step:
# the roles are checked before any step runs, so both fail at step 1.
@example((GateProgram((GateStep(GateKind.TIMES_STRICT, (0, 1)), GateStep(GateKind.PLUS, (0, 2)))),
          (0, 5)))
@example((GateProgram((GateStep(GateKind.PLUS, (0, 1)), GateStep(GateKind.MINUS, (1, 1)))),
          (3, 5)))
# A step built in Python whose kind is no GateKind fails as bad roles do.
@example((GateProgram((GateStep(GateKind.PLUS, (0, 1)), GateStep(NOT_A_KIND, (0, 1)))), (1, 2)))
def test_basis_lane_matches_ket_route(case):
    program, labels = case
    lane, lane_error = _outcome(lambda: run_basis(program, labels))
    ket, ket_error = _outcome(lambda: run_program(program, basis_ket(*labels)))
    # The same program as a circuit, read off each register in turn; a
    # circuit with bad roles fails when built.
    circuits = [
        lambda r=r: Circuit(program, len(labels), (), r).run(labels) for r in range(len(labels))
    ]
    if lane_error is None and ket_error is None:
        assert [key for key, _ in ket.items()] == [lane]
        assert tuple(circuit() for circuit in circuits) == lane
        return
    assert lane_error is not None and ket_error is not None
    for error in [lane_error, *(_outcome(circuit)[1] for circuit in circuits)]:
        assert error.step_index == ket_error.step_index
        assert type(error.cause) is type(ket_error.cause)
        assert str(error) == str(ket_error)


def test_ket_reports_its_first_failing_component():
    # (1, 2, 7) comes first in the ket and fails at step 1, its dirty
    # ancilla; (0, 2, 0) would fail earlier, at step 0, but comes second.
    program = GateProgram(
        (GateStep(GateKind.TIMES_STRICT, (0, 1)), GateStep(GateKind.TIMES_REVERSIBLE, (0, 1, 2)))
    )
    with pytest.raises(ProgramStepError) as exc:
        run_program(program, Ket(3, {(1, 2, 7): 0.6, (0, 2, 0): 0.8}))
    assert exc.value.step_index == 1
    assert isinstance(exc.value.cause, AncillaError)
    assert exc.value.cause.component == (1, 2, 7)


def test_bad_roles_fail_before_any_step_runs():
    # Step 0 would fail on a zero source, but step 1's roles do not fit two
    # registers, so every route fails at step 1 before anything runs.
    program = GateProgram((GateStep(GateKind.TIMES_STRICT, (0, 1)), GateStep(GateKind.PLUS, (0, 2))))
    routes = [
        lambda: run_basis(program, (0, 5)),
        lambda: run_program(program, basis_ket(0, 5)),
        lambda: run_program(program, Ket(2, {(0, 5): 0.6, (1, 5): 0.8})),
        lambda: Circuit(program, 2, (), 1),
    ]
    for route in routes:
        with pytest.raises(ProgramStepError) as exc:
            route()
        assert exc.value.step_index == 1 and exc.value.step == program.steps[1]
        assert type(exc.value.cause) is ValueError
        assert str(exc.value.cause) == "role 2 out of range for a 2-register state"


def test_zero_ket_still_checks_roles():
    program = GateProgram((GateStep(GateKind.PLUS, (0, 5)),))
    with pytest.raises(ProgramStepError, match="role 5 out of range") as exc:
        run_program(program, Ket(2, {}))
    assert exc.value.step_index == 0
    with pytest.raises(ValueError, match="role 5 out of range"):
        apply_plus(Ket(2, {}), (0, 5))
    assert run_program(GateProgram((GateStep(GateKind.PLUS, (0, 1)),)), Ket(2, {})) == Ket(2, {})


def test_step_of_no_gate_kind_is_named_as_such():
    # A step need not be a multiplier, so its bad kind is no multiplier
    # mode; apply_times still words a bad mode as one.
    program = GateProgram((GateStep("PLUS", (0, 1)),))
    with pytest.raises(ProgramStepError) as exc:
        run_basis(program, (1, 2))
    assert str(exc.value) == "step 0 ('PLUS' (0, 1)): not a gate kind: 'PLUS'"
    assert exc.value.step_index == 0 and type(exc.value.cause) is ValueError
    with pytest.raises(ValueError, match=r"^not a multiplier mode: <GateKind.PLUS: 'PLUS'>$"):
        apply_times(basis_ket(1, 2), GateKind.PLUS)


@st.composite
def program_and_ket(draw):
    program, labels = draw(program_and_labels())
    # Up to 40 multiples of ``labels``, which share its zero labels and so
    # mostly pass or fail together, and up to 3 other components among
    # them, free or with the opposite zero labels, which often fail where
    # the multiples pass: the first failing component can lie deep in the ket.
    keys = [tuple(k * label for label in labels) for k in range(1, draw(st.integers(0, 40)) + 1)]
    other = st.one_of(
        st.tuples(*(st.just(0) if label else LABELS.filter(bool) for label in labels)),
        st.tuples(*(LABELS for _ in labels)),
    )
    for _ in range(draw(st.integers(0, 3))):
        keys.insert(draw(st.integers(0, len(keys))), draw(other))
    return program, Ket(len(labels), dict.fromkeys(keys, 0.5))


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(program_and_ket())
# The 31st of 40 components has a dirty ancilla, its neighbours a clean one.
@example((GateProgram((GateStep(GateKind.PLUS, (0, 1)), GateStep(GateKind.TIMES_REVERSIBLE, (0, 1, 2)))),
          Ket(3, {(k, 2 * k, int(k == 31)): 0.5 for k in range(1, 41)})))
def test_ket_route_is_the_basis_lane_per_component(case):
    # A ket runs each component as run_basis runs its labels, and fails
    # with the error of its first component, in the ket's order, that
    # fails; any ket, one with no components too, fails at a step with
    # bad roles before any step runs.
    program, ket = case
    out, error = _outcome(lambda: run_program(program, ket))
    if not ket:
        _, role_error = _outcome(lambda: gates._check_steps(ket.registers, program.steps))
        assert out == ket if role_error is None else str(error) == str(role_error)
        return
    lanes = [_outcome(lambda: run_basis(program, key)) for key, _ in ket.items()]
    failed = [lane_error for _, lane_error in lanes if lane_error is not None]
    if not failed:
        assert error is None
        assert list(out.items()) == [(lane, 0.5) for lane, _ in lanes]
        return
    assert error is not None
    assert error.step_index == failed[0].step_index
    assert str(error) == str(failed[0])


def _expected_labels(kind, roles, key):
    """A gate's action on one label tuple, written out as integer arithmetic."""
    new = list(key)
    if kind is GateKind.PLUS:
        s, t = roles
        new[t] = key[t] + key[s]
    elif kind is GateKind.MINUS:
        s, t = roles
        new[t] = key[t] - key[s]
    elif kind is GateKind.TIMES_STRICT:
        s, t = roles
        if key[s] == 0:
            raise GateDomainError(key, roles)
        new[t] = key[s] * key[t]
    else:
        a, b, c = roles
        if key[c] != 0:
            raise AncillaError(key, c)
        new[c] = key[a] * key[b]
    return tuple(new)


# Magnitudes on both sides of the pruning threshold, and ordinary ones.
EDGE = PRUNE_EPS_SQ**0.5
AMPLITUDES = st.builds(
    complex,
    st.one_of(st.floats(EDGE / 2, EDGE * 2), st.floats(-1.0, 1.0)),
    st.sampled_from([0.0, EDGE, -0.5]),
)


@st.composite
def gate_on_ket(draw):
    registers = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(list(GateKind)))
    roles = tuple(draw(st.permutations(range(registers)))[: ARITY[kind]])
    keys = draw(st.lists(
        st.lists(LABELS, min_size=registers, max_size=registers).map(tuple),
        min_size=0, max_size=8, unique=True,
    ))
    if kind is GateKind.TIMES_REVERSIBLE and len(roles) == 3 and draw(st.booleans()):
        # A clean result register, so the reversible multiplier can succeed.
        keys = list(dict.fromkeys(k[: roles[2]] + (0,) + k[roles[2] + 1:] for k in keys))
    amps = {key: draw(AMPLITUDES) for key in keys}
    return Ket(registers, amps), kind, roles


@settings(derandomize=True, max_examples=400, database=None, deadline=None)
@given(gate_on_ket())
def test_relabeled_ket_matches_public_constructor(case):
    ket, kind, roles = case
    if len(roles) < ARITY[kind]:
        with pytest.raises(ValueError, match="takes"):
            apply_gate(ket, kind, roles)
        return
    try:
        expected = Ket(ket.registers, {_expected_labels(kind, roles, k): a for k, a in ket.items()})
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            apply_gate(ket, kind, roles)
        assert got.value.component == exc.component
        assert str(got.value) == str(exc)
        return
    out = apply_gate(ket, kind, roles)
    assert out.registers == ket.registers
    assert list(out.items()) == list(expected.items())


def test_non_injective_label_map_raises(monkeypatch):
    # Gates never merge components; columns that would are refused, also
    # under python -O, and also on kets whose columns are memoized: an
    # input that ran a program and a program's result.  A result builds
    # its dict when first read, so the refusal comes there, from every
    # reader: no read ever returns merged components.
    def collapse(steps, cols):
        cols[:] = [(0,) * len(col) for col in cols]
        return True

    readers = (
        lambda k: list(k.items()),
        lambda k: k.amplitude((0, 0)),
        len,
        lambda k: k == basis_ket(0, 0),
        lambda k: basis_ket(0, 0) == k,
        lambda k: k.inner(basis_ket(0, 0)),
        lambda k: k.tensor(basis_ket(0)),
        lambda k: k.to_json(),
        lambda k: k.norm(),
    )
    state = superposition({(1, 2): 0.6, (3, 4): 0.8})
    out = apply_plus(state)
    assert state._cols is not None and out._cols is not None
    merged = []
    with monkeypatch.context() as patch:
        patch.setattr(gates, "_run_columns", collapse)
        for ket in (state, out, superposition({(1, 2): 0.6, (3, 4): 0.8})):
            before = list(ket.items())
            merged.append(apply_plus(ket))
            assert list(ket.items()) == before
    # Each gate sends equal labels to equal labels, so a program run on a
    # colliding result, by the real column pass, collides too.
    merged.append(apply_plus(merged[0]))
    merged.append(run_program(GateProgram((GateStep(GateKind.MINUS, (1, 0)),)), merged[1]))
    for ket in merged:
        for read in readers:
            with pytest.raises(RuntimeError, match="^label map sent 2 components to 1 labels$"):
                read(ket)
        # a refused read keeps nothing, so the next one is refused too
        assert ket._dict is None
    assert list(state.items()) == [((1, 2), 0.6), ((3, 4), 0.8)]
    assert list(out.items()) == [((1, 3), 0.6), ((3, 7), 0.8)]


def test_column_pass_failing_where_no_component_does_raises(monkeypatch):
    # A column pass fails only where some component's label map fails,
    # which then raises; were they ever to disagree, no ket is returned.
    monkeypatch.setattr(gates, "_run_columns", lambda steps, cols: False)
    with pytest.raises(RuntimeError, match="label map succeeds"):
        apply_plus(superposition({(1, 2): 0.6, (3, 4): 0.8}))


def test_gate_leaves_input_ket_untouched():
    state = superposition({(1, 2): 0.6, (3, 4): 0.8j})
    before = list(state.items())
    out = apply_plus(state)
    assert list(state.items()) == before
    assert list(out.items()) == [((1, 3), 0.6), ((3, 7), 0.8j)]
    assert out._amps is not state._amps
    # A ket built by __init__ and a program's result, which carries the
    # columns its pass built: a program changes neither its components nor
    # its columns, so a second run gives the same result.
    for ket in (state, out):
        before = list(ket.items())
        first = apply_plus(ket)
        assert list(ket.items()) == before
        assert ket._columns() == list(zip(*(key for key, _ in before)))
        assert list(apply_plus(ket).items()) == list(first.items())


def test_iterate_plus_transposes_once(monkeypatch):
    # Each adder pass hands its columns to its result, so twenty passes
    # transpose the input's labels once.
    transposed = []
    columns = Ket._columns

    def spy(self):
        if self._cols is None:
            transposed.append(self)
        return columns(self)

    monkeypatch.setattr(Ket, "_columns", spy)
    state = superposition({(1, 2): 0.6, (3, 4): 0.8})
    out = iterate_plus(state, 20)
    assert len(transposed) == 1 and transposed[0] is state
    assert list(out.items()) == [((1, 22), 0.6), ((3, 64), 0.8)]


# wide_kets' chain: (a, b, 0) -> (2a+b, a+b, 0) -> (a, b, 0) -> (a, b, ab)
_FORWARD = GateProgram((GateStep(GateKind.PLUS, (0, 1)), GateStep(GateKind.PLUS, (1, 0))))
_INVERSE = GateProgram((GateStep(GateKind.MINUS, (1, 0)), GateStep(GateKind.MINUS, (0, 1))))
_TIMES = GateProgram((GateStep(GateKind.TIMES_REVERSIBLE, (0, 1, 2)),))


def test_program_chain_builds_one_dict_when_read(monkeypatch):
    # A result holds columns and amplitudes; only a read builds its dict.
    # So a chain of three programs builds one, for the final ket, when
    # that ket is read, and none for the kets in between.
    built = []
    amps = Ket.__dict__["_amps"]

    def spy(self):
        if self._dict is None:
            built.append(self)
        return amps.fget(self)

    monkeypatch.setattr(Ket, "_amps", property(spy))
    state = Ket(3, {(1, 2, 0): 0.6, (-3, 4, 0): 0.8})
    a = run_program(_FORWARD, state)
    b = run_program(_INVERSE, a)
    c = run_program(_TIMES, b)
    assert built == []
    assert list(c.items()) == [((1, 2, 2), 0.6), ((-3, 4, -12), 0.8)]
    assert len(built) == 1 and built[0] is c
    assert len(c) == 2 and c.norm() == pytest.approx(1.0)
    assert len(built) == 1


@pytest.mark.parametrize("copy_of", [lambda k: pickle.loads(pickle.dumps(k)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_program_result_copies_before_and_after_its_first_read(copy_of):
    state = superposition({(1, 2, 0): 0.6, (-3, 4, 0): 0.8j})
    want = [((1, 2, 2), 0.6), ((-3, 4, -12), 0.8j)]
    out = run_program(_TIMES, run_program(_INVERSE, run_program(_FORWARD, state)))
    unread = copy_of(out)
    assert unread._dict is None and out._dict is None
    assert list(unread.items()) == want
    assert unread == out
    read = copy_of(out)
    assert read._dict is not None
    assert list(read.items()) == want and read == out
    # a copy runs programs as the original does
    assert run_program(_FORWARD, unread) == run_program(_FORWARD, out)


@st.composite
def program_chain(draw):
    """A ket and 2 to 4 programs with valid roles to run on it in turn."""
    registers = draw(st.integers(2, 4))
    keys = draw(st.lists(st.tuples(*[LABELS] * registers), max_size=12, unique=True))
    ket = Ket(registers, {key: draw(AMPLITUDES) for key in keys})
    # Mostly the adder and subtractor, which never fail, so chains run long.
    kinds = [GateKind.PLUS, GateKind.MINUS] * 3 + [
        kind for kind in (GateKind.TIMES_STRICT, GateKind.TIMES_REVERSIBLE) if ARITY[kind] <= registers
    ]
    chain = []
    for _ in range(draw(st.integers(2, 4))):
        steps = []
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(kinds))
            steps.append(GateStep(kind, tuple(draw(st.permutations(range(registers)))[: ARITY[kind]])))
        chain.append(GateProgram(tuple(steps)))
    return ket, chain


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(program_chain())
def test_chained_programs_match_fresh_kets(case):
    # Each result carries its columns into the next program; a fresh copy
    # of the same components transposes its own.  Both routes give the
    # same components in the same order, and the same error.
    ket, chain = case
    for program in chain:
        fresh = Ket(ket.registers, dict(ket.items()))
        want, want_error = _outcome(lambda: run_program(program, fresh))
        out, error = _outcome(lambda: run_program(program, ket))
        if want_error is not None:
            assert error is not None and str(error) == str(want_error)
            return
        assert error is None
        assert list(out.items()) == list(want.items())
        # The input's columns and the result's are their labels, one
        # register at a time, in tuples, which no ket sharing them can
        # write into.
        for k in (ket, out):
            labels = [key for key, _ in k.items()]
            assert all(type(col) is tuple for col in k._cols)
            assert k._columns() == (list(zip(*labels)) or [()] * k.registers)
        ket = out

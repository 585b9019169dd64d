"""Dynamics tests against an independent matrix-exponential oracle.

The closed-form propagator is cross-checked with scipy's expm applied
to the same pulse Hamiltonian, so the spectral shortcut never gets to
grade its own work.  The tests build their own dense matrices: the
oracle's G comes from its spectral definition F diag(theta) F^H,
independent of the generator column that RK4 integrates.
"""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from qarith import dynamics
from qarith.dynamics import (
    GATE_TIME,
    MAX_SAMPLES,
    MAX_STEP_PHASE,
    TRACE_BLOCK,
    WindowError,
    build_model,
    closed_form_stopping_time,
    detect_stopping_time,
    evolve_exact,
    evolve_numeric,
    subsystem_evolve,
    superadditivity_table,
)
from qarith.states import PRUNE_EPS_SQ, Ket


def dense_ring(model, state, n):
    """Ring-register amplitudes of a pair state as a dense vector."""
    vec = np.zeros(model.dim, dtype=complex)
    for (first, label), amp in state.items():
        assert first == n
        vec[model.ring_index(label)] = amp
    return vec


def fourier(model):
    """F: columns are the plane waves over the ring labels, G's eigenvectors."""
    x = model.ring_labels
    return np.exp(2j * np.pi * (np.outer(x, x) % model.dim) / model.dim) / math.sqrt(model.dim)


def spectral_generator(model):
    """The shift generator from its definition G = F diag(theta) F^H."""
    f = fourier(model)
    return (f * model.shift_eigenphases) @ f.conj().T


def circulant(column):
    """The circulant matrix C[x, y] = column[(x - y) mod D]."""
    index = np.arange(len(column))
    return column[np.subtract.outer(index, index) % len(column)]


def oracle_ring(model, n, m, t):
    """Matrix-exponential propagation of the pulse; nothing acts after it."""
    psi = np.zeros(model.dim, dtype=complex)
    psi[model.ring_index(m)] = 1.0
    return expm(-1j * min(t, GATE_TIME) * (n * spectral_generator(model))) @ psi


def test_model_validation():
    with pytest.raises(ValueError):
        build_model(6)
    with pytest.raises(ValueError):
        build_model(15)
    build_model(8)  # smallest legal ring


def test_generator_spectrum_and_structure():
    model = build_model(16)
    expected = {2.0 * math.pi * k / 16 for k in range(-7, 9)}
    actual = {round(float(v), 12) for v in model.shift_eigenphases}
    assert actual == {round(v, 12) for v in expected}
    g = spectral_generator(model)
    assert np.max(np.abs(g - g.conj().T)) <= 1e-12
    f = fourier(model)
    assert np.max(np.abs(f @ f.conj().T - np.eye(16))) <= 1e-12
    # The spectral definition F diag(theta) F^H is the circulant of the
    # generator column that RK4 integrates.
    for dim in (16, 256, 1024):
        model = build_model(dim)
        spectral = spectral_generator(model)
        assert np.max(np.abs(spectral - circulant(model.generator_column))) <= 1e-12


def test_unit_pulse_is_unit_shift():
    model = build_model(16)
    f = fourier(model)
    step = f @ np.diag(np.exp(-1j * model.shift_eigenphases)) @ f.conj().T
    perm = np.zeros((16, 16))
    for idx in range(16):
        perm[model.ring_index(model.ring_labels[idx] + 1), idx] = 1.0
    assert np.max(np.abs(step - perm)) <= 1e-12


def test_evolve_exact_t0_is_identity():
    model = build_model(32)
    state = evolve_exact(model, 2, 3, 0.0)
    assert abs(state.amplitude((2, 3)) - 1.0) <= 1e-12
    assert abs(state.norm() - 1.0) <= 1e-12


def test_full_pulse_lands_on_sum():
    model = build_model(16)
    state = evolve_exact(model, 2, 3, 1.0)
    assert abs(state.amplitude((2, 5))) ** 2 == pytest.approx(1.0, abs=1e-9)
    # leakage to every other label is bookkeeping noise only
    off = state.norm_sq() - abs(state.amplitude((2, 5))) ** 2
    assert off <= 1e-9


def test_half_pulse_gives_exact_half_shift():
    # n*t = 1 at t = 0.5: a whole shift, so the state is a basis ket again.
    model = build_model(32)
    state = evolve_exact(model, 2, 3, 0.5)
    assert abs(state.amplitude((2, 4))) ** 2 == pytest.approx(1.0, abs=1e-12)
    # fidelity with the full target n+m is exactly zero at this instant
    assert abs(state.amplitude((2, 5))) ** 2 <= 1e-24


def test_fractional_shift_spreads():
    model = build_model(32)
    state = evolve_exact(model, 2, 3, 0.25)
    fid = abs(state.amplitude((2, 5))) ** 2
    assert 0.0 < fid < 1.0
    assert len(state) > 1


def test_zero_control_label_freezes_ring():
    model = build_model(32)
    for t in (0.3, 1.0, 1.5):
        state = evolve_exact(model, 0, 4, t)
        assert abs(state.amplitude((0, 4)) - 1.0) <= 1e-12


def test_state_frozen_after_pulse():
    model = build_model(32)
    a = evolve_exact(model, 3, -2, 1.0)
    b = evolve_exact(model, 3, -2, 1.45)
    assert a.distance(b) <= 1e-12


@pytest.mark.parametrize(
    "n,m,t",
    [
        (2, 3, 0.37),
        (2, 3, 1.0),
        (-4, 1, 0.61),
        (7, -3, 0.25),
        (1, 0, 1.3),
        (-9, 2, 0.83),
        (15, 0, 1.0),
    ],
)
def test_exact_matches_expm_oracle(n, m, t):
    model = build_model(32)
    state = evolve_exact(model, n, m, t)
    got = dense_ring(model, state, n)
    want = oracle_ring(model, n, m, t)
    assert np.linalg.norm(got - want) <= 1e-12


@pytest.mark.parametrize(
    "t",
    [
        # shifts s = -20 t: -10 stays inside the window, -20 and -26
        # carry |3> across the ring's seam
        0.5,
        1.0,
        1.3,
        # a shift too small to resolve: the kernel stays flat at 1
        5e-324,
    ],
    ids=["wrap-0.5", "wrap-1.0", "wrap-1.3", "tiny-t"],
)
def test_closed_form_edge_cases_match_expm_oracle(t):
    model = build_model(32)
    if t < 1e-300:
        got = dense_ring(model, evolve_exact(model, 2, 3, t), 2)
        want = oracle_ring(model, 2, 3, t)
    else:
        # No pair in the window shifts past the seam, but the kernel must.
        shift = -20 * t
        got = dynamics._dirichlet_rows(model, 3, np.array([shift]))[0]
        start = np.zeros(model.dim, dtype=complex)
        start[model.ring_index(3)] = 1.0
        want = expm(-1j * shift * spectral_generator(model)) @ start
    assert abs(np.linalg.norm(got) - 1.0) <= 1e-12
    assert np.linalg.norm(got - want) <= 1e-12


def reference_kernel(model, m, shifts):
    """The ring kernel of |m> moved by each shift, one np.sin per label.

    Returns the real ratio sin(pi d) / (D sin(pi d / D)) and the
    amplitudes e^{i pi d / D} times it, at d = k - f for the offset
    k = x - q from the landing label q of the whole part of the shift and
    its fraction f.  The numerator is -(-1)^k sin(pi f), exact at integer
    shifts.  The denominator takes its sine at d - D or d + D when
    |k| > D/2, which only flips its sign, so that the angle stays near
    [-pi/2, pi/2]: near +-pi its own rounding would cost up to 1.2e-13
    at D = 1024.
    """
    dim, half = model.dim, model.half
    whole = np.rint(shifts)
    frac = shifts - whole
    landing = np.mod(m + whole + (half - 1), dim) - (half - 1)
    offset = model.ring_labels - landing[:, None]
    wrap = np.where(offset > half, dim, np.where(offset < -half, -dim, 0))
    d = offset - frac[:, None]
    numerator = -(1.0 - 2.0 * (offset % 2)) * np.sin(np.pi * frac)[:, None]
    denominator = dim * np.sin(np.pi * ((offset - wrap) - frac[:, None]) / dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(wrap == 0, 1.0, -1.0) * numerator / denominator
    ratio[np.abs(d) < dynamics._KERNEL_FLAT] = 1.0
    return ratio, ratio * np.exp(1j * np.pi * d / dim)


@pytest.mark.parametrize("dim", [8, 32, 256, 1024])
def test_kernel_matches_per_label_sines(dim):
    # Integer shifts, half-integer shifts (|f| = 1/2), shifts within
    # _KERNEL_FLAT of an integer, and shifts past +-D that wrap the ring.
    model = build_model(dim)
    whole = np.unique(np.r_[np.arange(-6.0, 7.0), np.linspace(-dim - 2, dim + 2, 41).round()])
    tiny = 0.5 * dynamics._KERNEL_FLAT
    shifts = np.concatenate([whole, whole + 0.5, whole - 0.5, whole + tiny, whole - tiny,
                             [2.5 * dim + 0.25, -3 * dim - 0.375]])
    for m in sorted({1 - model.half, -3, 0, 2, model.half}):
        ratio, rows = reference_kernel(model, m, shifts)
        assert np.max(np.abs(dynamics._dirichlet_ratio(model, m, shifts)[0] - ratio)) <= 1e-14
        assert np.max(np.abs(dynamics._dirichlet_rows(model, m, shifts) - rows)) <= 1e-14


def test_window_guard():
    model = build_model(32)
    with pytest.raises(WindowError):
        evolve_exact(model, 8, 8, 0.5)
    with pytest.raises(WindowError):
        evolve_numeric(model, 20, 20, 0.5)
    with pytest.raises(WindowError):
        detect_stopping_time(model, -10, 6, 1e-3, 1.2)
    evolve_exact(model, 8, 7, 0.5)  # |8|+|7| = 15 < 16 is allowed


def test_time_validation():
    model = build_model(32)
    with pytest.raises(ValueError):
        evolve_exact(model, 2, 3, -0.1)
    with pytest.raises(ValueError):
        evolve_exact(model, 2, 3, math.inf)


NOT_A_LABEL = "register label must be an integer, got "
NOT_A_TIME = "time must be a number, got "


# Each route once accepted these or failed past its checks: a float or
# bool label moved the ring by the wrong amount, a float control label
# indexed past the ring, and a time given as text was parsed.
@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda model: evolve_exact(model, 2, 3.5, 1.0), NOT_A_LABEL, id="float-m"),
        pytest.param(lambda model: subsystem_evolve(model, True, 3, 1.0), NOT_A_LABEL, id="bool-n"),
        pytest.param(
            lambda model: detect_stopping_time(model, 2.5, 3, 1e-3, 1.5), NOT_A_LABEL, id="float-n"
        ),
        pytest.param(
            lambda model: detect_stopping_time(model, np.int64(2), 3, 1e-3, 1.5),
            NOT_A_LABEL,
            id="numpy-n",
        ),
        pytest.param(lambda model: evolve_numeric(model, 2, 3.0, 1.0), NOT_A_LABEL, id="float-rk4"),
        pytest.param(
            lambda model: closed_form_stopping_time(model, 2.0, 1e-3, 1.5),
            NOT_A_LABEL,
            id="float-closed",
        ),
        pytest.param(lambda model: evolve_exact(model, 2, 3, "0.5"), NOT_A_TIME, id="text-time"),
    ],
)
def test_routes_reject_non_integer_labels_and_non_number_times(call, message):
    with pytest.raises(ValueError, match=f"^{message}") as info:
        call(build_model(32))
    assert not isinstance(info.value, WindowError)


def test_numeric_dt_validation():
    model = build_model(32)
    with pytest.raises(ValueError):
        evolve_numeric(model, 2, 3, 1.0, 0.02)
    with pytest.raises(ValueError):
        evolve_numeric(model, 2, 3, 1.0, 0.0)
    with pytest.raises(ValueError):
        evolve_numeric(model, 2, 3, 1.0, -0.001)


@pytest.mark.parametrize("n,m", [(2, 3), (-4, 1), (15, 0), (-15, 0), (1, 14)])
def test_numeric_matches_exact(n, m):
    model = build_model(32)
    for t in (0.5, 1.0, 1.4):
        approx = evolve_numeric(model, n, m, t, 0.005)
        exact = evolve_exact(model, n, m, t)
        assert approx.distance(exact) <= 1e-6
        assert abs(approx.norm() - 1.0) <= 1e-6


def rk4_step(n, t, dt):
    """evolve_numeric's RK4 step count and step length for the pulse of n."""
    rate = abs(n) * math.pi
    max_step = dt if rate <= 0.0 else min(dt, MAX_STEP_PHASE / rate)
    duration = min(t, GATE_TIME)
    steps = max(1, math.ceil(duration / max_step))
    return steps, duration / steps


def reference_rk4(model, n, m, t, dt):
    """evolve_numeric's RK4 of the pulse as an explicit loop of k1..k4 steps."""
    h_matrix = n * circulant(model.generator_column)
    steps, h = rk4_step(n, t, dt)

    def deriv(v):
        return -1j * (h_matrix @ v)

    psi = np.zeros(model.dim, dtype=complex)
    psi[model.ring_index(m)] = 1.0
    for _ in range(steps):
        k1 = deriv(psi)
        k2 = deriv(psi + 0.5 * h * k1)
        k3 = deriv(psi + 0.5 * h * k2)
        k4 = deriv(psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


# The IDs keep their earlier form, "-False" included, so that results
# recorded under them line up across versions.
STEP_LOOP_CASES = [
    (2, 3, 0.5),
    (-4, 1, 1.0),
    (15, 0, 0.7),
    (1, 14, 1.0),
    (-9, -6, 1.4),  # t > 1: the state is frozen after the pulse
]


@pytest.mark.parametrize(
    "n,m,t", STEP_LOOP_CASES, ids=[f"32-{n}-{m}-{t}-False" for n, m, t in STEP_LOOP_CASES]
)
def test_numeric_matches_reference_step_loop(n, m, t):
    model = build_model(32)
    got = dense_ring(model, evolve_numeric(model, n, m, t, 0.005), n)
    want = reference_rk4(model, n, m, t, 0.005)
    assert np.max(np.abs(got - want)) <= 1e-12


def spy_powers(monkeypatch):
    """The exponents evolve_numeric raises its RK4 step columns to, in order."""
    powers = []
    real = dynamics._column_power

    def spy(column, exponent):
        powers.append(exponent)
        return real(column, exponent)

    monkeypatch.setattr(dynamics, "_column_power", spy)
    return powers


def test_numeric_step_count(monkeypatch):
    # One power of the pulse's step column per call, also past the pulse.
    # Its exponent comes from MAX_STEP_PHASE and dt: the pulses of n = 15
    # and -7 are limited by their phase rate |n| pi, the pulse of n = 1 by dt.
    model = build_model(32)
    powers = spy_powers(monkeypatch)
    for n, m, t, dt, steps in [
        (15, 0, 1.4, 0.005, math.ceil(1.0 / (MAX_STEP_PHASE / (15 * math.pi)))),
        (-7, 4, 0.6, 0.01, math.ceil(0.6 / (MAX_STEP_PHASE / (7 * math.pi)))),
        (1, 3, 0.3, 0.005, 60),
    ]:
        powers.clear()
        evolve_numeric(model, n, m, t, dt)
        assert powers == [steps]


def test_frozen_free_segment_skipped_exactly(monkeypatch):
    # Nothing acts after the pulse, so RK4 past it would multiply by the
    # identity; integrating the pulse alone must leave the very same
    # amplitudes.
    model = build_model(64)
    pulses = []
    real = dynamics._rk4_column

    def spy(h_column, duration, max_step):
        pulses.append(real(h_column, duration, max_step))
        return pulses[-1]

    monkeypatch.setattr(dynamics, "_rk4_column", spy)
    got = evolve_numeric(model, 2, 3, 1.4, 0.005)
    assert len(pulses) == 1
    frozen = dynamics._cyclic_convolve(real(np.zeros(model.dim), 0.4, 0.005), pulses[0])
    psi = np.roll(frozen, model.ring_index(3))
    assert list(got.items()) == list(dynamics._ring_ket(model, psi, (2,)).items())
    assert list(got.items()) == list(evolve_numeric(model, 2, 3, 1.0, 0.005).items())


def test_subsystem_consistency_example():
    model = build_model(32)
    pair = evolve_exact(model, 3, 1, 0.7)
    collapsed = Ket(1, {(label,): amp for (_, label), amp in pair.items()})
    sub = subsystem_evolve(model, 3, 1, 0.7)
    assert collapsed.distance(sub) <= 1e-9


# A quarter of one D x D complex array at D = 1024, so a D x D temporary
# of any 8-byte type exceeds it too.
ROUTE_PEAK_BYTES = 4 * 2**20

# Every library route on a fresh model of the largest ring, caches cold.
DENSE_FREE_ROUTES = {
    "evolve_exact": lambda model: evolve_exact(model, 7, -5, 0.4),
    "subsystem_evolve": lambda model: subsystem_evolve(model, 7, -5, 0.4),
    "detect_stopping_time": lambda model: detect_stopping_time(model, 7, -5, 1e-3, 1.5, 4000),
    # RK4 works on first columns
    "evolve_numeric": lambda model: evolve_numeric(model, model.half - 1, 0, 1.0),
    "closed_form_stopping_time": lambda model: closed_form_stopping_time(model, 7, 1e-3, 1.5),
    "superadditivity_table": superadditivity_table,
}


def test_default_route_builds_no_dense_matrix():
    for name, route in DENSE_FREE_ROUTES.items():
        tracemalloc.start()
        try:
            route(build_model(1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ROUTE_PEAK_BYTES, (name, peak)


def dense_rk4_power(model, n, m, t, dt):
    """evolve_numeric's RK4 as one dense power of the Horner step matrix."""
    steps, h = rk4_step(n, t, dt)
    a = (-1j * h) * (n * circulant(model.generator_column))
    eye = np.eye(model.dim)
    step = eye + a / 4.0
    for k in (3.0, 2.0, 1.0):
        step = eye + (a / k) @ step
    psi = np.zeros(model.dim, dtype=complex)
    psi[model.ring_index(m)] = 1.0
    return np.linalg.matrix_power(step, steps) @ psi


@pytest.mark.parametrize("dim", [8, 64, 256])
def test_column_rk4_matches_dense_step_power(dim):
    model = build_model(dim)
    half = dim // 2
    for n, m, t in [(half - 1, 0, 1.0), (-(half - 1), 0, 0.6), (1, half - 2, 1.0), (2, -1, 0.3)]:
        got = dense_ring(model, evolve_numeric(model, n, m, t, 0.005), n)
        want = dense_rk4_power(model, n, m, t, 0.005)
        assert np.max(np.abs(got - want)) <= 1e-11


@pytest.mark.parametrize("dim", [256, 1024])
def test_numeric_matches_exact_at_window_edges(dim):
    model = build_model(dim)
    half = dim // 2
    for n, m in [(half - 1, 0), (-(half - 1), 0), (1, half - 2)]:
        for t in (0.3, 1.0):
            approx = evolve_numeric(model, n, m, t, 0.005)
            assert approx.distance(evolve_exact(model, n, m, t)) <= 1e-6


@pytest.mark.parametrize("dim", [8, 32, 256, 1024], ids="default-{}".format)
def test_trace_fidelity_matches_point_evolution(dim):
    n, m = dim // 4 - 1, 1
    model = build_model(dim)
    trace = detect_stopping_time(model, n, m, 1e-3, 1.5, 200)
    # at D = 1024 the 134 grid rows up to t = 1 span more than one row block
    assert dim < 1024 or TRACE_BLOCK // dim < 134
    for t, fid in zip(trace.times, trace.fidelity):
        want = abs(evolve_exact(model, n, m, t).amplitude((n, n + m))) ** 2
        assert abs(fid - want) <= 1e-12, t


def test_trace_matches_expm_oracle():
    model = build_model(16)
    trace = detect_stopping_time(model, 2, 3, 1e-3, 1.6, 40)
    tidx = model.ring_index(5)
    for t, fid, leak in zip(trace.times, trace.fidelity, trace.leakage):
        probs = np.abs(oracle_ring(model, 2, 3, t)) ** 2
        assert abs(fid - probs[tidx]) <= 1e-12, t
        assert abs(leak - (probs.sum() - probs[tidx])) <= 1e-12, t


# A grid that ends before the pulse does, two with a sample exactly at
# t = 1, and the CLI default.
TRACE_GRIDS = [(0.8, 50), (2.0, 3), (2.0, 201), (1.5, 200)]


@pytest.mark.parametrize("dim", [8, 32, 256, 1024], ids="default-{}".format)
def test_trace_matches_every_sample_reference(dim):
    # The reference squares the propagator's complex rows at every sample,
    # past the pulse too; the trace squares real ratios and reuses the
    # pulse-end row.
    n, m, epsilon = dim // 4 - 1, 1, 1e-3
    model = build_model(dim)
    tidx = model.ring_index(n + m)
    for t_max, samples in TRACE_GRIDS:
        times = np.linspace(0.0, t_max, samples)
        rows = dynamics._dirichlet_rows(model, m, n * np.minimum(times, GATE_TIME))
        probs = rows.real ** 2 + rows.imag ** 2
        fidelity = probs[:, tidx].copy()
        leakage = probs.sum(axis=1) - fidelity
        probs[:, tidx] = 0.0
        off_peak = probs.max(axis=1)
        below = np.flatnonzero(fidelity < 1.0 - epsilon)
        start = int(below[-1]) + 1 if below.size else 0

        trace = detect_stopping_time(model, n, m, epsilon, t_max, samples)
        assert trace.times == tuple(times.tolist())
        assert np.max(np.abs(np.array(trace.fidelity) - fidelity)) <= 1e-14
        assert np.max(np.abs(np.array(trace.leakage) - leakage)) <= 1e-14
        if start < samples:
            assert trace.stopping_time == times[start]
            assert abs(trace.off_peak_past_stop - off_peak[start:].max()) <= 1e-14
        else:
            assert trace.stopping_time is None and trace.off_peak_past_stop is None
        # every sample after the pulse is the pulse-end sample, exactly
        end = int(np.searchsorted(times, GATE_TIME))
        if end < samples:
            assert set(trace.fidelity[end:]) == {trace.fidelity[end]}
            assert set(trace.leakage[end:]) == {trace.leakage[end]}


def loop_ring_ket(model, vec, control):
    """Reference ring ket, built one component at a time."""
    amps = {
        control + (int(model.ring_labels[idx]),): complex(amp)
        for idx, amp in enumerate(vec)
        if abs(amp) ** 2 >= PRUNE_EPS_SQ
    }
    return Ket(len(control) + 1, amps)


def item_bits(ket):
    return [(key, amp.real.hex(), amp.imag.hex()) for key, amp in ket.items()]


@pytest.mark.parametrize("dim", [8, 64, 1024])
def test_ring_ket_matches_component_loop(dim):
    n, m = dim // 4 - 1, 1
    model = build_model(dim)
    # t = 0 and 1 shift by whole labels (n is odd), 0.5 and 0.37 do not
    for t in (0.0, 0.37, 0.5, 1.0, 1.3):
        vec = dynamics._propagate(model, n, m, t)
        for control in ((), (n,)):
            got = dynamics._ring_ket(model, vec, control)
            assert item_bits(got) == item_bits(loop_ring_ket(model, vec, control))


@pytest.mark.parametrize("dim", [8, 32, 512])
@pytest.mark.parametrize("epsilon", [1e-3, 0.01, 0.3])
def test_closed_form_stopping_time_matches_traces(dim, epsilon):
    model = build_model(dim)
    for n in range(-min(6, dim // 2 - 1), min(6, dim // 2 - 1) + 1):
        want = closed_form_stopping_time(model, n, epsilon, 3.0, 200)
        for m in {0, dim // 2 - 1 - abs(n)}:
            assert detect_stopping_time(model, n, m, epsilon, 3.0, 200).stopping_time == want
        if n == 0:
            assert want == 0.0
        else:
            assert 1.0 - 1.0 / abs(n) < want <= 1.0 + 3.0 / 199


def test_closed_form_stopping_time_edges():
    model = build_model(32)
    # the grid can end before the crossing
    assert closed_form_stopping_time(model, 3, 1e-3, 0.9, 50) is None
    assert detect_stopping_time(model, 3, 0, 1e-3, 0.9, 50).stopping_time is None
    with pytest.raises(WindowError):
        closed_form_stopping_time(model, 16, 1e-3, 1.5)
    with pytest.raises(ValueError):
        closed_form_stopping_time(model, 3, 0.5, 1.5)


def test_stopping_time_near_unit():
    model = build_model(32)
    trace = detect_stopping_time(model, 2, 3, 1e-3, 1.2, 200)
    grid = 1.2 / 199
    assert trace.stopping_time is not None
    assert abs(trace.stopping_time - 1.0) <= grid
    assert trace.target == 5


def test_stopping_time_sustained_rule():
    model = build_model(32)
    trace = detect_stopping_time(model, 2, 3, 1e-3, 1.5, 200)
    threshold = 1.0 - 1e-3
    start = trace.times.index(trace.stopping_time)
    assert all(f >= threshold for f in trace.fidelity[start:])
    assert trace.fidelity[start - 1] < threshold


def test_stopping_time_zero_control():
    model = build_model(32)
    trace = detect_stopping_time(model, 0, 4, 1e-3, 1.0, 50)
    assert trace.stopping_time == 0.0


def test_looser_epsilon_stops_earlier():
    model = build_model(32)
    tight = detect_stopping_time(model, 2, 3, 1e-3, 1.2, 200)
    loose = detect_stopping_time(model, 2, 3, 0.49, 1.2, 200)
    assert loose.stopping_time <= tight.stopping_time


def test_trace_bookkeeping_invariant():
    model = build_model(32)
    trace = detect_stopping_time(model, 2, 3, 1e-3, 1.5, 200)
    # probability buckets never exceed the whole
    start = trace.times.index(trace.stopping_time)
    initial_idx = model.ring_index(3)
    for i, t in enumerate(trace.times):
        vec = np.abs(dense_ring(model, evolve_exact(model, 2, 3, t), 2)) ** 2
        buckets = {model.ring_index(trace.target), initial_idx}
        total = sum(vec[b] for b in buckets) + (vec.sum() - sum(vec[b] for b in buckets))
        assert total <= 1.0 + 1e-9
        if i >= start:
            assert vec.sum() - vec[model.ring_index(trace.target)] <= trace.epsilon


def test_off_peak_past_stop():
    model = build_model(32)
    trace = detect_stopping_time(model, 4, -1, 1e-3, 1.5, 200)
    assert trace.off_peak_past_stop is not None
    assert trace.off_peak_past_stop <= 1e-3


def test_detect_validation():
    model = build_model(32)
    with pytest.raises(ValueError):
        detect_stopping_time(model, 2, 3, 0.6, 1.0)
    with pytest.raises(ValueError):
        detect_stopping_time(model, 2, 3, 0.0, 1.0)
    with pytest.raises(ValueError):
        detect_stopping_time(model, 2, 3, 1e-3, 0.0)
    with pytest.raises(ValueError):
        detect_stopping_time(model, 2, 3, 1e-3, 1.0, samples=1)
    for samples in (True, 200.0, MAX_SAMPLES + 1):
        with pytest.raises(ValueError):
            detect_stopping_time(model, 2, 3, 1e-3, 1.0, samples=samples)


def test_trace_csv_format():
    model = build_model(32)
    trace = detect_stopping_time(model, 2, 3, 1e-3, 1.2, 40)
    text = trace.to_csv()
    lines = text.splitlines()
    assert lines[0] == "t,fidelity,leakage"
    assert len(lines) == 41
    cell = re.compile(r"-?\d+(\.\d+)?([eE][+-]?\d+)?$")
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 3
        for part in parts:
            assert cell.match(part), part
            # 12 significant digits means no absurdly long mantissas
            digits = re.sub(r"[^0-9]", "", part.split("e")[0].split("E")[0])
            assert len(digits.lstrip("0")) <= 12


def test_sidecar_fields():
    model = build_model(32)
    trace = detect_stopping_time(model, 2, 3, 1e-3, 1.2, 100)
    doc = json.loads(json.dumps(trace.sidecar_dict(32)))
    assert doc["n"] == 2 and doc["m"] == 3 and doc["D"] == 32
    assert doc["epsilon"] == 1e-3
    assert doc["T"] == trace.stopping_time


def test_superadditivity_holds_on_grid():
    model = build_model(32)
    rows = superadditivity_table(model, n_max=4, epsilon=1e-3, t_max=4.0, samples=200)
    assert rows, "expected a non-empty table"
    for row in rows:
        assert row.satisfied, (row.n, row.k, row.m)
        assert abs(row.k) < abs(row.n)
        assert abs(row.n - row.k) < abs(row.n)

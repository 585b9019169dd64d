"""Dynamics tests against an independent matrix-exponential oracle.

The closed-form propagator is cross-checked with scipy's expm applied
to the same Hamiltonian segments, so the spectral shortcut never gets
to grade its own work.
"""

import json
import math
import re

import numpy as np
import pytest
from scipy.linalg import expm

from qarith.dynamics import (
    GATE_TIME,
    MAX_SAMPLES,
    TRACE_BLOCK,
    HamiltonianModel,
    WindowError,
    build_model,
    detect_stopping_time,
    evolve_exact,
    evolve_numeric,
    subsystem_evolve,
    superadditivity_table,
)
from qarith.states import Ket


def dense_ring(model, state, n):
    """Ring-register amplitudes of a pair state as a dense vector."""
    vec = np.zeros(model.dim, dtype=complex)
    for (first, label), amp in state.items():
        assert first == n
        vec[model.ring_index(label)] = amp
    return vec


def oracle_ring(model, n, m, t):
    """Matrix-exponential propagation of the same pulse-then-free split."""
    psi = np.zeros(model.dim, dtype=complex)
    psi[model.ring_index(m)] = 1.0
    c = model.coupling_value(n)
    h_on = np.diag(model.ring_energies) + c * model.shift_generator
    t_on = min(t, GATE_TIME)
    psi = expm(-1j * t_on * h_on / model.hbar) @ psi
    if t > GATE_TIME:
        h_free = np.diag(model.ring_energies).astype(complex)
        psi = expm(-1j * (t - GATE_TIME) * h_free / model.hbar) @ psi
    return np.exp(-1j * t * model.energy_a_value(n) / model.hbar) * psi


def test_model_validation():
    with pytest.raises(ValueError):
        build_model(6)
    with pytest.raises(ValueError):
        build_model(15)
    with pytest.raises(ValueError):
        HamiltonianModel(dim=32, hbar=0.0)
    with pytest.raises(ValueError):
        HamiltonianModel(dim=32, coupling={1: 2.0})  # collides with label 2
    build_model(8)  # smallest legal ring


def test_generator_spectrum_and_structure():
    model = build_model(16)
    expected = {2.0 * math.pi * k / 16 for k in range(-7, 9)}
    actual = {round(float(v), 12) for v in model.shift_eigenphases}
    assert actual == {round(v, 12) for v in expected}
    g = model.shift_generator
    assert np.max(np.abs(g - g.conj().T)) <= 1e-12
    f = model.fourier_matrix
    assert np.max(np.abs(f @ f.conj().T - np.eye(16))) <= 1e-12


def test_unit_pulse_is_unit_shift():
    model = build_model(16)
    f = model.fourier_matrix
    step = f @ np.diag(np.exp(-1j * model.shift_eigenphases)) @ f.conj().T
    perm = np.zeros((16, 16))
    for idx in range(16):
        perm[model.ring_index(model.label_at(idx) + 1), idx] = 1.0
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


def test_exact_matches_expm_oracle_with_free_terms():
    model = build_model(
        16,
        energy_a={2: 0.7},
        energy_b={0: 0.3, 1: -0.2, 5: 1.1},
    )
    for t in (0.4, 1.0, 1.6):
        state = evolve_exact(model, 2, 3, t)
        got = dense_ring(model, state, 2)
        want = oracle_ring(model, 2, 3, t)
        assert np.linalg.norm(got - want) <= 1e-12


@pytest.mark.parametrize(
    "coupling,t",
    [
        # the shift -20 wraps the ring: d = x - m - s reaches D
        ({2: -20.0}, 0.5),
        ({2: -20.0}, 1.0),
        ({2: -20.0}, 1.3),
        # a shift too small to resolve: the kernel stays flat at 1
        ({}, 5e-324),
    ],
    ids=["wrap-0.5", "wrap-1.0", "wrap-1.3", "tiny-t"],
)
def test_closed_form_edge_cases_match_expm_oracle(coupling, t):
    model = build_model(32, coupling=coupling)
    state = evolve_exact(model, 2, 3, t)
    assert abs(state.norm() - 1.0) <= 1e-12
    got = dense_ring(model, state, 2)
    want = oracle_ring(model, 2, 3, t)
    assert np.linalg.norm(got - want) <= 1e-12


def test_hbar_rescales_time():
    slow = build_model(32, hbar=2.0)
    fast = build_model(32)
    a = evolve_exact(slow, 3, 1, 0.8)
    b = evolve_exact(fast, 3, 1, 0.4)
    assert a.distance(b) <= 1e-12


def test_coupling_override_changes_speed():
    # eigenvalue -20 stays clear of every default label value on the window
    model = build_model(32, coupling={2: -20.0})
    state = evolve_exact(model, 2, 3, 0.25)
    # shift of -20 * 0.25 = -5 by the quarter pulse
    assert abs(state.amplitude((2, -2))) ** 2 == pytest.approx(1.0, abs=1e-9)


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


def test_numeric_with_free_terms():
    model = build_model(16, energy_a={3: 0.4}, energy_b={1: 0.9, -2: -0.5})
    approx = evolve_numeric(model, 3, 1, 1.3, 0.005)
    exact = evolve_exact(model, 3, 1, 1.3)
    assert approx.distance(exact) <= 1e-6


def test_subsystem_consistency_example():
    model = build_model(32)
    pair = evolve_exact(model, 3, 1, 0.7)
    collapsed = Ket(1, {(label,): amp for (_, label), amp in pair.items()})
    sub = subsystem_evolve(model, 3, 1, 0.7)
    assert collapsed.distance(sub) <= 1e-9


def test_default_route_builds_no_dense_matrix():
    model = build_model(32)
    evolve_exact(model, 2, 3, 0.4)
    subsystem_evolve(model, 2, 3, 0.4)
    detect_stopping_time(model, 2, 3, 1e-3, 1.5)
    assert "fourier_matrix" not in model.__dict__
    assert "shift_generator" not in model.__dict__


@pytest.mark.parametrize("dim", [8, 32, 256])
@pytest.mark.parametrize(
    "hbar,fraction", [(1.0, 0.0), (2.0, 0.0), (1.0, 0.37)], ids=["default", "hbar", "coupling"]
)
def test_trace_fidelity_matches_point_evolution(dim, hbar, fraction):
    n, m = dim // 4 - 1, 1
    model = build_model(dim, hbar=hbar, coupling={n: n + fraction})
    trace = detect_stopping_time(model, n, m, 1e-3, 1.5, 200)
    # at D = 256 the grid spans more than one row block of the trace
    assert dim < 256 or TRACE_BLOCK // dim < 200
    for t, fid in zip(trace.times, trace.fidelity):
        want = abs(evolve_exact(model, n, m, t).amplitude((n, n + m))) ** 2
        assert abs(fid - want) <= 1e-12, t


def test_free_term_trace_matches_expm_oracle():
    model = build_model(16, energy_a={2: 0.7}, energy_b={0: 0.3, 5: 1.1})
    trace = detect_stopping_time(model, 2, 3, 1e-3, 1.6, 40)
    tidx = model.ring_index(5)
    for t, fid, leak in zip(trace.times, trace.fidelity, trace.leakage):
        probs = np.abs(oracle_ring(model, 2, 3, t)) ** 2
        assert abs(fid - probs[tidx]) <= 1e-12, t
        assert abs(leak - (probs.sum() - probs[tidx])) <= 1e-12, t


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

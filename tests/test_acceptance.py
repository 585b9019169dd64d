"""Acceptance gate: ten desk-scale criteria, one printed line each.

Every tolerance and budget is pinned here, not read from defaults, so a
drive-by edit of the configuration cannot silently weaken this file.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from qarith.dynamics import (
    build_model,
    detect_stopping_time,
    evolve_exact,
    evolve_numeric,
    subsystem_evolve,
    superadditivity_table,
)
from qarith.gates import (
    GateDomainError,
    GateKind,
    apply_gate,
    apply_minus,
    apply_plus,
    apply_times,
    iterate_plus,
)
from qarith.logic import eval_arithmetic, eval_with_gates
from qarith.states import Ket, basis_ket, superposition
from qarith.terms import (
    arity,
    bijection_report,
    class_of,
    class_size,
    cumulative_size,
    decompose_index,
    enumerate_class,
    index_of,
    render_infix,
    term_of,
)
from qarith.verify import church_sweep

WINDOW = 32                 # gate label window
NORM_TOL = 1e-12
LINEARITY_TOL = 1e-12
DIM = 32
FIDELITY_TOL = 1e-9
OFF_TARGET_TOL = 1e-9
RK4_TOL = 1e-6
RK4_DT = 0.005
SUBSYSTEM_TOL = 1e-9
STOP_EPSILON = 1e-3
STOP_T_MAX = 4.0            # grid step 4/199 exceeds the crossing width for all |n| >= 1
STOP_SAMPLES = 200
CHURCH_BUDGET = 50000
GATE_SUITE_CAP = 5.0        # seconds
DYNAMICS_SUITE_CAP = 60.0
BIJECTION_CAP = 30.0


@pytest.fixture
def announce(capsys):
    def _announce(number, ok, detail):
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")

    return _announce


def test_acceptance_01_gate_window(announce):
    start = time.monotonic()
    failures = 0
    for n in range(-WINDOW, WINDOW + 1):
        for m in range(-WINDOW, WINDOW + 1):
            pair = basis_ket(n, m)
            if apply_plus(pair) != basis_ket(n, n + m):
                failures += 1
            if apply_minus(pair) != basis_ket(n, m - n):
                failures += 1
            if n == 0:
                try:
                    apply_times(pair)
                    failures += 1
                except GateDomainError:
                    pass
            elif apply_times(pair) != basis_ket(n, n * m):
                failures += 1
            out = apply_times(basis_ket(n, m, 0), GateKind.TIMES_REVERSIBLE)
            if out != basis_ket(n, m, n * m):
                failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < GATE_SUITE_CAP
    announce(1, ok, f"window +-{WINDOW} exhaustive, {failures} mismatches, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < GATE_SUITE_CAP


def _random_state(rng, registers, support, nonzero_first, zero_last):
    keys = set()
    while len(keys) < support:
        key = tuple(int(v) for v in rng.integers(-60, 61, size=registers))
        if nonzero_first and key[0] == 0:
            continue
        if zero_last:
            key = key[:-1] + (0,)
        keys.add(key)
    amps = {k: complex(rng.normal(), rng.normal()) for k in sorted(keys)}
    return superposition(amps).normalized()


def test_acceptance_02_unitarity_linearity(announce):
    rng = np.random.default_rng(2)
    cases = [
        (GateKind.PLUS, 2, False),
        (GateKind.MINUS, 2, False),
        (GateKind.TIMES_STRICT, 2, True),
        (GateKind.TIMES_REVERSIBLE, 3, False),
    ]
    failures = 0
    worst_norm = 0.0
    worst_lin = 0.0
    for kind, registers, nonzero in cases:
        zero_last = registers == 3
        for _ in range(100):
            ket = _random_state(rng, registers, int(rng.integers(1, 51)), nonzero, zero_last)
            drift = abs(apply_gate(ket, kind).norm() - 1.0)
            worst_norm = max(worst_norm, drift)
            if drift > NORM_TOL:
                failures += 1
        for _ in range(50):
            a = _random_state(rng, registers, 12, nonzero, zero_last)
            b = _random_state(rng, registers, 12, nonzero, zero_last)
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            lhs = apply_gate(a.scaled(alpha).add_scaled(beta, b), kind)
            rhs = apply_gate(a, kind).scaled(alpha).add_scaled(beta, apply_gate(b, kind))
            resid = lhs.distance(rhs)
            worst_lin = max(worst_lin, resid)
            if resid > LINEARITY_TOL:
                failures += 1
    ok = failures == 0
    announce(
        2,
        ok,
        f"100 states/gate, worst norm drift {worst_norm:.1e}, "
        f"worst linearity residual {worst_lin:.1e}",
    )
    assert ok


def test_acceptance_03_iterated_adder(announce):
    failures = 0
    for n in range(1, 21):
        for m in range(-20, 21):
            if iterate_plus(basis_ket(m, m), n - 1) != basis_ket(m, n * m):
                failures += 1
    ok = failures == 0
    announce(3, ok, f"adder iterated n-1 times on (m,m), n<=20, |m|<=20, {failures} mismatches")
    assert ok


def test_acceptance_04_dynamics_suite(announce):
    start = time.monotonic()
    model = build_model(DIM)
    half = DIM // 2
    pairs = [
        (n, m)
        for n in range(-half + 1, half)
        for m in range(-half + 1, half)
        if abs(n) + abs(m) < half
    ]
    worst_fid = 0.0
    worst_off = 0.0
    worst_rk4 = 0.0
    for n, m in pairs:
        exact = evolve_exact(model, n, m, 1.0)
        fid = abs(exact.amplitude((n, n + m))) ** 2
        worst_fid = max(worst_fid, 1.0 - fid)
        worst_off = max(worst_off, exact.norm_sq() - fid)
        approx = evolve_numeric(model, n, m, 1.0, RK4_DT)
        worst_rk4 = max(worst_rk4, approx.distance(exact))
    worst_sub = 0.0
    for n in range(-5, 5):
        for m in range(-5, 5):
            for t in np.linspace(0.0, 1.4, 5):
                pair_state = evolve_exact(model, n, m, float(t))
                collapsed = Ket(1, {(label,): amp for (_, label), amp in pair_state.items()})
                worst_sub = max(
                    worst_sub, collapsed.distance(subsystem_evolve(model, n, m, float(t)))
                )
    elapsed = time.monotonic() - start
    ok = (
        worst_fid <= FIDELITY_TOL
        and worst_off <= OFF_TARGET_TOL
        and worst_rk4 <= RK4_TOL
        and worst_sub <= SUBSYSTEM_TOL
        and elapsed < DYNAMICS_SUITE_CAP
    )
    announce(
        4,
        ok,
        f"{len(pairs)} pairs: fidelity defect {worst_fid:.1e}, off-target {worst_off:.1e}, "
        f"rk4 {worst_rk4:.1e}, subsystem {worst_sub:.1e}, {elapsed:.1f}s",
    )
    assert worst_fid <= FIDELITY_TOL
    assert worst_off <= OFF_TARGET_TOL
    assert worst_rk4 <= RK4_TOL
    assert worst_sub <= SUBSYSTEM_TOL
    assert elapsed < DYNAMICS_SUITE_CAP


def test_acceptance_05_stopping_times(announce):
    model = build_model(DIM)
    grid = STOP_T_MAX / (STOP_SAMPLES - 1)
    failures = []
    count = 0
    for n in range(-6, 7):
        if n == 0:
            continue
        for m in (0, 3, -3):
            trace = detect_stopping_time(model, n, m, STOP_EPSILON, STOP_T_MAX, STOP_SAMPLES)
            count += 1
            if trace.stopping_time is None or abs(trace.stopping_time - 1.0) > grid:
                failures.append((n, m, trace.stopping_time))
    rows = superadditivity_table(
        model, n_max=6, epsilon=STOP_EPSILON, t_max=STOP_T_MAX, samples=STOP_SAMPLES
    )
    violated = [r for r in rows if not r.satisfied]
    ok = not failures and rows and not violated
    announce(
        5,
        ok,
        f"{count} runs with T within one grid step of 1.0; split comparison holds on all "
        f"{len(rows)} rows (measured property of the pulse model, not a theorem)",
    )
    assert not failures, failures
    assert rows and not violated, violated[:3]


def test_acceptance_06_truth_tables(announce):
    failures = 0
    cases = 0
    for p, q in itertools.product((0, 1), repeat=2):
        expected = {"not": 1 - p, "and": p & q, "or": p | q}
        for name, want in expected.items():
            args = (p,) if name == "not" else (p, q)
            cases += 1
            if eval_arithmetic(name, *args) != want or eval_with_gates(name, *args) != want:
                failures += 1
    de_morgan = 0
    for p, q in itertools.product((0, 1), repeat=2):
        lhs = eval_with_gates("not", eval_with_gates("and", p, q))
        rhs = eval_with_gates("or", eval_with_gates("not", p), eval_with_gates("not", q))
        if lhs == rhs == 1 - (p & q):
            de_morgan += 1
    ok = failures == 0 and cases == 12 and de_morgan == 4
    announce(6, ok, f"{cases - failures}/12 connective cases, {de_morgan}/4 De Morgan pairs")
    assert ok


GOLDEN_SPLITS = [
    (3, (1, 0, 1)), (4, (1, 0, 2)), (5, (1, 1, 0)), (6, (1, 1, 1)),
    (7, (1, 1, 2)), (8, (1, 2, 0)), (9, (1, 2, 1)), (10, (1, 2, 2)),
    (11, (2, 0, 1)), (12, (2, 0, 2)), (13, (2, 1, 0)), (14, (2, 1, 1)),
    (15, (2, 1, 2)), (16, (2, 2, 0)), (17, (2, 2, 1)), (18, (2, 2, 2)),
]

GOLDEN_INFIX = [
    "n+(m+k)", "n+(mk)", "(n+m)+k", "(n+m)+(k+l)", "(n+m)+(kl)", "(nm)+k",
    "(nm)+(k+l)", "(nm)+(kl)", "n(m+k)", "n(mk)", "(n+m)k", "(n+m)(k+l)",
    "(n+m)(kl)", "(nm)k", "(nm)(k+l)", "(nm)(kl)",
]


def test_acceptance_07_golden_class1(announce):
    items = list(enumerate_class(1, 16))
    failures = 0
    for (index, term), (delta, split), infix in zip(items, GOLDEN_SPLITS, GOLDEN_INFIX):
        if index != delta or decompose_index(delta) != split:
            failures += 1
        if render_infix(term) != infix:
            failures += 1
    ok = failures == 0 and len(items) == 16
    announce(7, ok, f"class-1 table indices 3..18, {failures} mismatches")
    assert ok


def test_acceptance_08_bijection(announce):
    start = time.monotonic()
    failures = bijection_report(2)
    counts = tuple(class_size(k) for k in range(3))
    roundtrip_failures = 0
    seen = {}
    for delta in range(10001):
        term = term_of(delta)
        if index_of(term) != delta or term in seen:
            roundtrip_failures += 1
        seen[term] = delta
    elapsed = time.monotonic() - start
    ok = not failures and counts == (3, 16, 704) and roundtrip_failures == 0
    ok = ok and elapsed < BIJECTION_CAP
    announce(
        8,
        ok,
        f"{cumulative_size(2)} terms of class <= 2 and indices 0..10000, "
        f"0 collisions, {elapsed:.1f}s" if ok else f"failures={failures[:2]}",
    )
    assert not failures
    assert counts == (3, 16, 704)
    assert roundtrip_failures == 0
    assert elapsed < BIJECTION_CAP


def test_acceptance_09_church_sweep(announce):
    rng = np.random.default_rng(0)
    cases, disagreements = church_sweep(2, CHURCH_BUDGET, rng)
    ok = not disagreements and cases <= CHURCH_BUDGET
    announce(
        9,
        ok,
        f"{cases} dual evaluations across all class <= 2 operations, "
        f"{len(disagreements)} disagreements",
    )
    assert cases <= CHURCH_BUDGET
    assert not disagreements


def test_acceptance_10_verify_determinism(announce):
    cmd = [sys.executable, "-m", "qarith", "verify", "all", "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, check=False)
    second = subprocess.run(cmd, capture_output=True, check=False)
    identical = first.stdout == second.stdout
    passed = first.returncode == 0 and second.returncode == 0
    report = json.loads(first.stdout or b"{}")
    ok = identical and passed and report.get("ok") is True
    announce(
        10,
        ok,
        f"two verify runs, byte-identical={identical}, "
        f"{report.get('passed', 0)} checks green",
    )
    assert identical
    assert passed


def test_inventory_consistency():
    # cross-module sanity: the indexed operations really are the compiled ones
    for delta in (0, 1, 2, 7, 13, 18):
        term = term_of(delta)
        assert class_of(term) <= 1
        assert arity(term) in (1, 2, 3, 4)

"""ring_dynamics: the Hamiltonian adder on D-point rings, in process.

Models for D = 64, 256 and 1024 are built and warmed in set-up, the cost
a library user pays once per model.  The op mix: stopping-time traces
with the CLI defaults at D = 256 and 1024, point ``evolve_exact`` and
``subsystem_evolve`` calls at every D, and RK4 ``evolve_numeric`` at
D = 64.  Outputs are checked against the closed form of the ring state:
after time t the target label carries the Dirichlet kernel
sin(pi d) / (D sin(pi d / D)) with d = n (1 - min(t, 1)).
"""

from __future__ import annotations

import random

import numpy as np
from qarith import dynamics

from bench import Op, Workload, digest

WHY = ("dense O(D^2) ring propagation: stopping-time traces at D=256 and 1024, point evolution, "
       "RK4 at D=64; terms and gates idle")
IN_PROCESS = True

DIMS = (64, 256, 1024)
# CLI defaults of `qarith evolve`.
EPSILON = 1e-3
T_MAX = 1.5
SAMPLES = 200
DT = 0.005
TOL_BOOKKEEPING = 1e-9
TOL_FIDELITY = 1e-9
TOL_INTEGRATOR = 1e-6
DECKS = 5
# Op kinds per 20-op deck.  Latency order: point < rk4 < trace256 < trace1024,
# so p50 lies inside trace256 (35-85%) and p90 inside trace1024 (85-100%).
SHARES = {"point": 5, "rk4": 2, "trace256": 10, "trace1024": 3}


def closed_fidelity(dim: int, n: int, t) -> np.ndarray:
    """Probability at the target label n + m after time t (any m in the window)."""
    d = n * (1.0 - np.minimum(np.asarray(t, dtype=float), 1.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        f = (np.sin(np.pi * d) / (dim * np.sin(np.pi * d / dim))) ** 2
    return np.where(np.abs(d) < 1e-12, 1.0, f)


def check_stopping_time(dim: int, n: int, stop, grid: float) -> str | None:
    """The stopping time is the first grid time at or after the fidelity crossing.

    The crossing lies about sqrt(3 eps) / (pi |n|) before t = 1, so for
    |n| >= 3 this puts the stopping time within one grid step of 1.  For
    |n| <= 2 the crossing can be wider than one step of the CLI grid
    (0.0075), and only the closed form places the stopping time.
    """
    if n == 0:
        return None if stop == 0.0 else f"n=0 should stop at 0, got {stop}"
    if stop is None:
        return "no stopping time"
    thr = 1.0 - EPSILON
    if stop > 1.0 + grid:
        return f"stopping time {stop} more than one grid step past 1"
    if closed_fidelity(dim, n, stop) < thr - TOL_FIDELITY:
        return f"fidelity below threshold at stopping time {stop}"
    if stop - grid >= 0.0 and closed_fidelity(dim, n, stop - grid) >= thr + TOL_FIDELITY:
        return f"fidelity already above threshold one grid step before {stop}"
    return None


def check_trace(dim: int, n: int):
    grid = T_MAX / (SAMPLES - 1)

    def check(trace) -> str | None:
        fid = np.array(trace.fidelity)
        leak = np.array(trace.leakage)
        if len(fid) != SAMPLES:
            return f"{len(fid)} samples, expected {SAMPLES}"
        worst = float(np.max(np.abs(fid + leak - 1.0)))
        if worst > TOL_BOOKKEEPING:
            return f"fidelity + leakage off 1 by {worst:.2e}"
        drift = float(np.max(np.abs(fid - closed_fidelity(dim, n, np.array(trace.times)))))
        if drift > TOL_FIDELITY:
            return f"fidelity off the closed form by {drift:.2e}"
        return check_stopping_time(dim, n, trace.stopping_time, grid)

    return check


def check_point(dim: int, n: int, m: int, t: float, subsystem: bool):
    target = (n + m,) if subsystem else (n, n + m)

    def check(ket) -> str | None:
        norm = ket.norm()
        if abs(norm - 1.0) > TOL_FIDELITY:
            return f"norm {norm!r} off 1"
        got = abs(ket.amplitude(target)) ** 2
        want = float(closed_fidelity(dim, n, t))
        if abs(got - want) > TOL_FIDELITY:
            return f"target probability {got!r} != closed form {want!r}"
        return None

    return check


def check_rk4(model, n: int, m: int, t: float):
    def check(ket) -> str | None:
        dist = ket.distance(dynamics.evolve_exact(model, n, m, t))
        if dist > TOL_INTEGRATOR:
            return f"RK4 off evolve_exact by {dist:.2e}"
        return None

    return check


def _trace(model, n: int, m: int):
    return dynamics.detect_stopping_time(model, n, m, EPSILON, T_MAX, SAMPLES)


def _exact(model, n: int, m: int, t: float):
    return dynamics.evolve_exact(model, n, m, t)


def _subsystem(model, n: int, m: int, t: float):
    return dynamics.subsystem_evolve(model, n, m, t)


def _rk4(model, n: int, m: int, t: float):
    return dynamics.evolve_numeric(model, n, m, t, DT)


def pair(rng: random.Random, dim: int) -> tuple:
    lim = dim // 2 - 1
    n = rng.randint(-lim, lim)
    rest = lim - abs(n)
    return n, rng.randint(-rest, rest)


def build_models() -> dict:
    models = {}
    for dim in DIMS:
        model = dynamics.build_model(dim)
        for attr in ("fourier_matrix", "shift_generator", "ring_energies"):
            getattr(model, attr)  # built on first touch
        models[dim] = model
    return models


def build(seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"ring_dynamics-{seed}")
    models = build_models()
    decks, inputs = [], []
    point = 0
    for _ in range(1 if smoke else DECKS):
        kinds = list(SHARES) if smoke else [k for k, c in SHARES.items() for _ in range(c)]
        rng.shuffle(kinds)
        deck = []
        for kind in kinds:
            if kind.startswith("trace"):
                dim = int(kind[5:])
                n, m = pair(rng, dim)
                deck.append(Op(kind, f"D={dim} ({n},{m})", _trace, (models[dim], n, m), check_trace(dim, n)))
                inputs.append([kind, n, m])
            elif kind == "rk4":
                n, m = pair(rng, 64)
                t = round(rng.uniform(0.2, 0.5), 6)
                deck.append(Op(kind, f"D=64 ({n},{m}) t={t}", _rk4, (models[64], n, m, t),
                               check_rk4(models[64], n, m, t)))
                inputs.append([kind, n, m, t])
            else:
                dim = DIMS[point % len(DIMS)]
                subsystem = point % 2 == 1
                point += 1
                n, m = pair(rng, dim)
                t = round(rng.uniform(0.0, T_MAX), 6)
                fn = _subsystem if subsystem else _exact
                deck.append(Op(kind, f"{fn.__name__[1:]} D={dim} ({n},{m}) t={t}", fn,
                               (models[dim], n, m, t), check_point(dim, n, m, t, subsystem)))
                inputs.append([kind, dim, subsystem, n, m, t])
        decks.append(deck)
    return Workload("ring_dynamics", decks, digest(inputs))

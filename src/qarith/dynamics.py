"""Time-resolved dynamics of the adder on a cyclic label window.

The control register couples to a ring of D labels through the
Hermitian generator of the unit cyclic shift.  The coupling acts as a
pulse of unit duration: by the end of the pulse the ring register has
advanced by the control label, so the interaction realizes the adder.
Free single-register terms act the whole time and default to zero, so
with the default model the state is frozen once the pulse ends.

Ring labels occupy the symmetric window -D/2+1 .. D/2.  A pair (n, m)
is representable only while |n| + |m| < D/2, which keeps the sum n + m
away from the wrap-around point of the ring.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .states import PRUNE_EPS_SQ, Ket

# Duration of the coupling pulse; one pulse advances the ring by the
# control label.
GATE_TIME = 1.0

# The numeric integrator subdivides until each step advances the phase
# of the fastest eigenmode by at most this many radians.
MAX_STEP_PHASE = 0.02

MIN_DIM = 8
MAX_DT = 0.01


def check_number(value: object, name: str) -> float:
    """``value`` as a float; booleans and non-numbers raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def check_dim(dim: object) -> None:
    """Ring size: an even integer of at least MIN_DIM labels."""
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < MIN_DIM or dim % 2:
        raise ValueError(f"ring size D must be an even integer >= {MIN_DIM}, got {dim!r}")


def check_dt(dt: object) -> None:
    """Integrator step bound, in (0, MAX_DT]."""
    if not (0.0 < check_number(dt, "dt") <= MAX_DT):
        raise ValueError(f"dt must lie in (0, {MAX_DT}], got {dt!r}")


def check_epsilon(epsilon: object) -> None:
    """Stopping-time threshold margin, in (0, 0.5)."""
    if not (0.0 < check_number(epsilon, "epsilon") < 0.5):
        raise ValueError(f"epsilon must lie in (0, 0.5), got {epsilon!r}")


def check_t_max(t_max: object) -> None:
    """Trace horizon: positive and finite."""
    value = check_number(t_max, "t_max")
    if not (value > 0.0) or not math.isfinite(value):
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")


class WindowError(ValueError):
    """Labels too large for the ring: sums would wrap around."""

    def __init__(self, n: int, m: int, dim: int):
        self.n = n
        self.m = m
        self.dim = dim
        super().__init__(
            f"|{n}| + |{m}| = {abs(n) + abs(m)} must stay below {dim // 2} "
            f"on a ring of {dim} labels"
        )


@dataclass(frozen=True)
class HamiltonianModel:
    """Diagonal control register coupled to a shift generator on a ring.

    ``coupling`` overrides the control-label eigenvalue of the coupling
    operator (default: the label itself, which makes the pulse add the
    control into the ring).  ``energy_a`` and ``energy_b`` are optional
    free diagonal terms on the control and ring registers, keyed by
    label, defaulting to zero.
    """

    generator_kind: ClassVar[str] = "cyclic-shift-generator"

    dim: int = 32
    hbar: float = 1.0
    coupling: Mapping[int, float] = field(default_factory=dict)
    energy_a: Mapping[int, float] = field(default_factory=dict)
    energy_b: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_dim(self.dim)
        if not (self.hbar > 0.0) or not math.isfinite(self.hbar):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar!r}")
        half = self.dim // 2
        window = range(-half, half + 1)
        values = [self.coupling_value(n) for n in window]
        if len(set(values)) != len(values):
            raise ValueError("coupling eigenvalues must be distinct across the label window")

    @property
    def half(self) -> int:
        return self.dim // 2

    def coupling_value(self, n: int) -> float:
        return float(self.coupling.get(n, n))

    def energy_a_value(self, n: int) -> float:
        return float(self.energy_a.get(n, 0.0))

    def ring_index(self, label: int) -> int:
        return (label + self.half - 1) % self.dim

    def label_at(self, index: int) -> int:
        return index - self.half + 1

    @cached_property
    def ring_labels(self) -> np.ndarray:
        return np.arange(-self.half + 1, self.half + 1)

    @cached_property
    def shift_eigenphases(self) -> np.ndarray:
        """Eigenvalues of the shift generator: 2*pi*k/D over the label window."""
        return 2.0 * np.pi * self.ring_labels / self.dim

    @cached_property
    def fourier_matrix(self) -> np.ndarray:
        """Columns are the shift generator's eigenvectors (plane waves)."""
        x = self.ring_labels.reshape(-1, 1)
        k = self.ring_labels.reshape(1, -1)
        return np.exp(2j * np.pi * k * x / self.dim) / math.sqrt(self.dim)

    @cached_property
    def shift_generator(self) -> np.ndarray:
        """The coupling operator on the ring as a dense Hermitian matrix."""
        f = self.fourier_matrix
        return (f * self.shift_eigenphases) @ f.conj().T

    @cached_property
    def ring_energies(self) -> np.ndarray:
        return np.array([float(self.energy_b.get(int(l), 0.0)) for l in self.ring_labels])

    def check_window(self, n: int, m: int) -> None:
        if abs(n) + abs(m) >= self.half:
            raise WindowError(n, m, self.dim)


def build_model(dim: int = 32, **overrides) -> HamiltonianModel:
    return HamiltonianModel(dim=dim, **overrides)


def _check_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"time must be finite and non-negative, got {t!r}")
    return t


def _ring_start(model: HamiltonianModel, m: int) -> np.ndarray:
    psi = np.zeros(model.dim, dtype=complex)
    psi[model.ring_index(m)] = 1.0
    return psi


def _ring_state(model: HamiltonianModel, n: int, m: int, t: float) -> np.ndarray:
    """Ring-register amplitudes at time t, without the control phase."""
    psi = _ring_start(model, m)
    c = model.coupling_value(n)
    t_on = min(t, GATE_TIME)
    t_free = t - t_on
    if not any(model.energy_b.values()):
        # Free ring term vanishes: propagate in the shift eigenbasis.
        f = model.fourier_matrix
        phases = np.exp(-1j * t_on * c * model.shift_eigenphases / model.hbar)
        return f @ (phases * (f.conj().T @ psi))
    h_on = np.diag(model.ring_energies.astype(complex)) + c * model.shift_generator
    w, u = np.linalg.eigh(h_on)
    psi = u @ (np.exp(-1j * t_on * w / model.hbar) * (u.conj().T @ psi))
    if t_free > 0.0:
        psi = np.exp(-1j * t_free * model.ring_energies / model.hbar) * psi
    return psi


def _propagate(model: HamiltonianModel, n: int, m: int, t: float) -> np.ndarray:
    """Ring-register amplitudes of the pair (n, m) at time t, control phase included."""
    t = _check_time(t)
    model.check_window(n, m)
    phase = np.exp(-1j * t * model.energy_a_value(n) / model.hbar)
    return phase * _ring_state(model, n, m, t)


def _ring_ket(model: HamiltonianModel, vec: np.ndarray, control: tuple[int, ...]) -> Ket:
    """Ket over (control..., ring label), pruned below PRUNE_EPS_SQ."""
    amps = {
        control + (model.label_at(idx),): complex(amp)
        for idx, amp in enumerate(vec)
        if abs(amp) ** 2 >= PRUNE_EPS_SQ
    }
    return Ket(len(control) + 1, amps)


def evolve_exact(model: HamiltonianModel, n: int, m: int, t: float) -> Ket:
    """Closed-form propagation of the basis pair (n, m) for time t."""
    return _ring_ket(model, _propagate(model, n, m, t), (n,))


def subsystem_evolve(model: HamiltonianModel, n: int, m: int, t: float) -> Ket:
    """Ring register alone; the control stays at n and factors out."""
    return _ring_ket(model, _propagate(model, n, m, t), ())


def _rk4_segment(h_matrix: np.ndarray, psi: np.ndarray, duration: float, max_step: float) -> np.ndarray:
    if duration <= 0.0:
        return psi
    steps = max(1, math.ceil(duration / max_step))
    h = duration / steps

    def deriv(v: np.ndarray) -> np.ndarray:
        return -1j * (h_matrix @ v)

    for _ in range(steps):
        k1 = deriv(psi)
        k2 = deriv(psi + 0.5 * h * k1)
        k3 = deriv(psi + 0.5 * h * k2)
        k4 = deriv(psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


def evolve_numeric(
    model: HamiltonianModel, n: int, m: int, t: float, dt: float = 0.005
) -> Ket:
    """Runge-Kutta propagation of the same pulse-then-free dynamics.

    ``dt`` caps the step size; steps shrink further so that no step
    advances the fastest eigenmode by more than MAX_STEP_PHASE radians,
    which keeps the global error well under the comparison tolerances
    even at the edge of the label window.
    """
    t = _check_time(t)
    check_dt(dt)
    dt = float(dt)
    model.check_window(n, m)
    c = model.coupling_value(n)
    ea = model.energy_a_value(n)
    eye = np.eye(model.dim)
    h_free = (np.diag(model.ring_energies) + ea * eye) / model.hbar
    h_on = h_free + c * model.shift_generator / model.hbar
    t_on = min(t, GATE_TIME)
    t_free = t - t_on

    def max_step(rate_bound: float) -> float:
        if rate_bound <= 0.0:
            return dt
        return min(dt, MAX_STEP_PHASE / rate_bound)

    free_rate = (float(np.max(np.abs(model.ring_energies))) + abs(ea)) / model.hbar
    on_rate = free_rate + abs(c) * math.pi / model.hbar
    psi = _ring_start(model, m)
    psi = _rk4_segment(h_on, psi, t_on, max_step(on_rate))
    psi = _rk4_segment(h_free, psi, t_free, max_step(free_rate))
    return _ring_ket(model, psi, (n,))


@dataclass(frozen=True)
class EvolutionTrace:
    """Sampled fidelity record of one addition run.

    ``fidelity`` is the probability at the target label n + m;
    ``leakage`` is all remaining probability, so the two sum to the
    state norm at every sample.  ``stopping_time`` is the first grid
    time from which the fidelity stays at or above 1 - epsilon through
    the end of the grid, or None if no such time exists.
    """

    n: int
    m: int
    epsilon: float
    target: int
    times: tuple[float, ...]
    fidelity: tuple[float, ...]
    leakage: tuple[float, ...]
    stopping_time: float | None
    # Largest single off-target label probability seen at or after the
    # stopping time; None when there is no stopping time.
    off_peak_past_stop: float | None

    def to_csv(self) -> str:
        lines = ["t,fidelity,leakage"]
        for t, f, l in zip(self.times, self.fidelity, self.leakage):
            lines.append(f"{t:.12g},{f:.12g},{l:.12g}")
        return "\n".join(lines) + "\n"

    def sidecar_dict(self, dim: int) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "D": dim,
            "epsilon": self.epsilon,
            "T": self.stopping_time,
        }


def detect_stopping_time(
    model: HamiltonianModel,
    n: int,
    m: int,
    epsilon: float,
    t_max: float,
    samples: int = 200,
) -> EvolutionTrace:
    """Sample the run on a uniform grid and locate the sustained crossing."""
    check_epsilon(epsilon)
    check_t_max(t_max)
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    model.check_window(n, m)
    target = n + m
    tidx = model.ring_index(target)
    times = np.linspace(0.0, t_max, samples)
    fidelity = np.empty(samples)
    leakage = np.empty(samples)
    off_peak = np.empty(samples)
    for i, t in enumerate(times):
        vec = _ring_state(model, n, m, float(t))
        probs = np.abs(vec) ** 2
        fidelity[i] = probs[tidx]
        leakage[i] = probs.sum() - probs[tidx]
        probs[tidx] = 0.0
        off_peak[i] = probs.max()
    threshold = 1.0 - epsilon
    start = samples
    for i in range(samples - 1, -1, -1):
        if fidelity[i] < threshold:
            break
        start = i
    stopping = float(times[start]) if start < samples else None
    peak = float(off_peak[start:].max()) if start < samples else None
    return EvolutionTrace(
        n=n,
        m=m,
        epsilon=epsilon,
        target=target,
        times=tuple(float(t) for t in times),
        fidelity=tuple(float(f) for f in fidelity),
        leakage=tuple(float(l) for l in leakage),
        stopping_time=stopping,
        off_peak_past_stop=peak,
    )


@dataclass(frozen=True)
class SuperadditivityRow:
    n: int
    k: int
    m: int
    t_whole: float
    t_left: float   # stopping time of n - k
    t_right: float  # stopping time of k
    satisfied: bool


def superadditivity_table(
    model: HamiltonianModel,
    n_max: int = 6,
    m_values: tuple[int, ...] = (0, 3, -3),
    epsilon: float = 1e-3,
    t_max: float = 4.0,
    samples: int = 200,
) -> list[SuperadditivityRow]:
    """Compare T(n-k, m) + T(k, m) against T(n, m) over split additions.

    Splits keep both parts strictly smaller in magnitude than the whole,
    so each row asks whether two easier additions take at least as long
    in total as the one they compose to.
    """
    cache: dict[tuple[int, int], float | None] = {}

    def stop(nn: int, mm: int) -> float | None:
        key = (nn, mm)
        if key not in cache:
            cache[key] = detect_stopping_time(model, nn, mm, epsilon, t_max, samples).stopping_time
        return cache[key]

    rows: list[SuperadditivityRow] = []
    for n in range(-n_max, n_max + 1):
        if abs(n) < 2:
            continue
        ks = range(1, n) if n > 0 else range(n + 1, 0)
        for k in ks:
            for m in m_values:
                if abs(n) + abs(m) >= model.half:
                    continue
                t_whole = stop(n, m)
                t_left = stop(n - k, m)
                t_right = stop(k, m)
                if t_whole is None or t_left is None or t_right is None:
                    rows.append(SuperadditivityRow(n, k, m, math.nan, math.nan, math.nan, False))
                    continue
                rows.append(
                    SuperadditivityRow(
                        n=n,
                        k=k,
                        m=m,
                        t_whole=t_whole,
                        t_left=t_left,
                        t_right=t_right,
                        satisfied=t_left + t_right >= t_whole - 1e-12,
                    )
                )
    return rows

"""Time-resolved dynamics of the adder on a cyclic label window.

The control register couples to a ring of D labels through the
Hermitian generator of the unit cyclic shift.  The coupling acts as a
pulse of unit duration: by the end of the pulse the ring register has
advanced by the control label, so the interaction realizes the adder.
Nothing acts after the pulse, so the state is frozen once it ends: a
stopping-time trace evaluates one row per grid time up to the first time
at or past the pulse end and reuses that row for the later times.

Ring labels occupy the symmetric window -D/2+1 .. D/2.  A pair (n, m)
is representable only while |n| + |m| < D/2, which keeps the sum n + m
away from the wrap-around point of the ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .config import (  # noqa: F401  (the bounds stay importable from here)
    MAX_DIM,
    MAX_DT,
    MAX_SAMPLES,
    MIN_DIM,
    MIN_DT,
    WindowError,
    check_dim,
    check_dt,
    check_epsilon,
    check_number,
    check_samples,
    check_t_max,
)
from .states import PRUNE_EPS_SQ, Ket, _check_labels

# Duration of the coupling pulse; one pulse advances the ring by the
# control label.
GATE_TIME = 1.0

# The numeric integrator subdivides until each step advances the phase
# of the fastest eigenmode by at most this many radians.
MAX_STEP_PHASE = 0.02

# A stopping-time trace evaluates its time grid in row blocks of at most
# this many amplitudes (one row when a row is longer), so its memory stays
# bounded for any grid and ring.  Blocks this small keep the kernel's
# temporaries in cache.  Median ms per trace with `qarith evolve`'s grid
# (2 vCPU, 40 pairs), blocks 2^13 .. 2^17: 0.30, 0.24, 0.21, 0.18, 0.18
# at D = 256 and 0.91, 0.70, 0.59, 0.56, 1.28 at D = 1024.
TRACE_BLOCK = 1 << 16

# Ring offsets d closer than this to zero get kernel value exactly 1.
_KERNEL_FLAT = 1e-9


@dataclass(frozen=True)
class HamiltonianModel:
    """Diagonal control register coupled to a shift generator G on a ring.

    The pulse Hamiltonian of the pair (n, m) is n G: over the unit pulse
    it advances the ring by the control label n.  Nothing acts after the
    pulse, so the state is frozen once it ends.
    """

    dim: int = 32

    def __post_init__(self) -> None:
        check_dim(self.dim)

    @property
    def half(self) -> int:
        return self.dim // 2

    def ring_index(self, label: int) -> int:
        return (label + self.half - 1) % self.dim

    @cached_property
    def ring_labels(self) -> np.ndarray:
        return np.arange(-self.half + 1, self.half + 1)

    @cached_property
    def shift_eigenphases(self) -> np.ndarray:
        """Eigenvalues of the shift generator: 2*pi*k/D over the label window."""
        return 2.0 * np.pi * self.ring_labels / self.dim

    @cached_property
    def fourier_matrix(self) -> np.ndarray:
        # Read only by perfbench/ring_dynamics.py's set-up; no route reads it.
        x = self.ring_labels.reshape(-1, 1)
        k = self.ring_labels.reshape(1, -1)
        return np.exp(2j * np.pi * k * x / self.dim) / math.sqrt(self.dim)

    @cached_property
    def kernel_windows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Windows of length D over (-1)^k sin(pi k / D), (-1)^k cos(pi k / D)
        and e^{i pi k / D} for k in (-D, D); row s holds k = s - D + 1 .. s."""
        k = np.arange(1 - self.dim, self.dim)
        # Sines of angles in [-pi/2, pi/2] only, where they are accurate to an
        # ulp; near +-pi the angle's own rounding costs up to 5e-14 at D = 1024.
        sine = np.sign(k) * np.sin(np.pi * (self.half - abs(self.half - abs(k))) / self.dim)
        cosine = np.sin(np.pi * (self.half - abs(k)) / self.dim)
        sign = 1.0 - 2.0 * (k % 2)
        tables = (sign * sine, sign * cosine, cosine + 1j * sine)
        return tuple(np.lib.stride_tricks.sliding_window_view(t, self.dim) for t in tables)

    @cached_property
    def generator_column(self) -> np.ndarray:
        """First column of the shift generator G = F diag(theta) F^H.

        G[x, y] depends on x - y mod D alone, so G is circulant and this
        column is all of it:  c[j] = (1/D) sum_k theta_k e^{2 pi i k j / D}.
        The sum is taken term by term, one eigenphase k at a time, over a
        table of the D roots of unity, in O(D) memory: no D x D array, no
        FFT, eigendecomposition or Dirichlet table, so RK4 built on it
        stays independent of the closed form.
        """
        roots = np.exp(2j * np.pi * np.arange(self.dim) / self.dim)
        j = np.arange(self.dim)
        column = np.zeros(self.dim, dtype=complex)
        for k, theta in zip(self.ring_labels.tolist(), self.shift_eigenphases.tolist()):
            column += theta * roots[(k * j) % self.dim]
        return column / self.dim

    @cached_property
    def shift_generator(self) -> np.ndarray:
        # Read only by perfbench/ring_dynamics.py's set-up; no route reads it.
        index = np.arange(self.dim)
        return self.generator_column[np.subtract.outer(index, index) % self.dim]

    @cached_property
    def ring_energies(self) -> np.ndarray:
        # Read only by perfbench/ring_dynamics.py's set-up; no free ring term.
        return np.zeros(self.dim)

    def check_window(self, n: int, m: int) -> None:
        _check_labels((n, m))
        if abs(n) + abs(m) >= self.half:
            raise WindowError(n, m, self.dim)


def build_model(dim: int = 32) -> HamiltonianModel:
    return HamiltonianModel(dim=dim)


def _check_time(t: float) -> float:
    t = check_number(t, "time")
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"time must be finite and non-negative, got {t!r}")
    return t


def _dirichlet_ratio(
    model: HamiltonianModel, m: int, shifts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real factor of the ring kernel of |m> moved by each of ``shifts`` labels.

    The pulse exp(-i s G) with G the shift generator sends |m> to the
    Dirichlet kernel  e^{i pi d / D} sin(pi d) / (D sin(pi d / D))  at
    label x, with d = x - m - s.  The kernel has period D in d, so the
    whole part of the shift moves |m> to a label q reduced into the
    window, and d = k - f with k = x - q in (-D, D) and the fractional
    part f in [-1/2, 1/2]: the denominator vanishes only at d = 0, where
    the amplitude is 1.  As sin(pi d) = -(-1)^k sin(pi f), the angle
    difference over the tables S_k, C_k of ``kernel_windows`` gives

        ratio = sin(pi f) / (D cos(pi f / D) [C_k tan(pi f / D) - S_k])

    with no sine per label.  Returns the ratio, one row per shift, each
    row's window start, and the fractions f its phase needs.  The phase
    has modulus 1, so the squared ratio is the probability row.
    """
    dim = model.dim
    sines, cosines, _ = model.kernel_windows
    whole = np.rint(shifts)
    frac = shifts - whole  # exact
    # q's window starts at D/2 - q: D - 1 minus the ring index of q.
    starts = (dim - 1) - np.mod(m + whole + (model.half - 1), dim).astype(np.intp)
    angle = frac * (np.pi / dim)
    ratio = cosines[starts]
    ratio *= np.tan(angle)[:, None]
    ratio -= sines[starts]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide((np.sin(np.pi * frac) / (dim * np.cos(angle)))[:, None], ratio, out=ratio)
    # |d| >= 1/2 away from x = q, so |d| < _KERNEL_FLAT only at x = q in
    # rows with |f| < _KERNEL_FLAT.  There the kernel is 1 to double precision
    # (it deviates by about 1.6 d^2), and tan(pi f / D) could underflow to zero.
    flat = np.flatnonzero(np.abs(frac) < _KERNEL_FLAT)
    ratio[flat, (dim - 1) - starts[flat]] = 1.0
    return ratio, starts, frac


def _dirichlet_rows(model: HamiltonianModel, m: int, shifts: np.ndarray) -> np.ndarray:
    """Ring amplitudes of |m> moved by each of ``shifts`` labels, one row per shift."""
    ratio, starts, frac = _dirichlet_ratio(model, m, shifts)
    # e^{i pi d / D} = e^{i pi k / D} e^{-i pi f / D}, the first factor a
    # window of the phase table, so it is exactly 1 at x = q.
    rows = model.kernel_windows[2][starts] * np.exp(-1j * np.pi * frac / model.dim)[:, None]
    rows *= ratio
    return rows


def _propagate(model: HamiltonianModel, n: int, m: int, t: float) -> np.ndarray:
    """Closed-form ring-register amplitudes of the pair (n, m) at time t."""
    t = _check_time(t)
    model.check_window(n, m)
    return _dirichlet_rows(model, m, np.array([n * min(t, GATE_TIME)]))[0]


def _ring_ket(model: HamiltonianModel, vec: np.ndarray, control: tuple[int, ...]) -> Ket:
    """Ket over (control..., ring label), pruned below PRUNE_EPS_SQ."""
    keep = np.flatnonzero(np.abs(vec) ** 2 >= PRUNE_EPS_SQ)
    labels = (keep - (model.half - 1)).tolist()
    amps = {control + (label,): amp for label, amp in zip(labels, vec[keep].tolist())}
    return Ket(len(control) + 1, amps)


def evolve_exact(model: HamiltonianModel, n: int, m: int, t: float) -> Ket:
    """Closed-form propagation of the basis pair (n, m) for time t."""
    return _ring_ket(model, _propagate(model, n, m, t), (n,))


def subsystem_evolve(model: HamiltonianModel, n: int, m: int, t: float) -> Ket:
    """Ring register alone; the control stays at n and factors out."""
    return _ring_ket(model, _propagate(model, n, m, t), ())


def _cyclic_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First column of the product of the circulants with first columns a, b."""
    full = np.convolve(a, b)
    out = full[: len(a)]
    out[: len(a) - 1] += full[len(a):]
    return out


def _column_power(column: np.ndarray, exponent: int) -> np.ndarray:
    """First column of C^exponent, exponent >= 1, for the circulant C with
    first column ``column``, by repeated squaring."""
    result = None
    while exponent:
        if exponent & 1:
            result = column if result is None else _cyclic_convolve(result, column)
        exponent >>= 1
        if exponent:
            column = _cyclic_convolve(column, column)
    return result


def _rk4_column(h_column: np.ndarray, duration: float, max_step: float) -> np.ndarray:
    """Classical RK4 for psi' = -i H psi over ``duration``, for a circulant H
    given by its first column; returns the propagator's first column.

    H is constant, so one RK4 step of length h is the fixed matrix
    P = I + A + A^2/2 + A^3/6 + A^4/24 with A = -i h H: the degree-4
    Taylor polynomial of exp(A), built here in Horner form.  A polynomial
    in a circulant is circulant, so P and P^steps are their first columns,
    and a product of two is a cyclic convolution of their columns: O(D^2)
    per product and O(D^2 log steps) for all steps together, taken by
    repeated squaring.  No FFT and no eigendecomposition is involved, so
    the integrator stays independent of the spectral and closed-form
    routes.
    """
    unit = np.zeros(len(h_column), dtype=complex)
    unit[0] = 1.0
    steps = max(1, math.ceil(duration / max_step))
    a = (-1j * (duration / steps)) * h_column
    step = unit + a / 4.0
    for k in (3.0, 2.0, 1.0):
        step = unit + _cyclic_convolve(a / k, step)
    return _column_power(step, steps)


def evolve_numeric(
    model: HamiltonianModel, n: int, m: int, t: float, dt: float = 0.005
) -> Ket:
    """Runge-Kutta propagation of the same pulse.

    RK4 integrates the pulse alone: nothing acts after it, so the state
    is frozen once it ends.  ``dt`` caps the step size; steps shrink
    further so that no step advances the fastest eigenmode (|n| pi
    radians per unit time) by more than MAX_STEP_PHASE radians, which
    keeps the global error well under the comparison tolerances even at
    the edge of the label window.
    """
    t = _check_time(t)
    check_dt(dt)
    dt = float(dt)
    model.check_window(n, m)
    rate = abs(n) * math.pi
    max_step = min(dt, MAX_STEP_PHASE / rate) if rate > 0.0 else dt
    # The propagator is circulant: it sends |m> to its first column rolled by m.
    column = _rk4_column(n * model.generator_column, min(t, GATE_TIME), max_step)
    return _ring_ket(model, np.roll(column, model.ring_index(m)), (n,))


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
    """Sample the run on a uniform grid and locate the sustained crossing.

    Nothing acts after the pulse, so the state is frozen once it ends and
    every sample past the pulse end repeats the pulse-end row.
    """
    check_epsilon(epsilon)
    check_t_max(t_max)
    check_samples(samples)
    model.check_window(n, m)
    target = n + m
    tidx = model.ring_index(target)
    times = np.linspace(0.0, t_max, samples)
    fidelity = np.empty(samples)
    leakage = np.empty(samples)
    off_peak = np.empty(samples)
    # Evaluate the grid up to its first time at or past GATE_TIME, at most
    # TRACE_BLOCK amplitudes at a time, and copy that row's values to the
    # later times.
    pulse_rows = min(samples, int(np.searchsorted(times, GATE_TIME, side="left")) + 1)
    rows = max(1, TRACE_BLOCK // model.dim)
    for lo in range(0, pulse_rows, rows):
        hi = min(lo + rows, pulse_rows)
        # The squared real Dirichlet ratio; no complex amplitude is formed.
        probs = _dirichlet_ratio(model, m, n * np.minimum(times[lo:hi], GATE_TIME))[0]
        np.square(probs, out=probs)
        fidelity[lo:hi] = probs[:, tidx]
        leakage[lo:hi] = probs.sum(axis=1) - probs[:, tidx]
        probs[:, tidx] = 0.0
        off_peak[lo:hi] = probs.max(axis=1)
    for column in (fidelity, leakage, off_peak):
        column[pulse_rows:] = column[pulse_rows - 1]
    below = np.flatnonzero(fidelity < 1.0 - epsilon)
    start = int(below[-1]) + 1 if below.size else 0
    stopping = float(times[start]) if start < samples else None
    peak = float(off_peak[start:].max()) if start < samples else None
    return EvolutionTrace(
        n=n,
        m=m,
        epsilon=epsilon,
        target=target,
        times=tuple(times.tolist()),
        fidelity=tuple(fidelity.tolist()),
        leakage=tuple(leakage.tolist()),
        stopping_time=stopping,
        off_peak_past_stop=peak,
    )


def closed_form_stopping_time(
    model: HamiltonianModel, n: int, epsilon: float, t_max: float, samples: int = 200
) -> float | None:
    """The stopping time ``detect_stopping_time`` must find, from the closed form.

    Nothing acts after the pulse, so the target fidelity at time t is the
    squared Dirichlet kernel at offset d = n (1 - min(t, 1)), for every m
    in the window.  Its main lobe falls from 1 at d = 0 to 0 at |d| = 1
    and its side lobes stay below 0.05 < 1 - epsilon, so the fidelity is
    at least 1 - epsilon exactly from the crossing t* = 1 - d*/|n| on,
    where d* in (0, 1) solves kernel(d*)^2 = 1 - epsilon.  The stopping
    time is the first time of the same uniform grid at or after t*, or
    None when the grid ends before it.
    """
    check_epsilon(epsilon)
    check_t_max(t_max)
    check_samples(samples)
    model.check_window(n, 0)
    dim = model.dim
    lo, hi = 0.0, 1.0  # bisect the main lobe, decreasing on [0, 1]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        kernel = math.sin(math.pi * mid) / (dim * math.sin(math.pi * mid / dim))
        if kernel * kernel >= 1.0 - epsilon:
            lo = mid
        else:
            hi = mid
    crossing = max(0.0, GATE_TIME - lo / abs(n)) if n else 0.0
    times = np.linspace(0.0, t_max, samples)
    start = int(np.searchsorted(times, crossing, side="left"))
    return float(times[start]) if start < samples else None


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
    epsilon: float = 1e-3,
    t_max: float = 4.0,
    samples: int = 200,
) -> list[SuperadditivityRow]:
    """Compare T(n-k, m) + T(k, m) against T(n, m) over split additions,
    for m in 0, 3 and -3.

    Splits keep both parts strictly smaller in magnitude than the whole,
    so each row asks whether two easier additions take at least as long
    in total as the one they compose to.
    """
    @cache
    def stop(nn: int, mm: int) -> float | None:
        return detect_stopping_time(model, nn, mm, epsilon, t_max, samples).stopping_time

    rows: list[SuperadditivityRow] = []
    for n in range(-n_max, n_max + 1):
        if abs(n) < 2:
            continue
        ks = range(1, n) if n > 0 else range(n + 1, 0)
        for k in ks:
            for m in (0, 3, -3):
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

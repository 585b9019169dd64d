"""Runtime configuration shared by ``evolve`` and ``verify``, and its bounds.

Every bound on a knob (ring size, integrator step, threshold, horizon,
grid size, term class bound) and the ring-window error live here, not
in ``dynamics`` or ``terms``, which import them back.  This module
imports no other qarith module, so reading a bound loads no layer and
no numpy.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

MIN_DIM = 8
# Largest ring.  One RK4 call costs O(D^2 log steps), with steps growing
# as D at the window edge: about 15 ms at D = 1024 on a 2-vCPU machine.
MAX_DIM = 1024
# Integrator step bounds.  Far below MIN_DT rounding costs RK4 its
# accuracy, and near 1e-308 the step count overflows.
MIN_DT = 1e-9
MAX_DT = 0.01
MAX_SAMPLES = 100_000
# Class sizes explode combinatorially (class 4 has ~2e12 terms), so
# exhaustive sweeps stop at class 3.
MAX_CLASS_BOUND = 3

# The verification suites, in the order ``verify all`` runs them.
SUITE_NAMES = (
    "hilbert", "gates", "dynamics", "stopping", "logic", "termalg", "bijection", "church",
)


def check_number(value: object, name: str) -> float:
    """``value`` as a float; booleans and non-numbers raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def check_dim(dim: object) -> None:
    """Ring size: an even integer in [MIN_DIM, MAX_DIM]."""
    if not isinstance(dim, int) or isinstance(dim, bool) or not (
        MIN_DIM <= dim <= MAX_DIM
    ) or dim % 2:
        raise ValueError(
            f"ring size D must be an even integer in [{MIN_DIM}, {MAX_DIM}], got {dim!r}"
        )


def check_dt(dt: object) -> None:
    """Integrator step bound, in [MIN_DT, MAX_DT]."""
    if not (MIN_DT <= check_number(dt, "dt") <= MAX_DT):
        raise ValueError(f"dt must lie in [{MIN_DT}, {MAX_DT}], got {dt!r}")


def check_epsilon(epsilon: object) -> None:
    """Stopping-time threshold margin, in (0, 0.5)."""
    if not (0.0 < check_number(epsilon, "epsilon") < 0.5):
        raise ValueError(f"epsilon must lie in (0, 0.5), got {epsilon!r}")


def check_samples(samples: object) -> None:
    """Trace grid size: an integer in [2, MAX_SAMPLES]."""
    if not isinstance(samples, int) or isinstance(samples, bool) or not (
        2 <= samples <= MAX_SAMPLES
    ):
        raise ValueError(f"samples must be an integer in [2, {MAX_SAMPLES}], got {samples!r}")


def check_t_max(t_max: object) -> None:
    """Trace horizon: positive and finite."""
    value = check_number(t_max, "t_max")
    if not (value > 0.0) or not math.isfinite(value):
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")


def check_class_bound(bound: object) -> None:
    """Class bound for exhaustive sweeps, in 0..MAX_CLASS_BOUND."""
    if not isinstance(bound, int) or isinstance(bound, bool) or not (0 <= bound <= MAX_CLASS_BOUND):
        raise ValueError(f"class bound must be in 0..{MAX_CLASS_BOUND}, got {bound!r}")


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


# Config document keys and the fields they set, in report order.
_JSON_FIELDS = {
    "D": "dim", "epsilon": "epsilon", "dt": "dt", "t_max": "t_max", "class_bound": "class_bound",
}


@dataclass(frozen=True)
class Config:
    """Shared knobs: ring size, detection threshold, integrator step, bounds."""

    dim: int = 32
    epsilon: float = 1e-3
    dt: float = 0.005
    t_max: float = 1.5
    class_bound: int = 2

    def __post_init__(self) -> None:
        check_dim(self.dim)
        check_epsilon(self.epsilon)
        check_dt(self.dt)
        check_t_max(self.t_max)
        check_class_bound(self.class_bound)

    def to_json_dict(self) -> dict:
        return {key: getattr(self, field) for key, field in _JSON_FIELDS.items()}

    @staticmethod
    def from_json_dict(obj: object) -> Config:
        if not isinstance(obj, dict):
            raise ValueError("config document must be a JSON object")
        for key in obj:
            if key not in _JSON_FIELDS:
                raise ValueError(f"unknown config key {key!r}")
        return Config(**{_JSON_FIELDS[key]: value for key, value in obj.items()})

    @staticmethod
    def from_file(path: str | Path) -> Config:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read config file {path!r}: {exc}") from exc
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path!r} is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ValueError(f"config file {path!r} nests too deeply to read") from None
        return Config.from_json_dict(obj)

"""Runtime configuration with pinned default tolerances."""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .dynamics import check_dim, check_dt, check_epsilon, check_number, check_t_max
from .terms import check_class_bound

DEFAULT_TOLERANCES: dict[str, float] = {
    "norm": 1e-12,         # gate norm preservation
    "linearity": 1e-12,    # gate linearity residual
    "inner": 1e-12,        # inner-product algebra
    "amplitude": 1e-15,    # amplitude drift through inverse gate pairs
    "unitary_exact": 1e-9,
    "unitary_numeric": 1e-6,
    "integrator": 1e-6,    # numeric vs closed-form state distance
    "subsystem": 1e-9,
    "fidelity": 1e-9,      # closed-form fidelity at whole-shift times
    "bookkeeping": 1e-9,   # fidelity + leakage vs norm
}


@dataclass(frozen=True)
class Config:
    """Shared knobs: ring size, detection threshold, integrator step, bounds."""

    dim: int = 32
    epsilon: float = 1e-3
    dt: float = 0.005
    t_max: float = 1.5
    class_bound: int = 2
    tolerances: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_dim(self.dim)
        check_epsilon(self.epsilon)
        check_dt(self.dt)
        check_t_max(self.t_max)
        check_class_bound(self.class_bound)
        if not isinstance(self.tolerances, Mapping):
            raise ValueError(f"tolerances must map names to numbers, got {self.tolerances!r}")
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance {name!r}")
            if not (check_number(value, f"tolerance {name!r}") > 0.0):
                raise ValueError(f"tolerance {name!r} must be positive, got {value!r}")

    def tol(self, name: str) -> float:
        if name not in DEFAULT_TOLERANCES:
            raise KeyError(f"unknown tolerance {name!r}")
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def with_overrides(self, **kwargs) -> Config:
        """Replace the given fields, skipping None values."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return dataclasses.replace(self, **updates) if updates else self

    def to_json_dict(self) -> dict:
        return {
            "D": self.dim,
            "epsilon": self.epsilon,
            "dt": self.dt,
            "t_max": self.t_max,
            "class_bound": self.class_bound,
            "tolerances": {k: self.tol(k) for k in DEFAULT_TOLERANCES},
        }

    @staticmethod
    def from_json_dict(obj: object) -> Config:
        if not isinstance(obj, dict):
            raise ValueError("config document must be a JSON object")
        known = {"D": "dim", "epsilon": "epsilon", "dt": "dt", "t_max": "t_max",
                 "class_bound": "class_bound", "tolerances": "tolerances"}
        kwargs = {}
        for key, value in obj.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[known[key]] = value
        return Config(**kwargs)

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
        return Config.from_json_dict(obj)

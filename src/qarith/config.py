"""Runtime configuration shared by ``evolve`` and ``verify``."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .dynamics import check_dim, check_dt, check_epsilon, check_t_max
from .terms import check_class_bound


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
        }

    @staticmethod
    def from_json_dict(obj: object) -> Config:
        if not isinstance(obj, dict):
            raise ValueError("config document must be a JSON object")
        known = {"D": "dim", "epsilon": "epsilon", "dt": "dt", "t_max": "t_max",
                 "class_bound": "class_bound"}
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

"""The ``qarith verify`` catalogue, asserted check by check.

One ``verify all --seed 0`` run per module consumes the seeded generator
exactly as the command line does; each check then becomes its own test
case, named after its function, that prints the check's detail.
"""

import dataclasses
import re

import numpy as np
import pytest

from qarith import dynamics, gates
from qarith.config import SUITE_NAMES, Config
from qarith.states import Ket
from qarith.terms import compile_term, cumulative_size, term_of
from qarith.verify import (
    STOP_SAMPLES,
    STOP_T_MAX,
    SUITES,
    check_norm_algebra,
    check_stop_near_unit,
    church_sweep,
    run_suite,
)

CHECKS = SUITES["all"]


def test_suite_names_match_the_catalogue():
    # The CLI offers SUITE_NAMES without importing verify (and numpy).
    assert list(SUITES) == [*SUITE_NAMES, "all"]


@pytest.fixture(scope="module")
def report():
    return run_suite("all", Config(), seed=0)


@pytest.mark.parametrize(
    "index", range(len(CHECKS)), ids=[fn.__name__.removeprefix("check_") for fn in CHECKS]
)
def test_check(report, index):
    check = report["checks"][index]
    print(f"{check['name']}: {check['detail']}")
    assert check["ok"], check["detail"]


@pytest.mark.parametrize("bumped", ["target", "last"])
def test_church_sweep_checks_the_ket_route(monkeypatch, bumped):
    # Dual evaluation runs on label tuples, so only the sweep's cross-check
    # can see a ket-route adder that raises one register by one: the sum's
    # target (a wrong state) or the last register (at times an ancilla, so
    # the ket route fails at the next multiplication instead).
    real = gates.apply_plus

    def off_by_one(state, roles=(0, 1)):
        out = real(state, roles)
        at = roles[1] if bumped == "target" else out.registers - 1
        return Ket(
            out.registers,
            {key[:at] + (key[at] + 1,) + key[at + 1:]: amp for key, amp in out.items()},
        )

    monkeypatch.setattr(gates, "apply_plus", off_by_one)
    cases, disagreements = church_sweep(1, 2000, np.random.default_rng(0))
    assert cases > 0 and disagreements
    assert all(d["agree"] and "ket_route" in d for d in disagreements)
    # one per term whose program adds: the first argument tuple of each
    adding = [
        delta
        for delta in range(cumulative_size(1))
        if any(step.kind is gates.GateKind.PLUS for step in compile_term(term_of(delta)).program.steps)
    ]
    assert len(disagreements) == len(adding)
    failed = [d for d in disagreements if isinstance(d["ket_route"], str)]
    assert bool(failed) == (bumped == "last")
    report = run_suite("church", Config(class_bound=1), seed=0)
    assert report["ok"] is False
    assert "ket_route" in report["checks"][0]["detail"]


@pytest.mark.parametrize("pair", [(1, 0), (4, -3)])
@pytest.mark.parametrize("steps", [-2, -1, 1, 2, None])
def test_stop_check_rejects_a_shifted_trace(monkeypatch, pair, steps):
    # One run's stopping time moved by whole grid steps (or lost) must fail
    # the check at the default epsilon, including every shift the earlier
    # rule "within one grid step of t = 1" caught.
    grid = STOP_T_MAX / (STOP_SAMPLES - 1)
    real = dynamics.detect_stopping_time

    def shifted(model, n, m, *rest):
        trace = real(model, n, m, *rest)
        if (n, m) != pair:
            return trace
        stop = None if steps is None else trace.stopping_time + steps * grid
        return dataclasses.replace(trace, stopping_time=stop)

    config = Config()
    assert check_stop_near_unit(config, np.random.default_rng(0)).ok
    monkeypatch.setattr(dynamics, "detect_stopping_time", shifted)
    result = check_stop_near_unit(config, np.random.default_rng(0))
    assert not result.ok
    assert f"({pair[0]},{pair[1]})" in result.detail


def test_church_sweep_unchanged():
    # Same cases, same verdict and the same generator draws as the sweep
    # over a prebuilt list of every term up to the bound gave.
    rng = np.random.default_rng(0)
    assert church_sweep(2, 50000, rng) == (49785, [])
    assert int(rng.integers(1 << 62)) == 3279818263252675505


def test_norm_algebra_sees_a_missing_conjugate(monkeypatch):
    def bilinear(self, other):
        return sum(amp * other._amps.get(key, 0j) for key, amp in self._amps.items())

    assert check_norm_algebra(Config(), np.random.default_rng(0)).ok
    monkeypatch.setattr(Ket, "inner", bilinear)
    assert not check_norm_algebra(Config(), np.random.default_rng(0)).ok


@pytest.mark.parametrize("seed", [-1, True, 1.0, "0"])
def test_run_suite_rejects_a_bad_seed(seed):
    with pytest.raises(ValueError, match=re.escape(f"non-negative integer, got {seed!r}")):
        run_suite("logic", Config(), seed=seed)

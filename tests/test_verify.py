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
from qarith.terms import MAX_CLASS_BOUND, compile_term, cumulative_size, render_term, term_of
from qarith.verify import (
    CHURCH_BUDGET,
    STOP_SAMPLES,
    STOP_T_MAX,
    SUITES,
    check_church_correspondence,
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


def _adding_terms(class_bound):
    return [
        delta
        for delta in range(cumulative_size(class_bound))
        if any(step.kind is gates.GateKind.PLUS for step in compile_term(term_of(delta)).program.steps)
    ]


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
    assert len(disagreements) == len(_adding_terms(1))
    failed = [d for d in disagreements if isinstance(d["ket_route"], str)]
    assert bool(failed) == (bumped == "last")
    report = run_suite("church", Config(class_bound=1), seed=0)
    assert report["ok"] is False
    assert "ket_route" in report["checks"][0]["detail"]


def test_church_check_sees_a_basis_lane_fault(monkeypatch):
    # An adder one unit too high on the basis lane: dual evaluation parts
    # from the integer recursion at the first term that adds.
    real = gates._run_labels

    def plus_one_more(steps, labels, valid):
        regs = list(labels)
        for step in steps:
            regs = real((step,), regs, 1)
            if step.kind is gates.GateKind.PLUS:
                regs[step.roles[1]] += 1
        return regs

    monkeypatch.setattr(gates, "_run_labels", plus_one_more)
    result = check_church_correspondence(Config(class_bound=1), np.random.default_rng(0))
    assert result.ok is False
    first = term_of(_adding_terms(1)[0])
    assert result.detail.startswith(f"first disagreement: {{'term': '{render_term(first)}'")
    assert "'agree': False" in result.detail


@pytest.mark.parametrize("class_bound", [Config().class_bound, MAX_CLASS_BOUND])
def test_church_draws_one_block_per_term(class_bound):
    # The sweep draws a term's sampled cases as one (quota, arity) block of
    # labels in -3..3. It must give the per-case draws and leave the
    # generator where they left it, for the quota of `verify all` and of
    # the largest class bound, and every arity up to 2**(class_bound + 1),
    # the most leaves a term of that class has.
    quota = max(1, CHURCH_BUDGET // cumulative_size(class_bound))
    for n in range(1, 2 ** (class_bound + 1) + 1):
        per_case, block = np.random.default_rng(n), np.random.default_rng(n)
        cases = [tuple(int(v) for v in per_case.integers(-3, 4, size=n)) for _ in range(quota)]
        assert list(map(tuple, block.integers(-3, 4, size=(quota, n)).tolist())) == cases
        assert int(per_case.integers(1 << 62)) == int(block.integers(1 << 62))


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

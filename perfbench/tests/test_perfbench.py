"""Tests of the benchmark itself; run with ``python -m pytest perfbench/tests``.

Smoke runs go through the real entry point with one op of each kind.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import ring_dynamics  # noqa: E402
import terms_eval  # noqa: E402
import wide_kets  # noqa: E402
from qarith import dynamics, gates, terms  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    result = smoke(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_two_seeds_give_the_same_metric_set():
    assert set(smoke("terms_eval", 2, 0)["metrics"]) == set(smoke("terms_eval", 3, 0)["metrics"])


@pytest.mark.parametrize("module", [terms_eval, ring_dynamics, wide_kets])
def test_input_digest_depends_only_on_the_seed(module):
    assert module.build(1, smoke=True).digest == module.build(1, smoke=True).digest
    assert module.build(1, smoke=True).digest != module.build(2, smoke=True).digest


def test_cli_input_digest_depends_only_on_the_seed():
    import cli_verify

    assert cli_verify.build(1).digest == cli_verify.build(1).digest
    assert cli_verify.build(1).digest != cli_verify.build(2).digest


def _wrong_eval(original):
    def fake(term, args):
        report = original(term, args)
        return dataclasses.replace(report, gate_result=report.gate_result + 1)

    return fake


def _late_stop(original):
    def fake(*args):
        trace = original(*args)
        return dataclasses.replace(trace, stopping_time=(trace.stopping_time or 0.0) + 0.1)

    return fake


def _flipped_program(original):
    return lambda program, state: original(program, state).scaled(-1.0)


@pytest.mark.parametrize(
    "module, target, name, corrupt",
    [
        (terms_eval, terms, "evaluate_gates", _wrong_eval),
        (ring_dynamics, dynamics, "detect_stopping_time", _late_stop),
        (wide_kets, gates, "run_program", _flipped_program),
    ],
)
def test_forced_wrong_output_shows_in_fail_ratio(monkeypatch, module, target, name, corrupt):
    wl = module.build(1, smoke=True)
    monkeypatch.setattr(target, name, corrupt(getattr(target, name)))
    samples = bench.run_loop(wl, 0.0, 0, max_ops=len(wl.decks[0]))
    summary = bench.summarize(samples)
    assert summary["fail_ratio"] > 0
    assert all(f["cause"] for f in samples.failures)


def test_an_op_that_raises_is_a_failure_with_its_cause():
    def boom():
        raise RecursionError("maximum recursion depth exceeded")

    wl = bench.Workload("t", [[bench.Op("k", "deep term", boom, (), lambda out: None)]], "d")
    samples = bench.run_loop(wl, 0.0, 0, max_ops=1)
    assert samples.failures == [{"kind": "k", "input": "deep term",
                                 "cause": "RecursionError: maximum recursion depth exceeded"}]


def test_core_rotation_visits_every_core_and_restores_the_affinity(monkeypatch):
    monkeypatch.setattr(bench, "ROTATE_S", 0.0)
    before = os.sched_getaffinity(0)
    seen = []
    op = bench.Op("k", "x", lambda: seen.append(os.sched_getaffinity(0)), (), lambda out: None)
    bench.run_loop(bench.Workload("t", [[op] * 4], "d", rotate_cores=True), 0.0, 0, max_ops=4)
    assert os.sched_getaffinity(0) == before
    if len(before) > 1:
        assert set().union(*seen) == before and all(len(cores) == 1 for cores in seen)


def test_every_per_layer_metric_names_its_target():
    targets = json.loads((HERE / "targets.json").read_text())
    assert list(targets) == [m["name"] for m in SPEC["per_layer"]]

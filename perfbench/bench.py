"""Shared machinery: the closed-loop op runner, statistics, child processes, environment.

Every workload is a closed loop with one client: an op starts when the
previous one has finished and been checked.  Only the library calls are
timed; generating and checking outputs happen between the timed
intervals.  Ops come in decks of fixed composition, shuffled by the
seed, and a run always ends on a deck boundary, so every run has
exactly the op mix the workload declares.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LAUNCHER = HERE / "launch.py"

# At least ten samples lie beyond p90 when a run times at least 100 ops.
MIN_OPS = 100
# On a shared host one core can run a single thread 1.5-2x slower than
# another for seconds to minutes.  A single-threaded loop moves to the next
# usable core this often, between ops, so that every run samples all of its
# cores instead of the one the scheduler happened to leave it on.
ROTATE_S = 0.25
CHILD_TIMEOUT_S = 170


@dataclass
class Op:
    """One closed-loop operation: ``fn(*args)`` is timed, ``check(output)`` is not.

    ``check`` returns None when the output is right, else the cause.
    """

    kind: str
    label: str
    fn: object
    args: tuple
    check: object


@dataclass
class Workload:
    name: str
    decks: list
    digest: str
    # Untimed hooks run around every deck (cache resets and cache accounting).
    before_deck: object = None
    after_deck: object = None
    extra: dict = field(default_factory=dict)
    # Single-threaded in-process loops rotate over the usable cores (ROTATE_S).
    rotate_cores: bool = False


@dataclass
class Samples:
    # Compact, so that what a run keeps per op hardly moves peak_rss_mb with the op count.
    latencies: array = field(default_factory=lambda: array("d"))
    kinds: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def cause(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc)[:200]}"


def run_loop(wl: Workload, seconds: float, min_ops: int, max_ops: int | None = None, tracer=None) -> Samples:
    """Run whole decks until ``seconds`` and ``min_ops`` are both reached, or ``max_ops`` ops."""
    cores = sorted(os.sched_getaffinity(0))
    try:
        return _loop(wl, seconds, min_ops, max_ops, tracer, cores if wl.rotate_cores else [])
    finally:
        if wl.rotate_cores:
            os.sched_setaffinity(0, cores)


def _loop(wl: Workload, seconds: float, min_ops: int, max_ops: int | None, tracer, cores: list) -> Samples:
    s = Samples()
    begin = moved = time.perf_counter()
    deck_no = turn = 0
    while True:
        deck = wl.decks[deck_no % len(wl.decks)]
        deck_no += 1
        if wl.before_deck is not None:
            wl.before_deck()
        for op in deck:
            if len(cores) > 1 and time.perf_counter() - moved >= ROTATE_S:
                turn += 1
                os.sched_setaffinity(0, {cores[turn % len(cores)]})
                moved = time.perf_counter()
            if tracer is not None:
                tracer.op = len(s.latencies)
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                out = op.fn(*op.args)
                err = None
            except Exception as exc:  # an op that raises is a failed op, and the run goes on
                out, err = None, cause(exc)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            if err is None:
                try:
                    err = op.check(out)
                except Exception as exc:
                    err = "check raised " + cause(exc)
            out = None
            s.latencies.append(dt)
            s.kinds.append(op.kind)
            if err:
                s.failures.append({"kind": op.kind, "input": op.label, "cause": err})
            if max_ops is not None and len(s.latencies) >= max_ops:
                break
        if wl.after_deck is not None:
            wl.after_deck()
        if max_ops is not None:
            if len(s.latencies) >= max_ops:
                break
        elif len(s.latencies) >= min_ops and time.perf_counter() - begin >= seconds:
            break
    s.wall_s = time.perf_counter() - begin
    return s


def _kind_at(sorted_kinds: list, q: float) -> dict:
    """Op kind at quantile ``q`` and its share of the nearest 10% of samples."""
    n = len(sorted_kinds)
    pos = min(n - 1, int(q * (n - 1) + 0.5))
    half = max(1, n // 20)
    window = sorted_kinds[max(0, pos - half): pos + half + 1]
    kind = sorted_kinds[pos]
    return {"kind": kind, "share_nearby": round(window.count(kind) / len(window), 3)}


def summarize(s: Samples) -> dict:
    """Throughput, latency quantiles and failure ratio of one loop."""
    lat = s.latencies
    ok = len(lat) - len(s.failures)
    deciles = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else [lat[0]] * 9
    order = sorted(range(len(lat)), key=lat.__getitem__)
    sorted_kinds = [s.kinds[i] for i in order]
    mix = {k: s.kinds.count(k) for k in sorted(set(s.kinds))}
    return {
        "ops_per_s": ok / sum(lat),
        "latency_p50_ms": deciles[4] * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "samples": len(lat),
        "fail_ratio": len(s.failures) / len(lat),
        "timed_s": sum(lat),
        "loop_wall_s": s.wall_s,
        "p50_at": _kind_at(sorted_kinds, 0.5),
        "p90_at": _kind_at(sorted_kinds, 0.9),
        "mix": mix,
    }


def digest(obj) -> str:
    """Stable digest of generated inputs (any JSON-serializable structure)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- child processes ---------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def qarith(args: list, stdin: str | None = None, traced: Path | None = None):
    """Run one qarith process; returns (wall seconds, CompletedProcess).

    Untraced children are plain ``python -m qarith``.  A traced child starts
    through the benchmark's launcher, which records spans into ``traced``.
    """
    if traced is None:
        cmd = [sys.executable, "-m", "qarith", *args]
    else:
        cmd = [sys.executable, str(LAUNCHER), str(traced), *args]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, input=stdin, capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - t0, proc


def verify_once(seed: int, traced: Path | None = None) -> dict:
    """One timed ``qarith verify all --seed S``; its report must say ``"ok": true``."""
    dt, proc = qarith(["verify", "all", "--seed", str(seed)], traced=traced)
    problem = None
    if proc.returncode != 0:
        problem = f"verify all exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    else:
        try:
            if json.loads(proc.stdout).get("ok") is not True:
                problem = "verify all report is not ok"
        except json.JSONDecodeError as exc:
            problem = f"verify all printed invalid JSON: {exc}"
    return {"s": dt, "stdout": proc.stdout, "problem": problem}


def verify_summary(runs: list) -> dict:
    """Median time of the runs; their stdout must be byte-identical."""
    problems = [r["problem"] for r in runs if r["problem"]]
    if len({r["stdout"] for r in runs}) > 1:
        problems.append("verify all stdout differs between repeats")
    return {
        "verify_all_s": statistics.median(r["s"] for r in runs),
        "runs_s": [r["s"] for r in runs],
        "stdout_sha256": hashlib.sha256(runs[0]["stdout"].encode()).hexdigest()[:16],
        "failed": sum(1 for r in runs if r["problem"]),
        "problems": problems,
    }


# --- environment --------------------------------------------------------------


def pinned_threads() -> int:
    """BLAS/OpenMP thread count pinned for every run: the usable cores, at most 2."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def pin_threads() -> None:
    """Must run before numpy is imported; children inherit the environment."""
    n = str(pinned_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def _openblas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import numpy

    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_caches() -> dict:
    """CPU cache sizes from the read-only CPU description in sysfs, when there is one."""
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_lib = "unknown"
    return {
        "cpu": _cpu_model(),
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_caches": _cpu_caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_lib,
        "blas_threads_pinned": pinned_threads(),
        "blas_threads_reported": _openblas_threads(),
    }

"""Span tracing of calls into qarith's layers, installed from outside the library.

``install(tracer)`` replaces every public module-level function of every
loaded ``qarith`` module with a timing wrapper, in every module that holds
a reference to it, so calls from one layer into another are recorded too.
It also wraps the ``Ket`` constructor and the ``Ket`` methods the
benchmark reports on, the two lazily built model matrices, each
verification suite's checks and the CLI command handlers.

A span is (name, start, end, parent span, op id).  Spans stay in memory
in flat arrays and are written out once, when the run ends.  A span's
self time is its duration minus the durations of its direct children;
calls are strictly nested in one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# Layer of each module; configuration is reported under the CLI layer.
LAYERS = {
    "states": "states",
    "gates": "gates",
    "dynamics": "dynamics",
    "logic": "logic",
    "terms": "terms",
    "verify": "verify",
    "cli": "cli",
    "config": "cli",
}

# Verify's checks are wrapped per suite below; church_sweep is the church
# suite's own loop, so its time stays in that suite's self time.
_VERIFY_SKIP = ("check_", "church_sweep")

WARM_SPANS = (
    "dynamics.HamiltonianModel.fourier_matrix",
    "dynamics.HamiltonianModel.shift_generator",
)

# lru-cached functions whose hit ratio the benchmark reports.
CACHED = ("term_of", "compile_term", "index_of")


class Tracer:
    """In-memory span store.  ``op`` is the id of the op being run; -1 is set-up."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.fails: Counter = Counter()
        self.counts: Counter = Counter()
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        if self.op >= 0:
            self.counts[name] += amount

    def span(self, fn, name: str, namer=None, after=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``namer(args)`` may refine the name per call; ``after(args, result)``
        may add counts.  A call that raises is counted under ``fail``.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = namer(args, kwargs) if namer else name
            idx = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                if tracer.op >= 0:
                    tracer.fails[label] += 1
                raise
            tracer._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        # lru_cache wrappers keep their cache controls reachable through the wrapper.
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def aggregate(self) -> dict:
        """Per-name calls and self time over op spans, plus warm time over all spans."""
        n = len(self.start)
        stats: dict = {"spans": n, "names": {}, "fails": dict(self.fails), "counts": dict(self.counts)}
        if n == 0:
            stats["model_warm_s"] = 0.0
            return stats
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op_id, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        in_op = op >= 0
        calls = np.bincount(name_id[in_op], minlength=len(self.names))
        self_sum = np.bincount(name_id[in_op], weights=self_time[in_op], minlength=len(self.names))
        all_self = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        for i, name in enumerate(self.names):
            if calls[i]:
                stats["names"][name] = {"calls": int(calls[i]), "self_s": float(self_sum[i])}
        stats["model_warm_s"] = float(
            sum(all_self[self._ids[w]] for w in WARM_SPANS if w in self._ids)
        )
        return stats

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                names=np.array(self.names, dtype=str),
                name_id=np.frombuffer(self.name_id, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                op=np.frombuffer(self.op_id, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
            )


def _is_public_function(value: object) -> bool:
    if isinstance(value, types.FunctionType):
        return True
    # functools.lru_cache wrappers
    return callable(value) and hasattr(value, "cache_info") and hasattr(value, "__wrapped__")


def _qarith_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items()) if name == "qarith" or name.startswith("qarith.")]


def _cli_name(fn_name: str) -> str:
    if fn_name.startswith("cmd_"):
        return fn_name[4:].replace("_", "-")
    return fn_name


def install(tracer: Tracer) -> dict:
    """Wrap qarith's public functions; returns the original cached functions by name."""
    import qarith.cli  # noqa: F401  (load every layer before patching)
    from qarith import dynamics, states, verify

    modules = _qarith_modules()
    wrappers: dict[int, object] = {}
    cached: dict[str, object] = {}

    def after_apply_gate(args, kwargs, result):
        state = args[0] if args else kwargs["state"]
        tracer.count("gates.components_relabeled", len(state))

    def after_trace(args, kwargs, result):
        tracer.count("dynamics.trace_samples", len(result.times))

    def after_eval(args, kwargs, result):
        if not result.agree and tracer.op >= 0:
            tracer.fails["terms.evaluate_gates"] += 1

    def trace_name(args, kwargs):
        model = args[0] if args else kwargs["model"]
        return f"dynamics.detect_stopping_time.D{model.dim}"

    special = {
        "gates.apply_gate": {"after": after_apply_gate},
        "dynamics.detect_stopping_time": {"namer": trace_name, "after": after_trace},
        "terms.evaluate_gates": {"after": after_eval},
    }

    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not _is_public_function(value):
                continue
            home = getattr(value, "__module__", "") or ""
            if not home.startswith("qarith."):
                continue
            short = home.split(".", 1)[1]
            if short not in LAYERS:
                continue
            if short == "verify" and value.__name__.startswith(_VERIFY_SKIP):
                continue
            key = id(value)
            if key not in wrappers:
                fn_name = value.__name__
                if short == "cli":
                    fn_name = _cli_name(fn_name)
                name = f"{LAYERS[short]}.{fn_name}"
                wrappers[key] = tracer.span(value, name, **special.get(name, {}))
                if value.__name__ in CACHED and short == "terms":
                    cached[value.__name__] = value
            setattr(module, attr, wrappers[key])

    # Ket construction, and the methods the benchmark reports on.
    ket = states.Ket
    init = ket.__init__

    def after_init(args, kwargs, result):
        tracer.count("states.Ket.components", len(args[0]))

    ket.__init__ = tracer.span(init, "states.Ket", after=after_init)
    for meth in ("inner", "tensor", "to_json"):
        setattr(ket, meth, tracer.span(getattr(ket, meth), f"states.Ket.{meth}"))
    ket.from_json = staticmethod(tracer.span(ket.__dict__["from_json"].__func__, "states.Ket.from_json"))

    # The model's dense matrices are built on first touch.
    model_cls = dynamics.HamiltonianModel
    for prop_name in ("fourier_matrix", "shift_generator"):
        prop = model_cls.__dict__[prop_name]
        new = type(prop)(tracer.span(prop.func, f"dynamics.HamiltonianModel.{prop_name}"))
        new.__set_name__(model_cls, prop_name)
        setattr(model_cls, prop_name, new)

    # One span per verification suite around each of its checks.
    suite_of = {}
    for suite, fns in verify.SUITES.items():
        if suite != "all":
            for fn in fns:
                suite_of[fn] = tracer.span(fn, f"verify.{suite}")
    for suite, fns in list(verify.SUITES.items()):
        verify.SUITES[suite] = tuple(suite_of[fn] for fn in fns)
    return cached


def cache_counts(cached: dict) -> dict:
    """Hits and misses of the reported lru caches, read from ``cache_info()``."""
    out = {}
    for name in CACHED:
        fn = cached.get(name)
        info = fn.cache_info() if fn is not None and hasattr(fn, "cache_info") else None
        out[name] = [info.hits, info.misses] if info is not None else [0, 0]
    return out


def dump_child(path: Path, tracer: Tracer, cached: dict, import_s: float) -> None:
    """Aggregate of one traced CLI process, for the parent to merge."""
    doc = tracer.aggregate()
    doc["cache"] = cache_counts(cached)
    doc["import_s"] = import_s
    path.write_text(json.dumps(doc))

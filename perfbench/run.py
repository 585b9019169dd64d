"""qarith benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

NAME is one of terms_eval, ring_dynamics, wide_kets, cli_verify, or
``all``, which runs each workload in its own process and prints every
metric by workload.  The program under test is the qarith source tree in
``src/`` next to this directory; nothing is installed.

With ``--trace 0`` a run measures the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it runs a fixed number of ops untraced, then the same
ops with span wrappers on every qarith layer, and reports the per-layer
metrics.  ``--smoke`` runs one op of each kind, for the benchmark's tests.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it is the full report (environment, input
digest, sample counts, failure causes, latency mix), also written to
.perfbench_out/ in the checkout.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import bench  # noqa: E402

bench.pin_threads()  # before anything imports numpy

WORKLOADS = ("terms_eval", "ring_dynamics", "wide_kets", "cli_verify")
SETUP_REPEATS = 3
# Ops in each half of a traced run, in whole decks.
TRACE_OPS = {"terms_eval": 8000, "ring_dynamics": 100, "wide_kets": 100, "cli_verify": 40}
# Untraced `qarith verify all` runs in a traced cli_verify run; their median is verify.all_s.
VERIFY_REPEATS = 2


def load_spec() -> dict:
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def failure_report(failures: list) -> dict:
    return {
        "count": len(failures),
        "by_cause": dict(Counter(f"{f['kind']}: {f['cause']}" for f in failures).most_common(20)),
        "first": failures[:20],
    }


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def build_repeated(module, seed: int, repeats: int, smoke: bool):
    """Set the workload up ``repeats`` times; returns the last, the times and the digests."""
    times, digests, wl = [], [], None
    for _ in range(repeats):
        wl = None  # release the previous inputs first
        t0 = time.perf_counter()
        wl = module.build(seed, smoke)
        times.append(time.perf_counter() - t0)
        digests.append(wl.digest)
    return wl, times, digests


def timed_run(module, args, import_s: float) -> tuple:
    report, problems = {}, []
    repeats = 2 if args.smoke else SETUP_REPEATS
    wl, build_s, digests = build_repeated(module, args.seed, repeats, args.smoke)
    if module.IN_PROCESS:
        setup_s = import_s + statistics.median(build_s)
        report["setup"] = {"import_s": import_s, "build_s": build_s}
    else:
        setup_s, help_s, help_problems = module.startup_s(3 if args.smoke else module.HELP_REPEATS)
        problems += help_problems
        report["setup"] = {"help_s": help_s, "build_s": build_s}
    if len(set(digests)) != 1:
        problems.append(f"same seed gave different input digests: {digests}")
    if args.smoke:
        samples = bench.run_loop(wl, 0.0, 0, max_ops=len(wl.decks[0]))
    else:
        samples = bench.run_loop(wl, args.seconds, bench.MIN_OPS)
    # Read before the statistics, whose sorted copies grow with the op count.
    peak_rss = peak_rss_mb(module.IN_PROCESS)
    summary = bench.summarize(samples)
    values = {
        "ops_per_s": summary["ops_per_s"],
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_p90_ms": summary["latency_p90_ms"],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
    }
    report.update(inputs_digest=digests[0], summary=summary, failures=failure_report(samples.failures))
    failed = len(samples.failures)
    return values, report, problems, samples.attempted, failed


def merge_children(docs: list) -> tuple:
    """Sum the per-layer aggregates of traced CLI processes."""
    agg = {"names": {}, "fails": Counter(), "counts": Counter(), "model_warm_s": 0.0, "spans": 0}
    cache: dict = {}
    for doc in docs:
        for name, st in doc["names"].items():
            into = agg["names"].setdefault(name, {"calls": 0, "self_s": 0.0})
            into["calls"] += st["calls"]
            into["self_s"] += st["self_s"]
        agg["fails"].update(doc["fails"])
        agg["counts"].update(doc["counts"])
        agg["model_warm_s"] += doc["model_warm_s"]
        agg["spans"] += doc["spans"]
        for fn, (hits, misses) in doc["cache"].items():
            into = cache.setdefault(fn, [0, 0])
            into[0] += hits
            into[1] += misses
    return agg, cache


def layer_values(spec: list, agg: dict, cache: dict, special: dict) -> dict:
    """Resolve each per-layer metric name against the trace aggregate; idle layers read 0."""
    values = {}
    for metric in spec:
        name = metric["name"]
        base, _, stat = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif stat == "hit_ratio":
            hits, misses = cache.get(base.split(".", 1)[1], (0, 0))
            values[name] = hits / (hits + misses) if hits + misses else 0.0
        elif stat in ("calls", "self_s"):
            values[name] = agg["names"].get(base, {}).get(stat, 0)
        elif stat == "fail":
            values[name] = agg["fails"].get(base, 0)
        else:
            values[name] = agg["counts"].get(name, 0)
    return values


def traced_run(module, args, spec: list) -> tuple:
    import tracing

    name = args.workload
    report, problems = {}, []
    wl = module.build(args.seed, args.smoke)
    digest = wl.digest
    ops = len(wl.decks[0]) if args.smoke else TRACE_OPS[name]
    base = bench.run_loop(wl, 0.0, 0, max_ops=ops)
    if module.IN_PROCESS:
        wl = None
        tracer = tracing.Tracer()
        cached = tracing.install(tracer)
        tracer.enabled = True
        wl = module.build(args.seed, args.smoke)
        tracer.enabled = False
        traced = bench.run_loop(wl, 0.0, 0, max_ops=ops, tracer=tracer)
        agg = tracer.aggregate()
        tracer.write(bench.OUT / f"{name}.spans.npz")
        cache = wl.extra.get("cache") or tracing.cache_counts(cached)
        import_s = 0.0
        verify = {"verify_all_s": 0.0, "runs_s": [], "failed": 0, "problems": []}
    else:
        out_dir = bench.OUT / f"{name}.spans"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        wl.extra["runner"].traced_dir = out_dir
        traced = bench.run_loop(wl, 0.0, 0, max_ops=ops)
        runs = [bench.verify_once(args.seed) for _ in range(VERIFY_REPEATS)]
        runs.append(bench.verify_once(args.seed, traced=out_dir / "verify"))
        verify = bench.verify_summary(runs)
        # The traced run's time includes the wrappers; only its stdout counts.
        verify["verify_all_s"] = statistics.median(verify["runs_s"][:VERIFY_REPEATS])
        docs = [json.loads(p.read_text()) for p in sorted(out_dir.glob("*.json"))]
        agg, cache = merge_children(docs)
        import_s = statistics.median([d["import_s"] for d in docs])
    if wl.digest != digest:
        problems.append("same seed gave different input digests")
    problems += verify["problems"]
    untraced_sum, traced_sum = bench.summarize(base), bench.summarize(traced)
    special = {
        "dynamics.model_warm_s": agg["model_warm_s"],
        "cli.import_s": import_s,
        "verify.all_s": verify["verify_all_s"],
        "trace.overhead_ratio": untraced_sum["ops_per_s"] / traced_sum["ops_per_s"],
    }
    values = layer_values(spec, agg, cache, special)
    report.update(inputs_digest=digest, spans=agg["spans"], untraced=untraced_sum, traced=traced_sum,
                  verify=verify, failures=failure_report(base.failures + traced.failures))
    attempted = base.attempted + traced.attempted + len(verify["runs_s"])
    failed = len(base.failures) + len(traced.failures) + verify["failed"]
    return values, report, problems, attempted, failed


def run_one(args) -> int:
    if not (bench.SRC / "qarith" / "__init__.py").is_file():
        print(f"error: no qarith source tree at {bench.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench.SRC))
    module = importlib.import_module(args.workload)
    import_s = time.perf_counter() - START
    import qarith

    if not qarith.__file__.startswith(str(bench.SRC)):
        print(f"error: imported qarith from {qarith.__file__}, not {bench.SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, report, problems, attempted, failed = traced_run(module, args, metrics)
    else:
        values, report, problems, attempted, failed = timed_run(module, args, import_s)
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "why": module.WHY, "env": bench.environment(), "problems": problems,
            **report, "result": result}
    bench.OUT.mkdir(parents=True, exist_ok=True)
    (bench.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(full, indent=1))
    print(json.dumps(full))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by workload."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return proc.returncode or 1
        full, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} digest={full['inputs_digest']}")
        if not args.trace:
            s = full["summary"]
            print(f"   fail_ratio {s['fail_ratio']:.6g}  samples {s['samples']}  "
                  f"p50 at {s['p50_at']['kind']}  p90 at {s['p90_at']['kind']}")
        for metric, v in result["metrics"].items():
            print(f"   {metric:<48} {v['value']:>16.6g} {v['unit']}")
            totals["metrics"][f"{name}.{metric}"] = v
        for cause, count in full["failures"]["by_cause"].items():
            print(f"   FAILED x{count}: {cause}")
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
    print(json.dumps(totals))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one op of each kind (tests)")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Traced qarith process: ``python perfbench/launch.py OUT_PREFIX <qarith arguments>``.

Imports ``qarith.cli`` (timed as the CLI layer's import cost), installs
the benchmark's span wrappers, runs ``qarith.cli.main`` on the remaining
arguments and exits with its code.  On the way out it writes the spans
to OUT_PREFIX.npz and their per-layer aggregate to OUT_PREFIX.json.
"""

import sys
import time
from pathlib import Path

import bench

bench.pin_threads()
sys.path.insert(0, str(bench.SRC))

import tracing  # noqa: E402  (after the thread pin: imports numpy)


def main() -> int:
    out = Path(sys.argv[1])
    t0 = time.perf_counter()
    import qarith.cli

    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    cached = tracing.install(tracer)
    tracer.op = 0
    tracer.enabled = True
    try:
        return qarith.cli.main(sys.argv[2:])
    finally:
        tracer.enabled = False
        out.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(out.with_suffix(".npz"))
        tracing.dump_child(out.with_suffix(".json"), tracer, cached, import_s)


if __name__ == "__main__":
    sys.exit(main())

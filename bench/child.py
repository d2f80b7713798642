"""Child process of one benchmark run; ``run.py`` starts it.

    python3 bench/child.py MODE WORKLOAD SEED SECONDS SPAWNED_AT

MODE is ``probe`` (import the CLI and stop), ``reference`` (import only
numpy and argparse, the CLI's dependencies, and stop), ``run`` (the timed
closed loop) or ``trace`` (the traced run). SPAWNED_AT is the parent's
``time.monotonic()`` just before it started this process. That clock is
system-wide on Linux, so its difference to the moment ``import
spincorr.cli`` returns is the set-up time, interpreter start included.
The last line of stdout is one JSON object.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds, spawned_at = argv
    if mode == "reference":
        import argparse  # noqa: F401
        import numpy  # noqa: F401
    else:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import spincorr.cli as cli

    setup_s = time.monotonic() - float(spawned_at)

    import json

    if mode in ("reference", "probe"):
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import tempfile

    import numpy

    import measure
    import workloads

    seed, seconds = int(seed), float(seconds)
    golden = []
    if seed == workloads.DEFAULT_SEED:
        with open(os.path.join(os.path.dirname(__file__), "golden.json")) as fh:
            golden = json.load(fh)[workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        stream = measure.Stream(workload, seed, os.path.join(tmp, "sweep.csv"), golden)
        if mode == "run":
            warmup, records, speeds = measure.timed_run(cli, stream, seconds)
            metrics = measure.end_to_end(records, speeds)
            wall = measure.wall_clock(records)
            checked = [warmup] + records
        else:
            tracer, checked, metrics = measure.traced_run(cli, stream, seconds)
            records, wall = checked, {}
            tracer.write_csv(os.path.join(OUT_DIR, f"spans-{workload}.csv"))
    result = {
        "setup_s": setup_s,
        "wall": wall,
        "numpy": numpy.__version__,
        "metrics": metrics,
        **measure.summary(records),
        "correct": not any(r.status == "wrong" for r in checked),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

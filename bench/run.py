"""Benchmark of the spincorr CLI: one workload, one run, one JSON line.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the repository root (or a checkout of it). The workload runs in a
fresh child process that calls ``spincorr.cli.main(argv)`` in a closed
loop on inputs generated from ``--seed``, after one warm-up call, and
checks every call's output outside the timed region.

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``. Their times are scaled by the machine's speed at the
moment they were taken, as ``reference.py`` explains; the unscaled wall
times are printed above the result line. ``setup_s`` is the time from
process start until ``import spincorr.cli`` returns, in nine fresh
processes (eight import-only probes and the workload child), each right
after a process that imports only the CLI's dependencies, and scaled as
``reference.scaled_setup_s`` says. One untimed probe runs first so
compiled bytecode is in place. All of them start before the timed loop. With ``--trace 1`` the child instead
runs a fixed list of calls untraced and then traced, and the result holds
the per-module metrics. The last line of stdout is the result object; the
lines above it repeat the metrics with units and record the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import reference
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PACKAGE = os.path.join(ROOT, "src", "spincorr")
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170


def _child(mode: str, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), mode, workload]
    argv += [str(seed), str(seconds)]
    argv.append(repr(time.monotonic()))
    proc = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines() -> int:
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def environment(numpy_version: str) -> dict:
    """Recorded beside each result; nothing is gated on it."""
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in blas},
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"run.py: no spincorr sources under {ROOT}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    mode = "trace" if args.trace else "run"
    if args.trace:
        child = _child(mode, args.workload, args.seed, args.seconds)
    else:
        _child("probe", args.workload, args.seed, args.seconds)
        setups, references = [], []
        for probe in ["probe"] * SETUP_PROBES + [mode]:
            references.append(_child("reference", "", 0, 0)["setup_s"])
            child = _child(probe, args.workload, args.seed, args.seconds)
            setups.append(child["setup_s"])
        child["metrics"]["setup_s"] = reference.scaled_setup_s(setups, references)
        child["wall"]["setup_s"] = statistics.median(setups)
    metrics = child["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {sorted(units)}")

    print("env " + json.dumps(environment(child["numpy"])))
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} calls={child['attempted']} failed={child['failed']} "
        f"wrong={child['wrong']}"
    )
    for reason, count in child["reasons"]:
        print(f"failure x{count}: {reason}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    for name, value in child["wall"].items():
        print(f"unscaled {name} = {value!r} {units[name]}")
    result = {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

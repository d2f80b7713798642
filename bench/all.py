"""Every workload, untraced and traced, in one table.

    python3 bench/all.py --seed 1 --seconds 30

Runs ``run.py`` once per workload with ``--trace 0`` and once with
``--trace 1``, prints each metric by name with its unit per workload, then
one JSON object with all results. Exits non-zero if any run fails or any
output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 f"--workload={workload}", f"--seed={args.seed}",
                 f"--seconds={args.seconds}", f"--trace={trace}"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            results[(workload, trace)] = json.loads(proc.stdout.splitlines()[-1])

    print(f"{'metric':36} {'unit':12}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for trace in (0, 1):
        for name, metric in results[(WORKLOADS[0], trace)]["metrics"].items():
            values = [results[(w, trace)]["metrics"][name]["value"] for w in WORKLOADS]
            print(f"{name:36} {metric['unit']:12}" + "".join(f"{v:14.6g}" for v in values))
    for key in ("attempted", "failed", "correct"):
        row = [results[(w, 0)][key] for w in WORKLOADS]
        print(f"{key:49}" + "".join(f"{str(v):>14}" for v in row))
    print(json.dumps({f"{w}/trace{t}": r for (w, t), r in results.items()}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

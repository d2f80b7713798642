"""Write ``golden.json``: output digests of the first calls of each
workload at the default seed.

    python3 bench/make_golden.py

The digests pin the CLI's text and CSV output byte for byte, so rerun this
only on a commit whose output is known to be right. Calls that raise get
an empty digest and are checked by the structural checks alone.
"""

import json
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spincorr.cli as cli  # noqa: E402

import measure  # noqa: E402
import workloads  # noqa: E402

GOLDEN_CALLS = {"verify": 200, "sweep": 300, "critical": 2000}


def main() -> int:
    golden = {}
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for workload, n in GOLDEN_CALLS.items():
            stream = measure.Stream(
                workload, workloads.DEFAULT_SEED, os.path.join(tmp, "sweep.csv"), []
            )
            records = stream.run(cli, stream.take(n))
            wrong = [r.reason for r in records if r.status == "wrong"]
            if wrong:
                raise SystemExit(f"{workload}: output check failed: {wrong[0]}")
            golden[workload] = [r.digest for r in records]
    with open(os.path.join(BENCH_DIR, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs and output checks for the three benchmark workloads.

Each workload is an endless stream of CLI calls (``Call``) derived from the
workload seed alone, so the same seed always yields the same argv list.
Only the standard library is used here: the inputs must not depend on the
program under test, and the checks must not trust it.

- ``verify``: ``verify --seed s_i --count 4``; one item is one verified
  state.
- ``sweep``: ``sweep`` over either model with 120 CSV rows per call, split
  over one to three series members; one item is one CSV row. Models come
  in shuffled blocks of 20 calls: 7 isodm, 13 xxz.
- ``critical``: one ``critical`` call per item. Draws come in shuffled
  blocks of 40: 34 bracket a root and 6 isodm draws have no root in
  [-50, 50] (d > 8.3, documented exit 5).

``tail_calls`` are a few fixed ``critical`` calls in the strong-coupling
tail (|d| or |b| >= 720), where the program raises ``OverflowError``. They
are not part of any workload, whose calls must all succeed; the traced
run makes them separately and reports how many raise.

Input classes differ in cost, so the blocks are sized to keep the median
and the 90th percentile of call time inside one class each, not on the
boundary between two, where they would jump with small speed changes.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("verify", "sweep", "critical")
DEFAULT_SEED = 1

VERIFY_STATES_PER_CALL = 4
VERIFY_GRID_POINTS = 2000  # the oracle grid the verify command prints
SWEEP_ROWS_PER_CALL = 120
SWEEP_J_LIMIT = 20.0
SWEEP_BLOCK = (("isodm", 7), ("xxz", 13))
CRITICAL_BLOCK = (
    # (model:kind, draws per block of 40)
    ("isodm:root", 19),
    ("isodm:no_root", 6),
    ("xxz:root", 15),
)
TAIL_CALLS = 8
ROOT_RANGE = 50.0

CSV_HEADER = "j,series,C,N,Q,D_exact"
EXIT_OK = 0
EXIT_NO_BRACKET = 5


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its argv, the work items it covers, and the
    kind of input it was drawn as (documentation only; checks ignore it)."""

    argv: tuple[str, ...]
    items: int
    kind: str


def _num(x: float) -> str:
    return f"{x:.4f}"


def _blocks(rng: random.Random, block) -> Iterator[str]:
    """Endless kinds, each block of ``(kind, count)`` pairs shuffled."""
    while True:
        kinds = [kind for kind, n in block for _ in range(n)]
        rng.shuffle(kinds)
        yield from kinds


def verify_calls(seed: int) -> Iterator[Call]:
    rng = random.Random(f"verify:{seed}")
    while True:
        state_seed = rng.randrange(1, 2**31)
        yield Call(
            ("verify", f"--seed={state_seed}", f"--count={VERIFY_STATES_PER_CALL}"),
            VERIFY_STATES_PER_CALL,
            "states",
        )


def _xxz_member(rng: random.Random) -> str:
    delta = rng.uniform(-3.0, 3.0)
    # A quarter of the members have zero field, where the closed nonlocality
    # formula is valid only for delta in [-2, 0]: both sides appear.
    b = 0.0 if rng.random() < 0.25 else rng.uniform(-10.0, 10.0)
    return f"{_num(delta)}:{_num(b)}"


def sweep_calls(seed: int, out_path: str) -> Iterator[Call]:
    rng = random.Random(f"sweep:{seed}")
    for model in _blocks(rng, SWEEP_BLOCK):
        members = rng.choice((1, 2, 3))
        if model == "isodm":
            series = ",".join(_num(rng.uniform(0.0, 10.0)) for _ in range(members))
        else:
            series = ",".join(_xxz_member(rng) for _ in range(members))
        j_start = rng.uniform(-SWEEP_J_LIMIT, SWEEP_J_LIMIT - 4.0)
        j_end = rng.uniform(j_start + 4.0, SWEEP_J_LIMIT)
        yield Call(
            (
                "sweep",
                f"--model={model}",
                f"--series={series}",
                f"--j-start={_num(j_start)}",
                f"--j-end={_num(j_end)}",
                f"--j-steps={SWEEP_ROWS_PER_CALL // members}",
                f"--out={out_path}",
            ),
            SWEEP_ROWS_PER_CALL,
            model,
        )


def _critical_argv(rng: random.Random, model: str, kind: str) -> tuple[str, ...]:
    """Argv of one critical call; ``kind`` is root, no_root or tail."""
    sign = rng.choice((-1.0, 1.0))
    if model == "isodm":
        d = {
            "root": lambda: rng.uniform(0.0, 8.0),
            "no_root": lambda: rng.uniform(9.0, 600.0),
            "tail": lambda: sign * rng.uniform(720.0, 5000.0),
        }[kind]()
        return ("critical", "--model=isodm", f"--d={_num(d)}")
    delta = rng.uniform(-3.0, 3.0)
    b = rng.uniform(-10.0, 10.0) if kind == "root" else sign * rng.uniform(800.0, 5000.0)
    return ("critical", "--model=xxz", f"--delta={_num(delta)}", f"--b={_num(b)}")


def critical_calls(seed: int) -> Iterator[Call]:
    rng = random.Random(f"critical:{seed}")
    for kind in _blocks(rng, CRITICAL_BLOCK):
        yield Call(_critical_argv(rng, *kind.split(":")), 1, kind)


def tail_calls(seed: int) -> list[Call]:
    """Strong-coupling ``critical`` calls, half of them isodm, half xxz."""
    rng = random.Random(f"tail:{seed}")
    models = ("isodm", "xxz") * (TAIL_CALLS // 2)
    return [Call(_critical_argv(rng, model, "tail"), 1, f"{model}:tail") for model in models]


def calls(workload: str, seed: int, out_path: str) -> Iterator[Call]:
    """The endless call stream of ``workload`` for ``seed``; ``out_path`` is
    where sweep calls write their CSV."""
    if workload == "verify":
        return verify_calls(seed)
    if workload == "sweep":
        return sweep_calls(seed, out_path)
    if workload == "critical":
        return critical_calls(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _check_verify(call: Call, rc: int, out: str, err: str, csv: str | None) -> str | None:
    if rc != EXIT_OK:
        return f"exit {rc}"
    lines = out.splitlines()
    if not lines or not lines[0].endswith(
        f"count={VERIFY_STATES_PER_CALL} grid={VERIFY_GRID_POINTS}"
    ):
        return "verify header"
    if not re.search(r"^ppt/concurrence disagreements\s+= 0$", out, re.M):
        return "disagreements"
    if lines[-1] != "result: PASS":
        return "result line"
    return None


def _check_sweep(call: Call, rc: int, out: str, err: str, csv: str | None) -> str | None:
    if rc != EXIT_OK or out or err:
        return f"exit {rc}"
    if csv is None or not csv.endswith("\n"):
        return "missing CSV"
    rows = csv[:-1].split("\n")
    if rows[0] != CSV_HEADER:
        return "CSV header"
    if len(rows) != call.items + 1:
        return f"{len(rows) - 1} rows, expected {call.items}"
    for row in rows[1:]:
        fields = row.split(",")
        if len(fields) != 6:
            return "CSV field count"
        try:
            j, c, n, q, d = (float(fields[k]) for k in (0, 2, 3, 4, 5))
        except ValueError:
            return "CSV number"
        if not all(math.isfinite(v) for v in (j, c, n, q, d)):
            return "non-finite value"
        if abs(j) > SWEEP_J_LIMIT or not 0.0 <= c <= 1.0 or q > d + 1e-12:
            return f"row out of range: {row}"
    return None


def _check_critical(
    call: Call, rc: int, out: str, err: str, csv: str | None
) -> str | None:
    if rc == EXIT_NO_BRACKET:
        return None if not out and err.startswith("no bracket: ") else "exit 5 text"
    if rc != EXIT_OK or err:
        return f"exit {rc}"
    try:
        root = float(out)
    except ValueError:
        return "root not numeric"
    if not out.endswith("\n") or not -ROOT_RANGE <= root <= ROOT_RANGE:
        return "root out of range"
    return None


CHECKS = {
    "verify": _check_verify,
    "sweep": _check_sweep,
    "critical": _check_critical,
}


def check(workload: str, call: Call, rc: int, out: str, err: str, csv: str | None):
    """Return None if the call's outputs are correct, else a short reason."""
    return CHECKS[workload](call, rc, out, err, csv)


def digest(rc: int, out: str, err: str, csv: str | None) -> str:
    """Short fingerprint of everything one call printed or wrote."""
    blob = "\0".join((str(rc), out, err, csv or ""))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]

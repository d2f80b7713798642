"""The measuring loop of one workload and the metrics derived from it.

Every call goes through ``cli.main(argv)`` in-process, with stdout and
stderr captured. Only the ``cli.main`` call itself is timed; the output
check, the golden comparison and the CSV read happen outside the timed
region. A call fails when ``cli.main`` raises (status ``error``) or when
its exit code or output is wrong (status ``wrong``).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass

import reference
import workloads
from spans import EVALS, PARENT, RAISED, Tracer

# Enough timed calls that at least ten lie beyond the 90th percentile.
MIN_CALLS = 100
# Calls in a traced run, per second of run time; each runs untraced and
# traced. Sweep calls record about 4,000 spans each, so fewer are traced.
TRACE_CALLS_PER_SECOND = {"verify": 5, "sweep": 2, "critical": 80}
MODULES = ("cli", "models", "measures", "bloch", "qmat", "oracle", "rng")


@dataclass(frozen=True)
class Record:
    """Outcome of one call: wall time, items, status, output size and the
    digest of the output ("" when the call raised)."""

    ns: int
    items: int
    status: str  # "ok", "wrong" or "error"
    reason: str | None
    bytes_written: int
    digest: str


def run_call(cli, workload: str, call: workloads.Call, out_path: str, golden: str):
    """Time one ``cli.main`` call, then check what it printed and wrote.

    ``golden`` is the digest this call's output must match, or "" when
    there is none.
    """
    if workload == "sweep" and os.path.exists(out_path):
        os.unlink(out_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            rc = cli.main(list(call.argv))
        except Exception as exc:  # an escaped exception is a failed op
            ns = time.perf_counter_ns() - start
            reason = f"{type(exc).__name__}: {exc}"
            return Record(ns, call.items, "error", reason, 0, "")
        ns = time.perf_counter_ns() - start
    csv = None
    if workload == "sweep" and os.path.exists(out_path):
        with open(out_path, encoding="ascii", newline="") as fh:
            csv = fh.read()
        os.unlink(out_path)
    out_text, err_text = out.getvalue(), err.getvalue()
    reason = workloads.check(workload, call, rc, out_text, err_text, csv)
    digest = workloads.digest(rc, out_text, err_text, csv)
    if reason is None and golden and digest != golden:
        reason = "output differs from the golden output of this seed"
    size = len((out_text + err_text + (csv or "")).encode())
    status = "ok" if reason is None else "wrong"
    return Record(ns, call.items, status, reason, size, digest)


class Stream:
    """The call stream of one workload, numbered from 0, with the golden
    digest of each call when the seed has one."""

    def __init__(self, workload: str, seed: int, out_path: str, golden: list[str]):
        self.workload = workload
        self.out_path = out_path
        self.seed = seed
        self._calls = workloads.calls(workload, seed, out_path)
        self._golden = golden
        self.index = 0

    def take(self, n: int) -> list[tuple[workloads.Call, str]]:
        taken = []
        for _ in range(n):
            golden = self._golden[self.index] if self.index < len(self._golden) else ""
            taken.append((next(self._calls), golden))
            self.index += 1
        return taken

    def run(self, cli, taken) -> list[Record]:
        return [run_call(cli, self.workload, c, self.out_path, g) for c, g in taken]


def timed_run(cli, stream: Stream, seconds: float):
    """One warm-up call, then closed-loop calls for ``seconds`` of wall
    time and at least ``MIN_CALLS`` calls. A reference probe runs before
    the first call and after each call, outside the timed region; the
    machine's speed during a call (``reference.speed``) is taken from the
    probes on either side of it. Returns (warm-up, timed records, speed
    during each record)."""
    warmup = stream.run(cli, stream.take(1))[0]
    probes = [reference.probe_ns()]
    records = []
    start = time.monotonic()
    while len(records) < MIN_CALLS or time.monotonic() - start < seconds:
        records.extend(stream.run(cli, stream.take(1)))
        probes.append(reference.probe_ns())
    speeds = [reference.speed(probes[i : i + 2]) for i in range(len(records))]
    return warmup, records, speeds


def percentile_ms(ns: list[float], q: float) -> float:
    """Nearest-rank percentile of call times, in ms."""
    ordered = sorted(ns)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e6


def end_to_end(records: list[Record], speeds: list[float]) -> dict:
    """End-to-end metrics of a timed run, except set-up time. Call times
    are scaled by the machine's speed at the time (``reference.py``). A
    failed call counts as missing any latency limit, so it ranks as
    infinite."""
    scaled = [r.ns / s for r, s in zip(records, speeds)]
    done = sum(r.items for r in records if r.status == "ok")
    ns = [t if r.status == "ok" else math.inf for r, t in zip(records, scaled)]
    return {
        "items_per_s": done / (sum(scaled) / 1e9),
        "call_ms_p50": statistics.median(ns) / 1e6,
        "call_ms_p90": percentile_ms(ns, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": sum(r.status == "ok" for r in records) / len(records),
    }


def wall_clock(records: list[Record]) -> dict:
    """The unscaled call times of a timed run, for the record."""
    ns = [r.ns for r in records]
    return {
        "items_per_s": sum(r.items for r in records if r.status == "ok") / (sum(ns) / 1e9),
        "call_ms_p50": statistics.median(ns) / 1e6,
        "call_ms_p90": percentile_ms(ns, 0.9),
    }


def traced_run(cli, stream: Stream, seconds: float):
    """A fixed list of calls, each made once untraced and once traced, in
    alternating order so that drift in the machine's speed cancels in the
    overhead ratio. The first call also runs once before, as the warm-up;
    critical lists are whole blocks, so the tail share is exact. Returns
    (tracer, all records, per-layer metrics)."""
    n = max(1, round(seconds * TRACE_CALLS_PER_SECOND[stream.workload]))
    taken = stream.take(n)
    warmup = stream.run(cli, taken[:1])
    tracer = Tracer()
    untraced, traced = [], []
    for i, item in enumerate(taken):
        for trace_it in (i % 2 == 1, i % 2 == 0):
            if trace_it:
                tracer.install()
            try:
                (traced if trace_it else untraced).extend(stream.run(cli, [item]))
            finally:
                tracer.uninstall()
    overhead = sum(r.ns for r in traced) / sum(r.ns for r in untraced)
    metrics = layer_metrics(
        tracer,
        items=sum(r.items for r in traced),
        bytes_written=sum(r.bytes_written for r in traced),
        overhead_ratio=overhead,
    )
    tail_tracer = Tracer()
    tail_tracer.install()
    try:
        for call in workloads.tail_calls(stream.seed):
            run_call(cli, "critical", call, stream.out_path, "")
    finally:
        tail_tracer.uninstall()
    metrics["models.tail_errors"] = model_errors(tail_tracer) / workloads.TAIL_CALLS
    return tracer, warmup + untraced + traced, metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def model_errors(tracer: Tracer) -> int:
    """Exceptions outside the documented SpincorrError family that leave
    the models module, counted once at the outermost models span."""
    from spincorr.errors import SpincorrError

    spans = tracer.spans
    modules = [tracer.module_of(s) for s in spans]
    return sum(
        1
        for s, m in zip(spans, modules)
        if m == "models"
        and s[RAISED] is not None
        and not issubclass(s[RAISED], SpincorrError)
        and (s[PARENT] < 0 or modules[s[PARENT]] != "models")
    )


def layer_metrics(tracer: Tracer, items: int, bytes_written: int, overhead_ratio: float):
    """Per-module metrics, normalized per item unless the name says
    otherwise (``*_per_*`` ratios and ``*_share``)."""
    spans = tracer.spans
    modules = [tracer.module_of(s) for s in spans]
    keys = [f"{m}.{tracer.name_of(s)}" for m, s in zip(modules, spans)]
    calls = Counter(keys)
    self_ns = Counter()
    for module, ns in zip(modules, tracer.self_ns()):
        self_ns[module] += ns

    def evaluations(key: str) -> list[int]:
        return [s[EVALS] for s, k in zip(spans, keys) if k == key and s[EVALS] is not None]

    gmod = evaluations("oracle.gmod_oracle")
    mins = evaluations("oracle.min_oracle")

    def under_report(i: int) -> bool:
        while spans[i][PARENT] >= 0:
            i = spans[i][PARENT]
            if keys[i] == "measures.report":
                return True
        return False

    validations = sum(
        1 for i, k in enumerate(keys) if k == "qmat.validate_state" and under_report(i)
    )
    metrics = {f"{m}.self_ms": self_ns[m] / 1e6 / items for m in MODULES}
    metrics.update(
        {
            "oracle.gmod.calls": calls["oracle.gmod_oracle"] / items,
            "oracle.evals_per_gmod_call": _ratio(sum(gmod), len(gmod)),
            "oracle.refine_evals_per_gmod_call": _ratio(
                sum(e - workloads.VERIFY_GRID_POINTS for e in gmod), len(gmod)
            ),
            "oracle.min_grid_share": _ratio(sum(e > 1 for e in mins), len(mins)),
            "measures.report.calls": calls["measures.report"] / items,
            "measures.validations_per_report": _ratio(validations, calls["measures.report"]),
            "bloch.decompose.calls": calls["bloch.decompose"] / items,
            "qmat.validate_state.calls": calls["qmat.validate_state"] / items,
            "qmat.mat_sqrt.calls": calls["qmat.mat_sqrt"] / items,
            "models.measures.calls": (
                calls["models.measures_isodm"] + calls["models.measures_xxz"]
            )
            / items,
            "models.critical.calls": (
                calls["models.critical_coupling_isodm"]
                + calls["models.critical_coupling_xxz"]
            )
            / items,
            "models.errors": model_errors(tracer) / items,
            "cli.bytes_written": bytes_written / items,
            "rng.random_state.calls": calls["rng.random_state"] / items,
            "trace.overhead_ratio": overhead_ratio,
        }
    )
    return metrics


def summary(records: list[Record]) -> dict:
    """Counts and the first few failure reasons of a list of records."""
    failed = [r for r in records if r.status != "ok"]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "wrong": sum(r.status == "wrong" for r in records),
        "reasons": sorted(Counter(r.reason for r in failed).items())[:5],
    }

"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys
from itertools import islice

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spincorr.cli as cli  # noqa: E402

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    def argvs(seed):
        return [c.argv for c in islice(workloads.calls(workload, seed, "o.csv"), 200)]

    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)


def test_critical_blocks_have_a_fixed_no_root_share():
    kinds = [c.kind for c in islice(workloads.critical_calls(3), 400)]
    assert sum(k == "isodm:no_root" for k in kinds) == 60
    assert not any(k.endswith(":tail") for k in kinds)


def test_tail_calls_raise_overflow_at_this_commit(tmp_path):
    for call in workloads.tail_calls(5):
        record = measure.run_call(cli, "critical", call, str(tmp_path / "s.csv"), "")
        assert record.status == "error"
        assert record.reason.startswith("OverflowError")


class _InjectingCli:
    """Stands in for the CLI module; raises out of ``main`` on one call."""

    def __init__(self, fail_at):
        self.calls = 0
        self.fail_at = fail_at

    def main(self, argv):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("injected")
        return cli.main(argv)


def test_exception_out_of_main_is_a_failed_op(tmp_path):
    stream = measure.Stream("sweep", 2, str(tmp_path / "s.csv"), [])
    records = stream.run(_InjectingCli(fail_at=2), stream.take(3))
    assert [r.status for r in records] == ["ok", "error", "ok"]
    assert records[1].reason == "RuntimeError: injected"
    summary = measure.summary(records)
    assert (summary["attempted"], summary["failed"], summary["wrong"]) == (3, 1, 0)
    assert measure.end_to_end(records, [1.0] * 3)["ok_ratio"] == pytest.approx(2 / 3)


def test_wrong_output_is_caught(tmp_path):
    class Garbled:
        @staticmethod
        def main(argv):
            print("0.5\nextra")
            return 0

    stream = measure.Stream("critical", 1, str(tmp_path / "s.csv"), [])
    record = stream.run(Garbled, stream.take(1))[0]
    assert record.status == "wrong"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_default_seed_output_matches_golden(workload, tmp_path):
    with open(os.path.join(BENCH, "golden.json")) as fh:
        golden = json.load(fh)[workload]
    stream = measure.Stream(workload, workloads.DEFAULT_SEED, str(tmp_path / "s.csv"), golden)
    records = stream.run(cli, stream.take(5))
    assert [r.status for r in records] == ["ok"] * 5
    assert [r.digest for r in records] == golden[:5]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    def run():
        stream = measure.Stream(workload, 4, str(tmp_path / "s.csv"), [])
        tracer, records, metrics = measure.traced_run(cli, stream, 0.2)
        assert all(r.status != "wrong" for r in records)
        return tracer, {k: v for k, v in metrics.items() if not k.endswith("_ms")}

    tracer, first = run()
    _, second = run()
    del first["trace.overhead_ratio"], second["trace.overhead_ratio"]
    assert first == second
    expected = {
        "verify": {"oracle.gmod.calls": 1.0, "measures.validations_per_report": 3.0},
        "sweep": {"models.measures.calls": 1.0, "measures.validations_per_report": 3.0},
        "critical": {"models.critical.calls": 1.0, "models.errors": 0.0},
    }[workload]
    expected["models.tail_errors"] = 1.0
    assert {k: first[k] for k in expected} == expected
    # Self times partition the root spans' time.
    roots = [s for s in tracer.spans if s[spans.PARENT] < 0]
    assert sum(tracer.self_ns()) == sum(s[spans.END] - s[spans.START] for s in roots)
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")


def test_decompose_is_wrapped_in_every_namespace():
    from spincorr import bloch, measures, oracle

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert bloch.decompose is measures.decompose is oracle.decompose
        assert hasattr(bloch.decompose, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(oracle.decompose, "__wrapped__")


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "verify", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_call_times_are_scaled_by_the_machine_speed():
    records = [measure.Record(4_000_000, 2, "ok", None, 0, "") for _ in range(4)]
    scaled = measure.end_to_end(records, [2.0] * 4)
    assert scaled["call_ms_p50"] == pytest.approx(2.0)
    assert scaled["items_per_s"] == pytest.approx(1000.0)
    assert measure.wall_clock(records)["call_ms_p50"] == pytest.approx(4.0)

"""End-to-end tests of the command-line interface."""

import ast
import dataclasses
import hashlib
import importlib
import inspect
import itertools
import math
import os
import pathlib
import sys
import tomllib

import numpy as np
import pytest

import spincorr
from spincorr import cli, measures, models, oracle
from spincorr.errors import ClosedFormMismatch
from spincorr.rng import Lcg, random_state

from helpers import run_python
from reference import fmt12_fstring

BELL_STATE_TEXT = """\
# (|01> + |10>)/sqrt(2), row-major 're im' pairs
0 0  0 0    0 0    0 0

0 0  0.5 0  0.5 0  0 0
0 0  0.5 0  0.5 0  0 0  # comment after data
0 0  0 0    0 0    0 0
"""


# ``-h`` text at 80 columns, pinned so that moving types and defaults into
# the parser cannot change what users read. ``critical`` has no ``--j``: the
# scan sets j.
HELP_TEXT = {
    "": """\
usage: spincorr [-h] {measures,sweep,critical,verify} ...

Two-qubit correlation measures for thermal spin models and arbitrary states,
with brute-force verification.

positional arguments:
  {measures,sweep,critical,verify}
    measures            measures of one model point or state file
    sweep               CSV sweep over an exchange grid
    critical            exchange threshold of concurrence
    verify              oracle suite on seeded random states

options:
  -h, --help            show this help message and exit
""",
    "measures": """\
usage: spincorr measures [-h] [--model {isodm,xxz}] [--j J] [--d D]
                         [--delta DELTA] [--b B] [--config CONFIG]
                         [--state STATE]

options:
  -h, --help           show this help message and exit
  --model {isodm,xxz}  spin model
  --j J                exchange coupling J/kT
  --d D                DM coupling D/kT (isodm)
  --delta DELTA        anisotropy (xxz)
  --b B                field B/kT (xxz)
  --config CONFIG      key=value defaults file; flags win
  --state STATE        density-matrix text file (16 're im' lines)
""",
    "sweep": """\
usage: spincorr sweep [-h] [--model {isodm,xxz}] [--d D] [--delta DELTA]
                      [--b B] [--config CONFIG] [--j-start J_START]
                      [--j-end J_END] [--j-steps J_STEPS] [--series SERIES]
                      [--out OUT]

options:
  -h, --help           show this help message and exit
  --model {isodm,xxz}  spin model
  --d D                DM coupling D/kT (isodm)
  --delta DELTA        anisotropy (xxz)
  --b B                field B/kT (xxz)
  --config CONFIG      key=value defaults file; flags win
  --j-start J_START    grid start (default -5)
  --j-end J_END        grid end (default 5)
  --j-steps J_STEPS    grid points (default 201)
  --series SERIES      secondary-parameter series: comma-separated d values
                       (isodm) or delta:b pairs (xxz), e.g. '0,2' or '0:0,0:1'
  --out OUT            output CSV path
""",
    "critical": """\
usage: spincorr critical [-h] [--model {isodm,xxz}] [--d D] [--delta DELTA]
                         [--b B] [--config CONFIG]

options:
  -h, --help           show this help message and exit
  --model {isodm,xxz}  spin model
  --d D                DM coupling D/kT (isodm)
  --delta DELTA        anisotropy (xxz)
  --b B                field B/kT (xxz)
  --config CONFIG      key=value defaults file; flags win
""",
    "verify": """\
usage: spincorr verify [-h] [--seed SEED] [--count COUNT] [--config CONFIG]

options:
  -h, --help       show this help message and exit
  --seed SEED      generator seed (default 1)
  --count COUNT    number of states (default 100)
  --config CONFIG  key=value defaults file; flags win
""",
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_csv(capsys, csv_path, *argv):
    """``run_cli`` and the bytes of the CSV at ``csv_path`` (None when there is
    none), which it then deletes."""
    code, out, err = run_cli(capsys, *argv)
    csv = csv_path.read_bytes() if csv_path.exists() else None
    if csv is not None:
        csv_path.unlink()
    return code, out, err, csv


def run_module(cwd, *argv):
    """Run ``python -m spincorr`` in ``cwd``; returns (code, stdout, stderr)."""
    return run_python(cwd, "-m", "spincorr", *argv)


UTF8_ERROR = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


def write_state_file(path, matrix):
    lines = []
    for row in np.asarray(matrix, dtype=complex):
        lines.append(" ".join(f"{v.real:.17g} {v.imag:.17g}" for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_fmt12_reference_strings():
    assert cli.fmt12(0.0) == "0.000000000000"
    assert cli.fmt12(1.0) == "1.00000000000"
    assert cli.fmt12(0.5) == "0.500000000000"
    assert cli.fmt12(-2.5) == "-2.50000000000"
    assert cli.fmt12(1e-4) == "0.000100000000000"
    assert cli.fmt12(9.9e-5) == "9.90000000000e-05"
    assert cli.fmt12(-0.549306144334055) == "-0.549306144334"
    assert cli.fmt12(123.456789012345) == "123.456789012"
    # From 1e12 up there are no decimals left to give.
    assert cli.fmt12(1.5e12) == "1500000000000"
    assert cli.fmt12(-2.5e13) == "-25000000000000"


def test_fmt12_matches_the_format_spec_reference_byte_for_byte():
    """Rounding carries, the 1e-4 boundary, powers of ten one ulp either
    side, the largest and smallest floats, and 4,000 seeded magnitudes
    from 1e-6 to 1e15 of either sign."""
    edges = [0.9999999999996, 99999.9999999996, 1e-4, 1.5e12, 1e300, 5e-324, -0.0]
    edges += [math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), sys.float_info.max]
    for power in range(-4, 16):
        p = 10.0**power
        edges += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    rng = Lcg(30)
    draws = [10.0 ** (21.0 * rng.uniform() - 6.0) for _ in range(4000)]
    for value in edges + draws:
        for signed in (value, -value):
            assert cli.fmt12(signed) == fmt12_fstring(signed), signed.hex()


# stdout of measures at model points; each exits 0 with empty stderr.
MEASURES_OUTPUT = {
    "measures --model isodm --j 1 --d 0": [
        "C = 0.422469188455",
        "N = 0.189099867478",
        "Q = 0.0945499337388",
        "Q_paper = 0.0945499337388",
        "D_exact = 0.0945499337388",
        "branch = XZero",
    ],
    "measures --model xxz --j 0 --delta 1 --b 3": [
        "C = 0.000000000000",
        "N = 0.000000000000",
        "Q = 0.000000000000",
        "Q_paper = 0.000000000000",
        "D_exact = 0.000000000000",
        "branch = XNonzero",
    ],
    # Q_paper = n_closed/2 uses the zero-field closed form
    # (kappa/Z)^2 + t3^2 here; the other lines are pipeline values.
    "measures --model xxz --j -5 --delta 1 --b 0": [
        "C = 0.000000000000",
        "N = 0.246656279576",
        "Q = 2.81821612919e-06",
        "Q_paper = 0.123328139788",
        "D_exact = 2.81821612919e-06",
        "branch = XZero",
    ],
    # The entries put |x_z| just above 1e-9 while the Bloch decomposition
    # puts |x| at or below it; the closed form follows the pipeline's branch.
    "measures --model xxz --j 2 --delta 3 --b 2.243189458650676e-05": [
        "C = 0.963852469804",
        "N = 0.482206715007",
        "Q = 0.232295865822",
        "Q_paper = 0.241103357503",
        "D_exact = 0.232295865822",
        "branch = XZero",
    ],
}


@pytest.mark.parametrize("argv", MEASURES_OUTPUT)
def test_measures_output(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out.splitlines(), err) == (0, MEASURES_OUTPUT[argv], "")


def test_measures_state_file(tmp_path, capsys):
    path = tmp_path / "bell.txt"
    path.write_text(BELL_STATE_TEXT, encoding="utf-8")
    code, out, err = run_cli(capsys, "measures", "--state", str(path))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5  # no Q_paper line for a raw state
    assert abs(float(lines[0].split("=")[1]) - 1.0) <= 1e-9
    assert lines[1] == "N = 0.500000000000"
    assert lines[2] == "Q = 0.250000000000"
    assert lines[3] == "D_exact = 0.250000000000"
    assert lines[4] == "branch = XZero"


# A random state with its smallest eigenvalue moved to -1e-8 - 3e-17: it
# passes validation, whose eigvalsh puts that eigenvalue just inside the
# -1e-8 bound, while eigh of the same matrix puts it just outside.
BOUNDARY_STATE_TEXT = """\
0.30709595527370209 0  0.086976327588639685 -0.051423287943342826  0.095664503610932775 0.11182397462961503  -0.016777163257231258 -0.096056190491692534
0.086976327588639671 0.051423287943342826  0.28202129173037355 0  0.021055541591507722 0.18345750009700218  -0.033113665693239619 -0.15291707861995804
0.095664503610932761 -0.11182397462961503  0.021055541591507715 -0.18345750009700218  0.17976552433749843 -1.3877787807814457e-17  -0.14232766505825756 0.05301840924356082
-0.016777163257231248 0.096056190491692534  -0.033113665693239605 0.15291707861995807  -0.14232766505825756 -0.053018409243560813  0.23111722865842671 -6.9388939039072284e-18
"""


def test_state_file_within_tolerance_is_used_through_its_hermitian_part(tmp_path, capsys):
    # Each file passes validation at 1e-8 without being exactly PSD or
    # Hermitian; the measures must then run on it, not be refused later.
    slightly_negative = tmp_path / "negative.txt"
    write_state_file(slightly_negative, np.diag([0.5, 0.3, 0.2 + 5e-9, -5e-9]))
    lopsided = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    lopsided[0, 1] = 5e-9
    skewed = tmp_path / "skewed.txt"
    write_state_file(skewed, lopsided)
    hermitian = tmp_path / "hermitian.txt"
    write_state_file(hermitian, (lopsided + lopsided.conj().T) / 2.0)
    boundary = tmp_path / "boundary.txt"
    boundary.write_text(BOUNDARY_STATE_TEXT, encoding="utf-8")
    reports = []
    for path in (slightly_negative, skewed, hermitian, boundary):
        code, out, err = run_cli(capsys, "measures", "--state", str(path))
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert [line.split(" = ")[0] for line in lines] == ["C", "N", "Q", "D_exact", "branch"]
        reports.append(lines)
    for lines in reports[:3]:
        assert all(abs(float(line.split(" = ")[1])) <= 1e-12 for line in lines[:4])
    assert reports[1] == reports[2]
    assert reports[3] == [
        "C = 0.410759738299",
        "N = 0.157864311774",
        "Q = 0.0536267626852",
        "D_exact = 0.0544927073166",
        "branch = XNonzero",
    ]


def test_sweep_csv_format_and_determinism(tmp_path, capsys):
    args = (
        "sweep", "--model", "isodm", "--series", "0,2",
        "--j-start", "-1", "--j-end", "1", "--j-steps", "5",
    )
    first = tmp_path / "a.csv"
    code, out, err = run_cli(capsys, *args, "--out", str(first))
    assert code == 0 and out == "" and err == ""
    second = tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(second))[0] == 0
    content = first.read_bytes()
    assert content == second.read_bytes()
    assert b"\r" not in content and content.endswith(b"\n")

    lines = content.decode("ascii").splitlines()
    assert lines[0] == "j,series,C,N,Q,D_exact"
    assert len(lines) == 1 + 5 * 2
    labels = [line.split(",")[1] for line in lines[1:]]
    assert labels == ["d=0", "d=2"] * 5
    zero_row = lines[5].split(",")
    assert zero_row == ["0.000000000000", "d=0"] + ["0.000000000000"] * 4


def test_sweep_xxz_series_labels(tmp_path, capsys):
    out_path = tmp_path / "xxz.csv"
    code = cli.main(
        [
            "sweep", "--model", "xxz", "--series", "0:0,0:1",
            "--j-start", "0", "--j-end", "1", "--j-steps", "2",
            "--out", str(out_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    labels = [line.split(",")[1] for line in out_path.read_text().splitlines()[1:]]
    assert labels == ["delta=0;b=0", "delta=0;b=1"] * 2

    default_path = tmp_path / "default.csv"
    code = cli.main(
        [
            "sweep", "--model", "xxz", "--delta", "1", "--b", "2",
            "--j-start", "0", "--j-end", "1", "--j-steps", "2",
            "--out", str(default_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    labels = [line.split(",")[1] for line in default_path.read_text().splitlines()[1:]]
    assert labels == ["delta=1;b=2"] * 2


@pytest.mark.parametrize(
    "model, flags, series",
    [
        ("isodm", ("--d", "0.1234567890123456"), "0.1234567890123456"),
        ("xxz", ("--delta", "0.3", "--b", "1.00000000000049"), "0.3:1.00000000000049"),
    ],
)
def test_sweep_model_flags_match_their_series_member(tmp_path, capsys, model, flags, series):
    # Values with more than 12 significant digits: the label rounds them,
    # the computed rows must not.
    csv = {}
    for name, chosen in (("flags", flags), ("series", ("--series", series))):
        out_path = tmp_path / f"{name}.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--model", model, *chosen, "--out", str(out_path)
        )
        assert (code, err) == (0, "")
        csv[name] = out_path.read_bytes()
    assert csv["flags"] == csv["series"]


def test_state_file_parses_to_exact_bits(tmp_path):
    values = random_state(Lcg(2026)).ravel()
    values[0] = complex(-0.0, 0.0)
    values[5] = complex(5e-324, -0.0)
    values[10] = complex(0.0, -1.2345e-310)
    pairs = [(float(v.real), float(v.imag)) for v in values]
    path = tmp_path / "state.txt"
    path.write_text("".join(f"{re!r} {im!r}\n" for re, im in pairs), encoding="utf-8")
    expected = np.array([complex(re, im) for re, im in pairs]).reshape(4, 4)
    assert cli._load_state_file(str(path)).tobytes() == expected.tobytes()


def test_state_file_with_a_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(BELL_STATE_TEXT, encoding="utf-8")
    marked.write_text(BELL_STATE_TEXT, encoding="utf-8-sig")
    expected = run_cli(capsys, "measures", "--state", str(plain))
    assert expected[0] == 0
    assert run_cli(capsys, "measures", "--state", str(marked)) == expected


def test_critical_output(capsys):
    code, out, err = run_cli(capsys, "critical", "--model", "isodm", "--d", "0")
    assert code == 0 and out == "0.549306144\n"
    code, out, err = run_cli(capsys, "critical", "--model", "xxz", "--delta", "0", "--b", "2")
    assert code == 0 and out == "0.549306144\n"  # threshold ignores the field


def test_verify_small_run_and_determinism(capsys):
    code, out, err = run_cli(capsys, "verify", "--seed", "1", "--count", "5")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "verify: seed=1 count=5 grid=2000"
    assert out.splitlines()[-1] == "result: PASS"
    code, again, _ = run_cli(capsys, "verify", "--seed", "1", "--count", "5")
    assert code == 0 and again == out


def test_sweep_cap_verify_is_byte_pinned(capsys):
    """The second state of seed 3549 runs all 500 refinement sweeps, the
    path with the most near-ties read from the oracle's memo; its report
    keeps the bytes recorded before the memo existed."""
    code, out, err = run_cli(capsys, "verify", "--seed", "3549", "--count", "2")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "99d1720484b1e95909d139d6b2e52a4b7b78c166daef043438fb8f1e66228241"
    )


def _edit_results_at(monkeypatch, module, name, edits):
    """Wrap ``module.name`` so that its result at call ``i`` (state ``i`` of
    a verify run, row ``i`` of a sweep) is replaced by ``edits[i](result)``.
    Returns the call counter: its ``next`` value is the number of calls made."""
    real = getattr(module, name)
    calls = itertools.count()

    def wrapper(arg):
        result = real(arg)
        edit = edits.get(next(calls))
        return result if edit is None else edit(result)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _replace(**changes):
    return lambda result: dataclasses.replace(result, **changes)


def _shift(delta):
    return lambda result: dataclasses.replace(result, value=result.value + delta)


def _flip(entangled):
    return not entangled


def _lower_above_exact(delta):
    return lambda rep: dataclasses.replace(rep, gmod_lower=rep.gmod_exact + delta)


def _raise(error):
    def edit(result):
        raise error

    return edit


_NONLOCALITY = (oracle, "min_oracle", {4: _shift(0.01)})
_DISCORD = (oracle, "gmod_oracle", {1: _shift(-0.002)})
_WITNESS = (oracle, "ppt_entangled", {2: _flip, 5: _flip})
_LOWER_BOUND = (measures, "report", {6: _lower_above_exact(1e-9)})
# verify --seed 3 --count 8 passes unedited; these lines are its summary.
_SUMMARY = {
    "min": "max |min_closed - min_oracle|    = 2.77555756156e-17 (state 0)",
    "gmod": "max |2*gmod_exact - gmod_oracle| = 1.81799020282e-15 (state 7)",
    "ppt": "ppt/concurrence disagreements    = 0",
    "lower": "max (gmod_lower - gmod_exact)    = -0.000143469303894 (state 7)",
}
_VIOLATED = {
    "min": "max |min_closed - min_oracle|    = 0.0100000000000 (state 4)",
    "gmod": "max |2*gmod_exact - gmod_oracle| = 0.00200000000000 (state 1)",
    "ppt": "ppt/concurrence disagreements    = 2",
    "lower": "max (gmod_lower - gmod_exact)    = 9.99999999474e-10 (state 6)",
}
_VIOLATIONS = {
    "min": "violation: nonlocality oracle deviation 0.0100000000000 exceeds 0.0001 at state 4",
    "gmod": "violation: discord oracle deviation 0.00200000000000 exceeds 0.0001 at state 1",
    "ppt": "violation: witness disagreement at states: 2, 5",
    "lower": "violation: lower bound exceeds exact discord by 9.99999999474e-10 at state 6",
}


def _verify_stdout(summary, violations):
    lines = ["verify: seed=3 count=8 grid=2000", *summary.values(), *violations]
    return "\n".join(lines + [f"result: {'FAIL' if violations else 'PASS'}"]) + "\n"


# (edited results, expected stdout); taken from the CLI before its gate loop
# was rewritten. Every gate is checked alone, all together, and on a tie.
VERIFY_FAILURES = {
    "nonlocality": (
        [_NONLOCALITY],
        _verify_stdout({**_SUMMARY, "min": _VIOLATED["min"]}, [_VIOLATIONS["min"]]),
    ),
    "discord": (
        [_DISCORD],
        _verify_stdout({**_SUMMARY, "gmod": _VIOLATED["gmod"]}, [_VIOLATIONS["gmod"]]),
    ),
    "witness": (
        [_WITNESS],
        _verify_stdout({**_SUMMARY, "ppt": _VIOLATED["ppt"]}, [_VIOLATIONS["ppt"]]),
    ),
    "lower-bound": (
        [_LOWER_BOUND],
        _verify_stdout({**_SUMMARY, "lower": _VIOLATED["lower"]}, [_VIOLATIONS["lower"]]),
    ),
    "all-four": (
        [_NONLOCALITY, _DISCORD, _WITNESS, _LOWER_BOUND],
        _verify_stdout(_VIOLATED, list(_VIOLATIONS.values())),
    ),
    # Every state is PPT-entangled, so a concurrence of 2e-8 agrees with the
    # witness at WITNESS_CUTOFF = 1e-8 and one of 5e-9 does not.
    "witness-cutoff": (
        [(measures, "report", {1: _replace(concurrence=2e-8), 4: _replace(concurrence=5e-9)})],
        _verify_stdout(
            {**_SUMMARY, "ppt": "ppt/concurrence disagreements    = 1"},
            ["violation: witness disagreement at states: 4"],
        ),
    ),
    # States 3 and 7 deviate by exactly 0.5: the first one is reported.
    "tie": (
        [
            (measures, "report", {3: _replace(min_value=1.0), 7: _replace(min_value=1.0)}),
            (oracle, "min_oracle", {3: _replace(value=0.5), 7: _replace(value=0.5)}),
        ],
        _verify_stdout(
            {**_SUMMARY, "min": "max |min_closed - min_oracle|    = 0.500000000000 (state 3)"},
            ["violation: nonlocality oracle deviation 0.500000000000 exceeds 0.0001 at state 3"],
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(VERIFY_FAILURES))
def test_verify_reports_each_violation(monkeypatch, capsys, case):
    edited, expected = VERIFY_FAILURES[case]
    for module, name, edits in edited:
        _edit_results_at(monkeypatch, module, name, edits)
    code, out, err = run_cli(capsys, "verify", "--seed", "3", "--count", "8")
    assert (code, out, err) == (1, expected, "")


# The lower-bound gate LOWER_BOUND_TOL = 1e-12 from both sides: state 6 of
# the same run with gmod_lower raised above gmod_exact by 2e-12 fails and by
# 5e-13 passes, so the gate moved tenfold either way changes one outcome.
_EXCESS = "max (gmod_lower - gmod_exact)    = {} (state 6)"
LOWER_BOUND_GATE = {  # excess: (exit code, stdout)
    "2e-12": (1, _verify_stdout(
        {**_SUMMARY, "lower": _EXCESS.format("2.00000085937e-12")},
        ["violation: lower bound exceeds exact discord by 2.00000085937e-12 at state 6"],
    )),
    "5e-13": (0, _verify_stdout({**_SUMMARY, "lower": _EXCESS.format("4.99999347481e-13")}, [])),
}


@pytest.mark.parametrize("excess", sorted(LOWER_BOUND_GATE))
def test_verify_lower_bound_gate_is_its_tolerance(monkeypatch, capsys, excess):
    _edit_results_at(monkeypatch, measures, "report", {6: _lower_above_exact(float(excess))})
    code, out, err = run_cli(capsys, "verify", "--seed", "3", "--count", "8")
    assert (code, out, err) == (*LOWER_BOUND_GATE[excess], "")


def test_cached_parser_leaks_no_state(tmp_path, capsys):
    """``main`` reuses one parser per process: a call made after another one
    prints, writes and returns exactly what it does on a freshly built
    parser."""
    csv = tmp_path / "s.csv"
    config = tmp_path / "sweep.cfg"
    config.write_text("model=xxz\nj-steps=3\nseries=0:0,1:2\n", encoding="utf-8")
    sequences = [  # ((argv, exit code), (argv, exit code))
        (
            (["measures", "--model", "isodm", "--j", "1", "--frob"], 3),
            (["measures", "--model", "isodm", "--j", "1"], 0),
        ),
        (
            (["sweep", "--config", str(config), "--out", str(csv)], 0),
            (["sweep", "--model", "isodm", "--j-steps", "3", "--out", str(csv)], 0),
        ),
        (
            (["verify", "--seed", "2", "--count", "2"], 0),
            (["critical", "--model", "isodm", "--d", "0"], 0),
        ),
    ]

    assert cli._build_parser() is cli._build_parser()
    for sequence in sequences:
        cli._build_parser.cache_clear()
        shared = [run_cli_csv(capsys, csv, *argv) for argv, _ in sequence]
        for (argv, code), result in zip(sequence, shared):
            assert result[0] == code
            cli._build_parser.cache_clear()
            assert run_cli_csv(capsys, csv, *argv) == result


def test_module_entrypoint_subprocess(tmp_path):
    # The subprocess runs the package under test, wherever that is.
    code, out, _ = run_python(tmp_path, "-c", "import spincorr; print(spincorr.__file__)")
    assert (code, os.path.realpath(out.rstrip("\n"))) == (0, os.path.realpath(spincorr.__file__))
    code, out, _ = run_module(tmp_path, "critical", "--model", "isodm", "--d", "0")
    assert code == 0
    assert out == "0.549306144\n"
    code, out, err = run_module(tmp_path, "critical", "--model", "isodm", "--bogus")
    assert (code, out) == (3, "")
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "spincorr: error: unrecognized arguments: --bogus"
    ]


def test_critical_help_and_usage_errors_load_no_numpy(tmp_path):
    calls = [  # (argv, exit code, numpy loaded after the call)
        (["critical", "--model", "isodm", "--d", "2"], 0, False),
        (["critical", "--model", "isodm", "--d", "10"], 5, False),
        (["critical", "--model", "xxz", "--delta", "-3"], 0, False),
        (["-h"], 0, False),
        (["critical", "--model", "isodm", "--bogus"], 3, False),
        (["measures", "--model", "xxz", "--j", "-5", "--delta", "1", "--b", "0"], 0, True),
    ]
    script = f"""if True:
        import sys
        import spincorr
        import spincorr.cli
        seen = [("import", None, "numpy" in sys.modules)]
        for argv in {[argv for argv, _, _ in calls]!r}:
            seen.append((argv, spincorr.cli.main(argv), "numpy" in sys.modules))
        print(seen)
    """
    code, out, _ = run_python(tmp_path, "-c", script)
    assert code == 0
    assert ast.literal_eval(out.splitlines()[-1]) == [("import", None, False), *calls]


def test_console_script_runs_main(monkeypatch, capsys):
    # The generated script runs sys.exit(main()), so main's return value is
    # the exit code.
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"spincorr": "spincorr.cli:main"}
    module, _, name = scripts["spincorr"].partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is cli.main
    monkeypatch.setattr(sys, "argv", ["spincorr", "critical", "--model", "isodm", "--d", "0"])
    assert entry() == 0
    assert capsys.readouterr().out == "0.549306144\n"


@pytest.mark.parametrize("command", sorted(HELP_TEXT), ids=lambda c: c or "spincorr")
def test_help_text_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *([command] if command else []), "-h")
    assert (code, out, err) == (0, HELP_TEXT[command], "")


def test_generator_seed_has_no_default_but_the_cli_flag_does(capsys):
    assert inspect.signature(Lcg).parameters["seed"].default is inspect.Parameter.empty
    code, out, _ = run_cli(capsys, "verify", "--count", "1")
    assert code == 0 and out.splitlines()[0] == "verify: seed=1 count=1 grid=2000"


def test_seed_must_fit_the_generator_state(capsys):
    # The refused seeds are rows of ERROR_EXITS.
    code, out, _ = run_cli(
        capsys, "verify", "--seed", "18446744073709551615", "--count", "1"
    )
    assert code == 0
    assert out.splitlines()[0] == "verify: seed=18446744073709551615 count=1 grid=2000"


# Calls given a config file, as case: (file text, flags beside --config, the
# flag call that must exit 0 and print and write the same). Flags win.
CONFIG_CALLS = {
    "measures": ("model=isodm\nj=-1.5\nd=2\n", (),
                 ("measures", "--model", "isodm", "--j", "-1.5", "--d", "2")),
    "measures-comments": ("model=isodm\nj=1\nd=0  # comment\n\n", (),
                          ("measures", "--model", "isodm", "--j", "1", "--d", "0")),
    "measures-byte-order-mark": ("\ufeffmodel=isodm\nj=1\nd=0\n", (),
                                 ("measures", "--model", "isodm", "--j", "1", "--d", "0")),
    "measures-flag-wins": ("model=isodm\nj=1\nd=0\n", ("--j", "0"),
                           ("measures", "--model", "isodm", "--j", "0", "--d", "0")),
    "sweep": ("model=xxz\nseries=0:0, 1:-2\nj_start=-1\nj-end=1\nj-steps=4\n", (),
              ("sweep", "--model", "xxz", "--series", "0:0, 1:-2", "--j-start", "-1",
               "--j-end", "1", "--j-steps", "4")),
    "sweep-dashed-keys": ("model=isodm\nj-steps=3\nj-start=0\nj-end=1\nd=0\n", (),
                          ("sweep", "--model", "isodm", "--j-steps", "3", "--j-start", "0",
                           "--j-end", "1", "--d", "0")),
    "critical": ("model=xxz\ndelta=-0.5\nb=3\n", (),
                 ("critical", "--model", "xxz", "--delta", "-0.5", "--b", "3")),
    "verify": ("seed=5\ncount=2\n", (), ("verify", "--seed", "5", "--count", "2")),
    "verify-flag-wins": ("count=5\n", ("--count", "2"), ("verify", "--count", "2")),
}


@pytest.mark.parametrize("case", CONFIG_CALLS)
def test_config_call_matches_flag_call(tmp_path, capsys, case):
    config_text, beside, flags = CONFIG_CALLS[case]
    config = tmp_path / "run.cfg"
    config.write_text(config_text, encoding="utf-8")
    command = flags[0]
    out_path = tmp_path / "s.csv"
    extra = ["--out", str(out_path)] if command == "sweep" else []
    from_config = run_cli_csv(capsys, out_path, command, "--config", str(config), *beside, *extra)
    assert from_config == run_cli_csv(capsys, out_path, *flags, *extra)
    assert from_config[0] == 0
    assert (from_config[3] is not None) == (command == "sweep")


# sha256 of the stdout and of the CSV of the byte-contract commands (each
# exits 0 with empty stderr); the verify reports are pinned by criteria 07
# and 12 of the acceptance suite.
CONTRACT_DIGESTS = [
    (
        ("sweep", "--model", "xxz", "--series", "0:0,0:1,0:2"),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f911d598ab94ea0a7ab742ee16dcf742a6128bcc4065bb8a4996369671e585bf",
    ),
    (
        ("critical", "--model", "isodm", "--d", "2"),
        "37d7d8f153b99017b7438c3778c5afb5966d4c5c1a6b64a92ebe82ebbc3daa25",
        None,
    ),
    (
        ("measures", "--model", "xxz", "--j", "-5", "--delta", "1", "--b", "0"),
        "a1ee0e546ce8a7d994bdd3f0c8ac26d09bc08e7485c40f78cabb9e311d095c27",
        None,
    ),
]


# sha256 of an isodm sweep CSV beside the contract: two-field params, the
# complex coherence, XZero rows, and each grid j shared by three members.
ISODM_SWEEP = ("sweep", "--model", "isodm", "--series", "0,1,2.5",
               "--j-start", "-3", "--j-end", "3", "--j-steps", "61")
ISODM_SWEEP_CSV_SHA256 = "874f388b6e4ea58c91b8289b5d3e45d02e2c8607cf55e08fa34bd12bffe89b40"


def test_isodm_sweep_is_byte_pinned(tmp_path, capsys):
    out_path = tmp_path / "f.csv"
    code, out, err = run_cli(capsys, *ISODM_SWEEP, "--out", str(out_path))
    assert (code, out, err) == (0, "", "")
    data = out_path.read_bytes()
    assert data.count(b"\n") == 1 + 61 * 3
    assert hashlib.sha256(data).hexdigest() == ISODM_SWEEP_CSV_SHA256


@pytest.mark.parametrize(
    "argv, stdout_sha256, csv_sha256",
    CONTRACT_DIGESTS,
    ids=[argv[0] for argv, _, _ in CONTRACT_DIGESTS],
)
def test_contract_outputs_are_byte_pinned(tmp_path, capsys, argv, stdout_sha256, csv_sha256):
    out_path = tmp_path / "f.csv"
    extra = ["--out", str(out_path)] if argv[0] == "sweep" else []
    code, out, err = run_cli(capsys, *argv, *extra)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256
    csv = hashlib.sha256(out_path.read_bytes()).hexdigest() if out_path.exists() else None
    assert csv == csv_sha256


# diag(0.25, 0.25, 0.25, 0.25) with entry (0, 1) set to 1e308 and entry
# (1, 0) to the value given.
_HUGE_PAIR = (b"0.25 0 1e308 0 0 0 0 0\n%s 0 0.25 0 0 0 0 0\n"
              b"0 0 0 0 0.25 0 0 0\n0 0 0 0 0 0 0.25 0\n")

# The files every error-exit call finds in its working directory.
ERROR_FILES = {
    "bell.txt": BELL_STATE_TEXT.encode(),
    "trace2.txt": b"0.5 0 " + b"0 0 0 0 0 0 0 0 0.5 0 " * 3,  # diag(0.5, 0.5, 0.5, 0.5)
    "short.txt": b"0 0 1 0\n",
    "garbled.txt": b"0 " * 31 + b"oops\n",
    "binary.txt": b"\xff\xfe\x00",
    "huge-hermitian.txt": _HUGE_PAIR % b"1e308",
    "huge-skew.txt": _HUGE_PAIR % b"-1e308",
    "unknown.cfg": b"model=isodm\nj=1\nfrobnicate=1\n",
    "malformed.cfg": b"model=isodm\nj 1\n",
    "nonnumeric.cfg": b"model=isodm\nj=one\n",
    "binary.cfg": b"\xff\xfe\x00",
    "other-command.cfg": b"model=isodm\n",
    "prefix.cfg": b"model=isodm\nser=0\n",  # ser is a prefix of --series
    "nested.cfg": b"model=isodm\nj=1\nconfig=other.cfg\n",
    "help.cfg": b"model=isodm\nj=1\nhelp=1\n",
    "nan.cfg": b"model=isodm\nj=nan\n",
    "inf.cfg": b"model=isodm\nj=1\nb=inf\n",
    "negative-seed.cfg": b"seed=-1\n",
    "big-seed.cfg": b"count=2\nseed=18446744073709551616\n",
    ".tmp": b"",
    "dir.csv/kept": b"",  # dir.csv is a directory
    "dir.csv/.tmp": b"",
}

# Every documented error exit that a call reaches in-process, as argv: (exit
# code, error line, twin). A twin runs the call again with its last flag and
# value moved into a config file as flag=value, and expects the same stderr.
ERROR_EXITS = {
    "": (3, "the following arguments are required: command", False),
    "measures": (3, "--model is required (or give --state)", False),
    "measures --model isodm": (3, "--j is required", False),
    "measures --model isodm --j nan": (3, "argument --j: must be finite, got 'nan'", True),
    # A value that starts with "-" and is not a number is still the flag's value.
    "measures --model isodm --j -1x": (3, "argument --j: not a number: '-1x'", True),
    "measures --model isodm --j -inf": (3, "argument --j: must be finite, got '-inf'", True),
    "measures --model isodm --j -nan": (3, "argument --j: must be finite, got '-nan'", True),
    "measures --model isodm --j -Infinity":
        (3, "argument --j: must be finite, got '-Infinity'", True),
    # Every flag given is checked, also one the chosen model does not use.
    "measures --model isodm --j 1 --b nan": (3, "argument --b: must be finite, got 'nan'", True),
    "measures --j 1 --model heisenberg":
        (3, "argument --model: invalid choice: 'heisenberg' (choose from 'isodm', 'xxz')", True),
    "measures --model isodm --j 1 --frob": (3, "unrecognized arguments: --frob", False),
    "measures --state trace2.txt": (2, "invalid state: trace is 2, expected 1", False),
    "measures --state short.txt":
        (2, "invalid state: state file must hold 16 're im' pairs (32 numbers), got 4", False),
    "measures --state garbled.txt": (2, "invalid state: state file has a non-numeric entry: "
                                        "could not convert string to float: 'oops'", False),
    "measures --state nope.txt": (2, "invalid state: cannot read state file: "
                                     "[Errno 2] No such file or directory: 'nope.txt'", False),
    "measures --state dir.csv": (2, "invalid state: cannot read state file: "
                                   "[Errno 21] Is a directory: 'dir.csv'", True),
    "measures --state binary.txt":
        (2, f"invalid state: cannot read state file: {UTF8_ERROR}", False),
    # The 1e308 pair overflows the sums of a check; the file is refused by the
    # check that fails, with no warning (an error under pytest) before it.
    "measures --state huge-hermitian.txt":
        (2, "invalid state: matrix has a negative eigenvalue beyond tolerance", False),
    "measures --state huge-skew.txt": (2, "invalid state: matrix is not Hermitian within tolerance",
                                       False),
    "measures --config unknown.cfg": (3, "unknown config key 'frobnicate' for measures", False),
    "measures --config malformed.cfg": (3, "config line 2 is not key=value: 'j 1'", False),
    "measures --config nonnumeric.cfg": (3, "argument --j: not a number: 'one'", False),
    "measures --config nope.cfg":
        (3, "cannot read config file: [Errno 2] No such file or directory: 'nope.cfg'", False),
    "measures --config dir.csv":
        (3, "cannot read config file: [Errno 21] Is a directory: 'dir.csv'", False),
    "verify --config binary.cfg": (3, f"cannot read config file: {UTF8_ERROR}", False),
    # A config key is a long flag of the subcommand, spelled out; its value
    # passes the flag's checks.
    "verify --config other-command.cfg": (3, "unknown config key 'model' for verify", False),
    "sweep --config prefix.cfg --out s.csv": (3, "unknown config key 'ser' for sweep", False),
    "measures --config nested.cfg": (3, "unknown config key 'config' for measures", False),
    "measures --config help.cfg": (3, "unknown config key 'help' for measures", False),
    "measures --config nan.cfg": (3, "argument --j: must be finite, got 'nan'", False),
    "measures --config inf.cfg": (3, "argument --b: must be finite, got 'inf'", False),
    "verify --config negative-seed.cfg":
        (3, "argument --seed: must be in [0, 2**64 - 1], got -1", False),
    "verify --config big-seed.cfg":
        (3, "argument --seed: must be in [0, 2**64 - 1], got 18446744073709551616", False),
    "sweep --model isodm": (3, "--out is required", False),
    # <out>.tmp would be a file named .tmp, truncated and then removed.
    "sweep --model isodm --j-steps 2 --out=": (3, "--out must name a file, got ''", False),
    "sweep --model isodm --j-steps 2 --out dir.csv/":
        (3, "--out must name a file, got 'dir.csv/'", True),
    "sweep --out s.csv": (3, "--model is required", False),
    "sweep --model isodm --out s.csv --j-steps 1": (3, "--j-steps must be at least 2, got 1", True),
    "sweep --model isodm --out s.csv --j-start 2 --j-end 1":
        (3, "--j-start must be below --j-end, got 2.0 >= 1.0", True),
    # Both ends are finite, but --j-end minus --j-start is not a float.
    "sweep --model isodm --out s.csv --j-start=-1e308 --j-end 1e308":
        (3, "--j-end - --j-start must be finite, got 1e+308 - -1e+308", True),
    "sweep --model isodm --out s.csv --series abc":
        (3, "series member 'abc': not a number: 'abc'", True),
    "sweep --model isodm --out s.csv --series nan":
        (3, "series member 'nan': must be finite, got 'nan'", True),
    "sweep --model xxz --out s.csv --series 0:inf":
        (3, "series member '0:inf': must be finite, got 'inf'", True),
    # The member shape comes from the params fields after j.
    "sweep --model xxz --out s.csv --series 1":
        (3, "xxz series member must be delta:b, got '1'", True),
    "sweep --model xxz --out s.csv --series 0:1:2":
        (3, "xxz series member must be delta:b, got '0:1:2'", True),
    "sweep --model isodm --out s.csv --series 1:2":
        (3, "isodm series member must be d, got '1:2'", True),
    "sweep --model isodm --out s.csv --series 0,,1": (3, "empty series member", True),
    "sweep --model isodm --out s.csv --series 0,": (3, "empty series member", True),
    # The row limit counts every series member, and is checked before the
    # grid is allocated: numpy cannot allocate 1e13 points.
    "sweep --model isodm --out s.csv --j-steps 500001 --series 0,1":
        (3, "--j-steps 500001 x 2 series = 1000002 rows, above the limit of 1000000", True),
    "sweep --model isodm --out s.csv --j-steps 10000000000000":
        (3, "--j-steps 10000000000000 x 1 series = 10000000000000 rows, "
            "above the limit of 1000000", True),
    # The temporary file cannot be made, or would have to replace a directory.
    "sweep --model isodm --j-steps 2 --out not-here/x.csv":
        (4, "cannot write CSV: [Errno 2] No such file or directory: 'not-here/x.csv.tmp'", True),
    "sweep --model isodm --j-steps 2 --out dir.csv":
        (4, "cannot write CSV: [Errno 21] Is a directory: 'dir.csv.tmp' -> 'dir.csv'", True),
    "critical --model isodm --d 10":
        (5, "no bracket: isodm threshold at d=10: no sign change over j in [-50, 50]", True),
    # Here abs(nu) overflows from finite parts in a window of j > 0; the
    # scan reads that as a positive gap, not as an OverflowError.
    "critical --model isodm --d 685.85":
        (5, "no bracket: isodm threshold at d=685.85: no sign change over j in [-50, 50]", True),
    "verify --count 0": (3, "--count must be a positive integer, got 0", True),
    "verify --count -3": (3, "--count must be a positive integer, got -3", True),
    "verify --count 1 --seed -1": (3, "argument --seed: must be in [0, 2**64 - 1], got -1", True),
    "verify --count 1 --seed 18446744073709551616":
        (3, "argument --seed: must be in [0, 2**64 - 1], got 18446744073709551616", True),
    "verify --count 1 --seed 18446744073709551617":
        (3, "argument --seed: must be in [0, 2**64 - 1], got 18446744073709551617", True),
    "verify --count 1 --seed 1.5": (3, "argument --seed: not an integer: '1.5'", True),
}


def config_twin(argv):
    """``argv`` with its last flag and value moved into twin.cfg, and the files to write."""
    *head, flag, value = argv
    twin = f"{flag[2:]}={value}\n".encode()
    return [*head, "--config", "twin.cfg"], {**ERROR_FILES, "twin.cfg": twin}


def assert_error_exit(tmp_path, capsys, monkeypatch, argv, files, code, line):
    """Run ``argv`` in ``tmp_path`` holding ``files``: it exits ``code``,
    prints nothing on stdout, makes or removes no file, and prints on stderr
    the one ``line``, for exit 3 after the usage block of its parser."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(content)
    made = sorted(tmp_path.rglob("*"))
    if code == 3:
        # The top-level parser reports a missing subcommand and arguments
        # that no parser takes.
        command = "" if not argv or line.startswith("unrecognized arguments: ") else argv[0]
        usage = HELP_TEXT[command].split("\n\n")[0]
        prog = f"spincorr {command}".rstrip()
        line = f"{usage}\n{prog}: error: {line}"
    assert run_cli(capsys, *argv) == (code, "", line + "\n")
    assert sorted(tmp_path.rglob("*")) == made


def _error_exit_calls():
    """Each ERROR_EXITS row as flags, and then as its config twin."""
    for argv, (code, line, twin) in ERROR_EXITS.items():
        yield pytest.param(argv.split(), ERROR_FILES, code, line, id=argv or "no command")
        if twin:
            yield pytest.param(*config_twin(argv.split()), code, line, id=f"config: {argv}")


@pytest.mark.parametrize("argv, files, code, line", _error_exit_calls())
def test_error_exits(tmp_path, capsys, monkeypatch, argv, files, code, line):
    assert_error_exit(tmp_path, capsys, monkeypatch, argv, files, code, line)


def test_unwritable_sweep_exits_before_the_first_row(tmp_path, capsys, monkeypatch):
    calls = _edit_results_at(monkeypatch, models, "measures_isodm", {})
    lines = {
        "not-here/x.csv":
            "cannot write CSV: [Errno 2] No such file or directory: 'not-here/x.csv.tmp'",
        "dir.csv": "cannot write CSV: [Errno 21] Is a directory: 'dir.csv.tmp' -> 'dir.csv'",
    }
    for out, line in lines.items():
        argv = f"sweep --model isodm --j-steps 20001 --out {out}".split()
        assert_error_exit(tmp_path, capsys, monkeypatch, argv, {"dir.csv/kept": b""}, 4, line)
    assert next(calls) == 0


def test_sweep_replaces_a_symlink_to_a_directory(tmp_path, capsys, monkeypatch):
    """os.replace renames over the link itself: the run succeeds, the link
    becomes the CSV, and the directory it named is left as it was."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "link.csv").symlink_to("dir", target_is_directory=True)
    argv = "sweep --model isodm --j-steps 3 --out".split()
    assert run_cli(capsys, *argv, "plain.csv") == run_cli(capsys, *argv, "link.csv") == (0, "", "")
    assert not (tmp_path / "link.csv").is_symlink()
    assert (tmp_path / "link.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert sorted(tmp_path.rglob("*")) == [tmp_path / n for n in ("dir", "link.csv", "plain.csv")]


def test_a_sweep_row_that_fails_verification_leaves_no_file(tmp_path, capsys, monkeypatch):
    error = ClosedFormMismatch("injected at row 3")
    _edit_results_at(monkeypatch, models, "measures_isodm", {2: _raise(error)})
    argv = "sweep --model isodm --j-steps 5 --out s.csv".split()
    line = "verification failure: injected at row 3"
    assert_error_exit(tmp_path, capsys, monkeypatch, argv, {}, 1, line)


def test_internal_error_maps_to_verification_exit(tmp_path, capsys, monkeypatch):
    def broken(d):
        raise ClosedFormMismatch("injected for the error-path test")

    monkeypatch.setattr(models, "critical_coupling_isodm", broken)
    argv = "critical --model isodm --d 0".split()
    line = "verification failure: injected for the error-path test"
    assert_error_exit(tmp_path, capsys, monkeypatch, argv, {}, 1, line)


def test_an_unexpected_sweep_error_propagates_and_keeps_the_old_csv(tmp_path, capsys, monkeypatch):
    error = RuntimeError("injected at row 3")
    _edit_results_at(monkeypatch, models, "measures_isodm", {2: _raise(error)})
    out = tmp_path / "s.csv"
    out.write_bytes(b"old bytes\n")
    with pytest.raises(RuntimeError, match="injected at row 3"):
        cli.main(["sweep", "--model", "isodm", "--j-steps", "5", "--out", str(out)])
    assert capsys.readouterr() == ("", "")
    assert sorted(tmp_path.iterdir()) == [out]
    assert out.read_bytes() == b"old bytes\n"


# Model flags that a call would ignore (STATE is a state file), as
# argv: error line, or (line as a flag, line as a config key).
REFUSED_MODEL_FLAGS = {
    "critical --model isodm --d 0 --j 3":
        ("unrecognized arguments: --j 3", "unknown config key 'j' for critical"),
    "measures --state STATE --model isodm": "--model and --state: give one, not both",
    "measures --state STATE --j 3": "--j and --state: give one, not both",
    "measures --state STATE --d 7": "--d and --state: give one, not both",
    "measures --state STATE --delta 1": "--delta and --state: give one, not both",
    "measures --state STATE --b 1": "--b and --state: give one, not both",
    "measures --model isodm --j 1 --delta 0": "--delta is not a parameter of isodm",
    "measures --model isodm --j 1 --b 2": "--b is not a parameter of isodm",
    "measures --model xxz --j 1 --d 0": "--d is not a parameter of xxz",
    "sweep --model isodm --b 1": "--b is not a parameter of isodm",
    "sweep --model xxz --d 1": "--d is not a parameter of xxz",
    "sweep --model isodm --j 1": ("ambiguous option: --j could match --j-start, --j-end, --j-steps",
                                  "unknown config key 'j' for sweep"),
    "sweep --model isodm --series 0,2 --d 1":
        "--d is not used with --series: each member sets it",
    "sweep --model xxz --series 0:0 --delta 1":
        "--delta is not used with --series: each member sets it",
    "sweep --model xxz --series 0:0 --b 1":
        "--b is not used with --series: each member sets it",
    "critical --model isodm --delta 1": "--delta is not a parameter of isodm",
    "critical --model xxz --d 3": "--d is not a parameter of xxz",
}


@pytest.mark.parametrize("argv", REFUSED_MODEL_FLAGS)
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_ignored_model_flags_are_refused(tmp_path, capsys, monkeypatch, argv, via_config):
    lines = REFUSED_MODEL_FLAGS[argv]
    line = lines if isinstance(lines, str) else lines[via_config]
    argv, files = argv.replace("STATE", "bell.txt").split(), ERROR_FILES
    if via_config:
        argv, files = config_twin(argv)
    extra = ["--out", "s.csv"] if argv[0] == "sweep" else []
    assert_error_exit(tmp_path, capsys, monkeypatch, argv + extra, files, 3, line)


# A negative value in scientific notation, or one that is not a plain
# number, right after its flag: the last two tokens are the flag and value.
NEGATIVE_VALUE_CALLS = [
    ("measures", "--model", "isodm", "--j", "-1e-3"),
    ("measures", "--model", "xxz", "--j", "1", "--b", "-.5E1"),
    ("critical", "--model", "xxz", "--delta", "-2e0"),
    ("sweep", "--model", "xxz", "--series", "-1:0"),
    ("sweep", "--model", "isodm", "--j-start", "-1e-1"),
    ("measures", "--model", "isodm", "--j", "-1x"),
    ("measures", "--model", "isodm", "--j", "-inf"),
    ("measures", "--model", "isodm", "--j", "-nan"),
    ("measures", "--model", "isodm", "--j", "-Infinity"),
]


@pytest.mark.parametrize("argv", NEGATIVE_VALUE_CALLS, ids=" ".join)
def test_negative_values_parse_like_the_equals_form(tmp_path, capsys, argv):
    out_path = tmp_path / "f.csv"
    extra = ["--out", str(out_path)] if argv[0] == "sweep" else []
    spaced = run_cli_csv(capsys, out_path, *argv, *extra)
    assert spaced == run_cli_csv(capsys, out_path, *argv[:-2], f"{argv[-2]}={argv[-1]}", *extra)
    code, _, err, csv = spaced
    if " ".join(argv) not in ERROR_EXITS:  # the failing calls' stderr is pinned there
        assert (code, err) == (0, "") and (csv is not None) == (argv[0] == "sweep")

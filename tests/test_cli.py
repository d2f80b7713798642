"""End-to-end tests of the command-line interface."""

import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from spincorr import cli, measures, models, oracle
from spincorr.errors import ClosedFormMismatch
from spincorr.rng import Lcg, random_state

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
usage: spincorr sweep [-h] [--model {isodm,xxz}] [--j J] [--d D]
                      [--delta DELTA] [--b B] [--config CONFIG]
                      [--j-start J_START] [--j-end J_END] [--j-steps J_STEPS]
                      [--series SERIES] [--out OUT]

options:
  -h, --help           show this help message and exit
  --model {isodm,xxz}  spin model
  --j J                exchange coupling J/kT
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


def run_module(cwd, *argv):
    """Run ``python -m spincorr`` in ``cwd``; returns (code, stdout, stderr)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-m", "spincorr", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return result.returncode, result.stdout, result.stderr


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


def test_measures_model_point(capsys):
    code, out, err = run_cli(
        capsys, "measures", "--model", "isodm", "--j", "1", "--d", "0"
    )
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "C = 0.422469188455",
        "N = 0.189099867478",
        "Q = 0.0945499337388",
        "Q_paper = 0.0945499337388",
        "D_exact = 0.0945499337388",
        "branch = XZero",
    ]


def test_measures_xxz_zero_coupling(capsys):
    code, out, err = run_cli(
        capsys, "measures", "--model", "xxz", "--j", "0", "--delta", "1", "--b", "3"
    )
    assert code == 0
    assert out.splitlines() == [
        "C = 0.000000000000",
        "N = 0.000000000000",
        "Q = 0.000000000000",
        "Q_paper = 0.000000000000",
        "D_exact = 0.000000000000",
        "branch = XNonzero",
    ]


def test_measures_xxz_zero_field_positive_anisotropy(capsys):
    # Q_paper = n_closed/2 uses the zero-field closed form
    # (kappa/Z)^2 + t3^2 here; the other lines are pipeline values.
    code, out, err = run_cli(
        capsys, "measures", "--model", "xxz", "--j", "-5", "--delta", "1", "--b", "0"
    )
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "C = 0.000000000000",
        "N = 0.246656279576",
        "Q = 2.81821612919e-06",
        "Q_paper = 0.123328139788",
        "D_exact = 2.81821612919e-06",
        "branch = XZero",
    ]


def test_measures_xxz_at_the_marginal_cutoff(capsys):
    # The entries put |x_z| just above 1e-9 while the Bloch decomposition
    # puts |x| at or below it; the closed form follows the pipeline's branch.
    code, out, err = run_cli(
        capsys,
        "measures", "--model", "xxz", "--j", "2", "--delta", "3",
        "--b", "2.243189458650676e-05",
    )
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "C = 0.963852469804",
        "N = 0.482206715007",
        "Q = 0.232295865822",
        "Q_paper = 0.241103357503",
        "D_exact = 0.232295865822",
        "branch = XZero",
    ]


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


def test_measures_state_file_errors(tmp_path, capsys):
    trace_two = tmp_path / "trace2.txt"
    write_state_file(trace_two, np.diag([0.5, 0.5, 0.5, 0.5]))
    code, _, err = run_cli(capsys, "measures", "--state", str(trace_two))
    assert code == 2 and "invalid state" in err

    short = tmp_path / "short.txt"
    short.write_text("0 0 1 0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "measures", "--state", str(short))
    assert code == 2 and "32 numbers" in err

    garbled = tmp_path / "garbled.txt"
    garbled.write_text(" ".join(["0"] * 31) + " oops\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "measures", "--state", str(garbled))
    assert code == 2 and "non-numeric" in err

    code, _, err = run_cli(capsys, "measures", "--state", str(tmp_path / "nope.txt"))
    assert code == 2 and "cannot read" in err

    # A 1e308 off-diagonal pair overflows the sums of a check; the file is
    # refused by the check that fails, with no warning printed before it.
    for name, partner, message in (
        ("hermitian.txt", 1e308, "matrix has a negative eigenvalue beyond tolerance"),
        ("skew.txt", -1e308, "matrix is not Hermitian within tolerance"),
    ):
        huge = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        huge[0, 1], huge[1, 0] = 1e308, partner
        write_state_file(tmp_path / name, huge)
        code, out, err = run_module(tmp_path, "measures", "--state", name)
        assert (code, out, err) == (2, "", f"invalid state: {message}\n")
        assert "Warning" not in err and "Traceback" not in err


def test_measures_bad_arguments(tmp_path, capsys):
    assert run_cli(capsys, "measures", "--model", "isodm")[0] == 3  # no --j
    assert run_cli(capsys, "measures", "--model", "isodm", "--j", "nan")[0] == 3
    # Every flag given is checked, also one the chosen model does not use.
    assert run_cli(capsys, "measures", "--model", "isodm", "--j", "1", "--b", "nan")[0] == 3
    assert run_cli(capsys, "measures")[0] == 3  # neither model nor state
    state = tmp_path / "bell.txt"
    state.write_text(BELL_STATE_TEXT, encoding="utf-8")
    code, _, err = run_cli(
        capsys, "measures", "--state", str(state), "--model", "isodm"
    )
    assert code == 3 and "not both" in err
    assert run_cli(capsys, "measures", "--model", "heisenberg", "--j", "1")[0] == 3
    assert run_cli(capsys, "measures", "--model", "isodm", "--j", "1", "--frob")[0] == 3
    assert run_cli(capsys)[0] == 3  # missing subcommand


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


def test_sweep_bad_arguments(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    base = ("sweep", "--model", "isodm", "--out", out)
    assert run_cli(capsys, *base, "--j-steps", "1")[0] == 3
    assert run_cli(capsys, *base, "--j-start", "2", "--j-end", "1")[0] == 3
    assert run_cli(capsys, "sweep", "--model", "isodm")[0] == 3  # no --out
    assert run_cli(capsys, "sweep", "--out", out)[0] == 3  # no --model
    assert run_cli(capsys, *base, "--series", "abc")[0] == 3
    code, _, err = run_cli(capsys, *base, "--series", "nan")
    assert code == 3 and "must be finite" in err
    code, _, err = run_cli(
        capsys, "sweep", "--model", "xxz", "--out", out, "--series", "0:inf"
    )
    assert code == 3 and "must be finite" in err
    assert run_cli(capsys, "sweep", "--model", "xxz", "--out", out, "--series", "1")[0] == 3
    # The row limit counts every series member.
    code, _, err = run_cli(capsys, *base, "--j-steps", "500001", "--series", "0,1")
    assert code == 3 and err.endswith("= 1000002 rows, above the limit of 1000000\n")
    # The member shape comes from the params fields after j.
    for model, series, wording in (
        ("xxz", "0:1:2", "xxz series member must be delta:b, got '0:1:2'"),
        ("isodm", "1:2", "isodm series member must be d, got '1:2'"),
        ("isodm", "0,,1", "empty series member"),
        ("isodm", "0,", "empty series member"),
    ):
        code, stdout, err = run_cli(
            capsys, "sweep", "--model", model, "--out", out, "--series", series
        )
        assert (code, stdout, err.splitlines()[-1]) == (3, "", f"spincorr: error: {wording}")


def test_sweep_refuses_a_span_that_overflows(tmp_path):
    # Both ends are finite, but --j-end minus --j-start is not a float.
    code, out, err = run_module(
        tmp_path, "sweep", "--model", "isodm", "--j-start=-1e308", "--j-end", "1e308",
        "--j-steps", "3", "--out", "f.csv",
    )
    assert (code, out) == (3, "")
    assert "Warning" not in err and "Traceback" not in err
    assert err.splitlines()[-1] == (
        "spincorr: error: --j-end - --j-start must be finite, got 1e+308 - -1e+308"
    )
    assert not (tmp_path / "f.csv").exists() and not (tmp_path / "f.csv.tmp").exists()


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


def test_non_utf8_state_file_is_an_invalid_state(tmp_path):
    (tmp_path / "state.txt").write_bytes(b"\xff\xfe\x00")
    code, out, err = run_module(tmp_path, "measures", "--state", "state.txt")
    assert (code, out) == (2, "")
    assert err == f"invalid state: cannot read state file: {UTF8_ERROR}\n"


def test_state_file_with_a_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(BELL_STATE_TEXT, encoding="utf-8")
    marked.write_text(BELL_STATE_TEXT, encoding="utf-8-sig")
    expected = run_cli(capsys, "measures", "--state", str(plain))
    assert expected[0] == 0
    assert run_cli(capsys, "measures", "--state", str(marked)) == expected


def test_sweep_refuses_more_rows_than_the_limit(tmp_path):
    # Checked before the grid is allocated: numpy cannot allocate this many.
    code, out, err = run_module(
        tmp_path, "sweep", "--model", "isodm", "--j-steps", "10000000000000", "--out", "x.csv"
    )
    assert (code, out) == (3, "")
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        "spincorr: error: --j-steps 10000000000000 x 1 series = 10000000000000 rows, "
        "above the limit of 1000000"
    )
    assert not (tmp_path / "x.csv").exists()


def test_sweep_io_failure(tmp_path, capsys):
    missing_dir = tmp_path / "not-here" / "x.csv"
    code, _, err = run_cli(
        capsys, "sweep", "--model", "isodm", "--j-steps", "2", "--out", str(missing_dir)
    )
    assert code == 4 and "cannot write CSV" in err


def test_critical_output(capsys):
    code, out, err = run_cli(capsys, "critical", "--model", "isodm", "--d", "0")
    assert code == 0 and out == "0.549306144\n"
    code, out, err = run_cli(capsys, "critical", "--model", "xxz", "--delta", "0", "--b", "2")
    assert code == 0 and out == "0.549306144\n"  # threshold ignores the field
    code, out, err = run_cli(capsys, "critical", "--model", "isodm", "--d", "10")
    assert code == 5 and out == "" and "no bracket" in err


def test_verify_small_run_and_determinism(capsys):
    code, out, err = run_cli(capsys, "verify", "--seed", "1", "--count", "5")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "verify: seed=1 count=5 grid=2000"
    assert out.splitlines()[-1] == "result: PASS"
    code, again, _ = run_cli(capsys, "verify", "--seed", "1", "--count", "5")
    assert code == 0 and again == out


def _edit_results_at(monkeypatch, module, name, edits):
    """Wrap ``module.name`` so that its result at call ``i`` (state ``i`` of
    a verify run) is replaced by ``edits[i](result)``."""
    real = getattr(module, name)
    calls = itertools.count()

    def wrapper(rho):
        result = real(rho)
        edit = edits.get(next(calls))
        return result if edit is None else edit(result)

    monkeypatch.setattr(module, name, wrapper)


def _replace(**changes):
    return lambda result: dataclasses.replace(result, **changes)


def _shift(delta):
    return lambda result: dataclasses.replace(result, value=result.value + delta)


def _flip(entangled):
    return not entangled


def _lower_above_exact(rep):
    return dataclasses.replace(rep, gmod_lower=rep.gmod_exact + 1e-9)


_NONLOCALITY = (oracle, "min_oracle", {4: _shift(0.01)})
_DISCORD = (oracle, "gmod_oracle", {1: _shift(-0.002)})
_WITNESS = (oracle, "ppt_entangled", {2: _flip, 5: _flip})
_LOWER_BOUND = (measures, "report", {6: _lower_above_exact})
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


def _fail_stdout(summary, violations):
    lines = ["verify: seed=3 count=8 grid=2000", *summary.values(), *violations]
    return "\n".join(lines + ["result: FAIL"]) + "\n"


# (edited results, expected stdout); taken from the CLI before its gate loop
# was rewritten. Every gate is checked alone, all together, and on a tie.
VERIFY_FAILURES = {
    "nonlocality": (
        [_NONLOCALITY],
        _fail_stdout({**_SUMMARY, "min": _VIOLATED["min"]}, [_VIOLATIONS["min"]]),
    ),
    "discord": (
        [_DISCORD],
        _fail_stdout({**_SUMMARY, "gmod": _VIOLATED["gmod"]}, [_VIOLATIONS["gmod"]]),
    ),
    "witness": (
        [_WITNESS],
        _fail_stdout({**_SUMMARY, "ppt": _VIOLATED["ppt"]}, [_VIOLATIONS["ppt"]]),
    ),
    "lower-bound": (
        [_LOWER_BOUND],
        _fail_stdout({**_SUMMARY, "lower": _VIOLATED["lower"]}, [_VIOLATIONS["lower"]]),
    ),
    "all-four": (
        [_NONLOCALITY, _DISCORD, _WITNESS, _LOWER_BOUND],
        _fail_stdout(_VIOLATED, list(_VIOLATIONS.values())),
    ),
    # States 3 and 7 deviate by exactly 0.5: the first one is reported.
    "tie": (
        [
            (measures, "report", {3: _replace(min_value=1.0), 7: _replace(min_value=1.0)}),
            (oracle, "min_oracle", {3: _replace(value=0.5), 7: _replace(value=0.5)}),
        ],
        _fail_stdout(
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


def test_verify_bad_count(capsys):
    assert run_cli(capsys, "verify", "--count", "0")[0] == 3
    assert run_cli(capsys, "verify", "--count", "-3")[0] == 3


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "point.cfg"
    config.write_text("model=isodm\nj=1\nd=0  # comment\n\n", encoding="utf-8")
    code, from_config, _ = run_cli(capsys, "measures", "--config", str(config))
    assert code == 0
    _, from_flags, _ = run_cli(
        capsys, "measures", "--model", "isodm", "--j", "1", "--d", "0"
    )
    assert from_config == from_flags


def test_config_flags_win_on_conflict(tmp_path, capsys):
    config = tmp_path / "point.cfg"
    config.write_text("model=isodm\nj=1\nd=0\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "measures", "--config", str(config), "--j", "0")
    assert code == 0
    assert out.splitlines()[0] == "C = 0.000000000000"

    verify_cfg = tmp_path / "verify.cfg"
    verify_cfg.write_text("count=5\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--count", "2", "--config", str(verify_cfg))
    assert code == 0
    assert out.splitlines()[0] == "verify: seed=1 count=2 grid=2000"


def test_config_rejects_bad_content(tmp_path, capsys):
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("model=isodm\nj=1\nfrobnicate=1\n", encoding="utf-8")
    assert run_cli(capsys, "measures", "--config", str(unknown))[0] == 3

    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("model=isodm\nj 1\n", encoding="utf-8")
    assert run_cli(capsys, "measures", "--config", str(malformed))[0] == 3

    non_numeric = tmp_path / "nonnumeric.cfg"
    non_numeric.write_text("model=isodm\nj=one\n", encoding="utf-8")
    assert run_cli(capsys, "measures", "--config", str(non_numeric))[0] == 3

    assert run_cli(capsys, "measures", "--config", str(tmp_path / "nope.cfg"))[0] == 3

    not_utf8 = tmp_path / "binary.cfg"
    not_utf8.write_bytes(b"\xff\xfe\x00")
    code, out, err = run_cli(capsys, "verify", "--config", str(not_utf8))
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == f"spincorr: error: cannot read config file: {UTF8_ERROR}"


def test_config_file_with_a_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text("model=isodm\nj=1\nd=0\n", encoding="utf-8")
    marked.write_text("model=isodm\nj=1\nd=0\n", encoding="utf-8-sig")
    expected = run_cli(capsys, "measures", "--config", str(plain))
    assert expected[0] == 0
    assert run_cli(capsys, "measures", "--config", str(marked)) == expected


def test_config_with_dashed_keys_and_verify(tmp_path, capsys):
    config = tmp_path / "verify.cfg"
    config.write_text("seed=3\ncount=2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--config", str(config))
    assert code == 0
    assert out.splitlines()[0] == "verify: seed=3 count=2 grid=2000"

    sweep_cfg = tmp_path / "sweep.cfg"
    out_path = tmp_path / "s.csv"
    sweep_cfg.write_text("model=isodm\nj-steps=3\nj-start=0\nj-end=1\nd=0\n")
    code = cli.main(["sweep", "--config", str(sweep_cfg), "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    assert len(out_path.read_text().splitlines()) == 4


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

    def call(argv):
        if csv.exists():
            csv.unlink()
        code, out, err = run_cli(capsys, *argv)
        return code, out, err, csv.read_bytes() if csv.exists() else None

    assert cli._build_parser() is cli._build_parser()
    for sequence in sequences:
        cli._build_parser.cache_clear()
        shared = [call(argv) for argv, _ in sequence]
        for (argv, code), result in zip(sequence, shared):
            assert result[0] == code
            cli._build_parser.cache_clear()
            assert call(argv) == result


def test_module_entrypoint_subprocess(tmp_path):
    code, out, _ = run_module(tmp_path, "critical", "--model", "isodm", "--d", "0")
    assert code == 0
    assert out == "0.549306144\n"


def test_internal_error_maps_to_verification_exit(monkeypatch, capsys):
    def broken(d):
        raise ClosedFormMismatch("injected for the error-path test")

    monkeypatch.setattr(models, "critical_coupling_isodm", broken)
    code, _, err = run_cli(capsys, "critical", "--model", "isodm", "--d", "0")
    assert code == 1 and "verification failure" in err


@pytest.mark.parametrize("command", sorted(HELP_TEXT), ids=lambda c: c or "spincorr")
def test_help_text_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *([command] if command else []), "-h")
    assert (code, out, err) == (0, HELP_TEXT[command], "")


def test_seed_must_fit_the_generator_state(capsys):
    for seed in ("-1", "18446744073709551616", "18446744073709551617", "1.5"):
        code, out, err = run_cli(capsys, "verify", "--seed", seed, "--count", "1")
        assert code == 3 and out == ""
        assert err.splitlines()[-1].startswith("spincorr verify: error: argument --seed")
    code, out, _ = run_cli(
        capsys, "verify", "--seed", "18446744073709551615", "--count", "1"
    )
    assert code == 0
    assert out.splitlines()[0] == "verify: seed=18446744073709551615 count=1 grid=2000"


@pytest.mark.parametrize(
    "command, content",
    [
        ("verify", "model=isodm\n"),  # a key of another subcommand
        ("sweep", "model=isodm\nser=0\n"),  # a prefix of --series
        ("measures", "model=isodm\nj=1\nconfig=other.cfg\n"),
        ("measures", "model=isodm\nj=1\nhelp=1\n"),
        ("measures", "model=isodm\nj=nan\n"),
        ("measures", "model=isodm\nj=1\nb=inf\n"),
        ("verify", "seed=-1\n"),
        ("verify", "count=2\nseed=18446744073709551616\n"),
    ],
)
def test_config_values_pass_the_flag_checks(tmp_path, capsys, command, content):
    config = tmp_path / "bad.cfg"
    config.write_text(content, encoding="utf-8")
    out_path = tmp_path / "s.csv"
    extra = ["--out", str(out_path)] if command == "sweep" else []
    code, out, err = run_cli(capsys, command, "--config", str(config), *extra)
    assert code == 3 and out == "" and not out_path.exists()
    assert ": error: " in err.splitlines()[-1]


@pytest.mark.parametrize(
    "config_text, flags",
    [
        (
            "model=isodm\nj=-1.5\nd=2\n",
            ("measures", "--model", "isodm", "--j", "-1.5", "--d", "2"),
        ),
        (
            "model=xxz\nseries=0:0, 1:-2\nj_start=-1\nj-end=1\nj-steps=4\n",
            ("sweep", "--model", "xxz", "--series", "0:0, 1:-2", "--j-start", "-1",
             "--j-end", "1", "--j-steps", "4"),
        ),
        (
            "model=xxz\ndelta=-0.5\nb=3\n",
            ("critical", "--model", "xxz", "--delta", "-0.5", "--b", "3"),
        ),
        ("seed=5\ncount=2\n", ("verify", "--seed", "5", "--count", "2")),
    ],
)
def test_config_call_matches_flag_call(tmp_path, capsys, config_text, flags):
    config = tmp_path / "run.cfg"
    config.write_text(config_text, encoding="utf-8")
    command = flags[0]
    out_path = tmp_path / "s.csv"
    extra = ["--out", str(out_path)] if command == "sweep" else []

    def call(*argv):
        result = run_cli(capsys, *argv, *extra)
        csv = out_path.read_bytes() if out_path.exists() else None
        if csv is not None:
            out_path.unlink()
        return result, csv

    from_config = call(command, "--config", str(config))
    assert from_config == call(*flags)
    assert from_config[0][0] == 0
    assert (from_config[1] is not None) == (command == "sweep")


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


# Model flags that a call would ignore, each as a flag and as a config key.
REFUSED_MODEL_FLAGS = [
    ("critical", "--model", "isodm", "--d", "0", "--j", "3"),
    ("measures", "--state", "STATE", "--model", "isodm"),
    ("measures", "--state", "STATE", "--j", "3"),
    ("measures", "--state", "STATE", "--d", "7"),
    ("measures", "--state", "STATE", "--delta", "1"),
    ("measures", "--state", "STATE", "--b", "1"),
    ("measures", "--model", "isodm", "--j", "1", "--delta", "0"),
    ("measures", "--model", "isodm", "--j", "1", "--b", "2"),
    ("measures", "--model", "xxz", "--j", "1", "--d", "0"),
    ("sweep", "--model", "isodm", "--b", "1"),
    ("sweep", "--model", "xxz", "--d", "1"),
    ("sweep", "--model", "isodm", "--j", "1"),
    ("sweep", "--model", "isodm", "--series", "0,2", "--d", "1"),
    ("sweep", "--model", "xxz", "--series", "0:0", "--delta", "1"),
    ("sweep", "--model", "xxz", "--series", "0:0", "--b", "1"),
    ("critical", "--model", "isodm", "--delta", "1"),
    ("critical", "--model", "xxz", "--d", "3"),
]


@pytest.mark.parametrize("argv", REFUSED_MODEL_FLAGS, ids=" ".join)
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_ignored_model_flags_are_refused(tmp_path, capsys, argv, via_config):
    state = tmp_path / "bell.txt"
    state.write_text(BELL_STATE_TEXT, encoding="utf-8")
    out_path = tmp_path / "s.csv"
    argv = [str(state) if arg == "STATE" else arg for arg in argv]
    if via_config:  # the last flag moves into a config file
        config = tmp_path / "run.cfg"
        config.write_text(f"{argv[-2][2:]}={argv[-1]}\n", encoding="utf-8")
        argv = argv[:-2] + ["--config", str(config)]
    extra = ["--out", str(out_path)] if argv[0] == "sweep" else []
    code, out, err = run_cli(capsys, *argv, *extra)
    assert (code, out) == (3, "") and not out_path.exists()
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("spincorr: error: ")


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
NON_FINITE_VALUES = ("-inf", "-nan", "-Infinity")


@pytest.mark.parametrize("argv", NEGATIVE_VALUE_CALLS, ids=" ".join)
def test_negative_values_parse_like_the_equals_form(tmp_path, capsys, argv):
    out_path = tmp_path / "f.csv"
    extra = ["--out", str(out_path)] if argv[0] == "sweep" else []

    def call(*args):
        result = run_cli(capsys, *args, *extra)
        csv = out_path.read_bytes() if out_path.exists() else None
        if csv is not None:
            out_path.unlink()
        return result, csv

    spaced = call(*argv)
    assert spaced == call(*argv[:-2], f"{argv[-2]}={argv[-1]}")
    (code, out, err), csv = spaced
    if argv[-1] == "-1x":
        assert (code, out) == (3, "")
        assert err.splitlines()[-1].endswith("argument --j: not a number: '-1x'")
    elif argv[-1] in NON_FINITE_VALUES:
        assert (code, out) == (3, "")
        assert err.splitlines()[-1].endswith(f"argument --j: must be finite, got '{argv[-1]}'")
    else:
        assert (code, err) == (0, "") and (csv is not None) == (argv[0] == "sweep")

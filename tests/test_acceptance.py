"""Acceptance gate: one test per shipped claim, one printed verdict line each.

Every test prints ``criterion NN: PASS/FAIL - detail`` to the real terminal
(bypassing capture) before asserting, so a full run always shows the
complete scoreboard. Each criterion is a claim that the numerics support
as stated: closed forms agree with the pipeline everywhere on the grid
(criterion 06), and the nonlocality-over-concurrence envelope is checked
over its true extent, -0.6 < j < 0 (criterion 11). Where a claim of the
paper fails, a criterion pins the failure (criterion 13).
"""

import hashlib
import math
from itertools import product

import numpy as np

from spincorr import cli, measures, models
from spincorr.models import (
    IsoDMParams,
    XXZParams,
    critical_coupling_isodm,
    measures_isodm,
    measures_xxz,
)
from spincorr.oracle import gmod_oracle, min_oracle

from helpers import bell_psi_plus

LN3_HALF = math.log(3.0) / 2.0
D2_ROOT = -2.5314736976713
WITNESS_GAP = 0.0090812568928532
J_GRID = np.linspace(-5.0, 5.0, 201)
# sha256 of the verify reports: any change to a printed byte must be deliberate.
VERIFY_42_500_SHA256 = "acf275a68eadd37038921e93481897baf0669671cf46652e2451ba0c709dc375"
VERIFY_7_2000_SHA256 = "4c2042b6fed79ac91c066be23c429ea6ce0c6c33ade3fbcb2cdfd9b859bd5ff3"


def verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_bell_state_measures(capsys):
    rep = measures.report(bell_psi_plus())
    oracle_value = min_oracle(bell_psi_plus()).value
    n_dev = abs(rep.min_value - 0.5)
    o_dev = abs(oracle_value - 0.5)
    c_dev = abs(rep.concurrence - 1.0)
    ok = n_dev <= 1e-12 and o_dev <= 1e-6 and c_dev <= 1e-12
    verdict(
        capsys, 1, ok,
        f"Bell state: |N-1/2| = {n_dev:.2e} (closed), {o_dev:.2e} (oracle), "
        f"|C-1| = {c_dev:.2e}",
    )


def test_criterion_02_threshold_cli(capsys):
    code = cli.main(["critical", "--model", "isodm", "--d", "0"])
    out = capsys.readouterr().out
    value = float(out)
    dev = abs(value - LN3_HALF)
    ok = code == 0 and dev <= 1e-6
    verdict(
        capsys, 2, ok,
        f"critical isodm d=0 prints {value:.9f}, |dev from ln(3)/2| = {dev:.2e}",
    )


def test_criterion_03_shifted_threshold_cli(capsys, monkeypatch):
    code = cli.main(["critical", "--model", "isodm", "--d", "2"])
    value = float(capsys.readouterr().out)
    roots = []
    for n in (2001, 4001, 5003):
        monkeypatch.setattr(models, "SCAN_POINTS", n)
        roots.append(critical_coupling_isodm(2.0))
    spread = max(roots) - min(roots)
    ok = code == 0 and abs(value - (-2.55)) <= 0.05 and spread <= 1e-6
    verdict(
        capsys, 3, ok,
        f"critical isodm d=2 prints {value:.9f} (within 0.05 of -2.55), "
        f"scan-refinement spread = {spread:.2e}",
    )


def test_criterion_04_strong_coupling_asymptotes(capsys):
    fm = measures_isodm(IsoDMParams(j=30.0, d=0.0))
    afm = measures_isodm(IsoDMParams(j=-30.0, d=0.0))
    n_dev_fm = abs(fm.n_closed - 0.5)
    n_dev_afm = abs(afm.n_closed - 1.0 / 18.0)
    ok = (
        fm.c_closed >= 0.999
        and n_dev_fm <= 1e-3
        and afm.c_closed == 0.0
        and n_dev_afm <= 1e-3
    )
    verdict(
        capsys, 4, ok,
        f"j=30: C = {fm.c_closed:.6f}, |N-1/2| = {n_dev_fm:.2e}; "
        f"j=-30: C = {afm.c_closed:g}, |N-1/18| = {n_dev_afm:.2e}",
    )


def test_criterion_05_zero_coupling_is_exactly_uncorrelated(capsys):
    rep = measures_isodm(IsoDMParams(j=0.0, d=0.0))
    pipe = rep.pipeline
    worst = max(
        abs(rep.c_closed), abs(rep.n_closed), abs(pipe.concurrence),
        abs(pipe.min_value), abs(pipe.gmod_lower), abs(pipe.gmod_exact),
    )
    ok = worst <= 1e-12
    verdict(capsys, 5, ok, f"j=0, d=0: max |measure| = {worst:.2e}")


def test_criterion_06_closed_forms_match_pipeline_on_grid(capsys):
    worst_c = (0.0, "")
    worst_n = (0.0, "")
    for j in J_GRID:
        for d in (0.0, 1.0, 2.0):
            rep = measures_isodm(IsoDMParams(j=float(j), d=d))
            where = f"isodm(j={j:g}, d={d:g})"
            if rep.c_deviation > worst_c[0]:
                worst_c = (rep.c_deviation, where)
            if rep.n_deviation > worst_n[0]:
                worst_n = (rep.n_deviation, where)
        for delta, b in product((-2.0, -1.0, 0.0, 1.0), (0.0, 1.0, 2.0, 5.0)):
            rep = measures_xxz(XXZParams(j=float(j), delta=delta, b=b))
            where = f"xxz(j={j:g}, delta={delta:g}, b={b:g})"
            if rep.c_deviation > worst_c[0]:
                worst_c = (rep.c_deviation, where)
            if rep.n_deviation > worst_n[0]:
                worst_n = (rep.n_deviation, where)
    ok = worst_c[0] <= 1e-10 and worst_n[0] <= 1e-10
    verdict(
        capsys, 6, ok,
        f"max |C closed - pipeline| = {worst_c[0]:.2e} at {worst_c[1]}; "
        f"max |N closed - pipeline| = {worst_n[0]:.2e} at {worst_n[1]}",
    )


def test_criterion_07_verification_suite(capsys):
    code = cli.main(["verify", "--seed", "42", "--count", "500"])
    report_text = capsys.readouterr().out
    with capsys.disabled():
        print(report_text, end="")
    digest = hashlib.sha256(report_text.encode()).hexdigest()
    ok = code == 0 and digest == VERIFY_42_500_SHA256
    verdict(capsys, 7, ok, f"verify --seed 42 --count 500 exited {code}, stdout sha256 {digest}")


def test_criterion_12_large_count_verification(capsys):
    code = cli.main(["verify", "--seed", "7", "--count", "2000"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    digest = hashlib.sha256(out.encode()).hexdigest()
    ok = (
        code == 0
        and lines[-1] == "result: PASS"
        and "ppt/concurrence disagreements    = 0" in lines
        and digest == VERIFY_7_2000_SHA256
    )
    detail = (
        f"verify --seed 7 --count 2000 exited {code}, ended {lines[-1]!r}, "
        f"stdout sha256 {digest}"
    )
    verdict(capsys, 12, ok, detail)


def test_criterion_08_lower_bound_proportionality(capsys):
    worst = 0.0
    for j in J_GRID:
        worst = max(worst, measures_isodm(IsoDMParams(j=float(j), d=0.0)).q_deviation)
        worst = max(
            worst, measures_xxz(XXZParams(j=float(j), delta=0.0, b=0.0)).q_deviation
        )
    witness = measures_xxz(XXZParams(j=1.0, delta=0.0, b=1.0)).q_deviation
    witness_dev = abs(witness - WITNESS_GAP)
    ok = worst <= 1e-12 and witness_dev <= 1e-6
    verdict(
        capsys, 8, ok,
        f"max |Q - N/2| = {worst:.2e} at isotropic points; field point gap "
        f"= {witness:.12f} (recomputed reference {WITNESS_GAP}, dev {witness_dev:.2e})",
    )


def test_criterion_09_field_sign_symmetry_and_reduction(capsys):
    def outputs(rep):
        return (
            rep.c_closed,
            rep.n_closed,
            rep.pipeline.min_value,
            rep.pipeline.gmod_lower,
            rep.pipeline.gmod_exact,
        )

    worst_sym = 0.0
    for j in J_GRID:
        for delta, b in product((-2.0, -1.0, 0.0, 1.0), (1.0, 2.0, 5.0)):
            plus = outputs(measures_xxz(XXZParams(j=float(j), delta=delta, b=b)))
            minus = outputs(measures_xxz(XXZParams(j=float(j), delta=delta, b=-b)))
            worst_sym = max(
                worst_sym, max(abs(p - m) for p, m in zip(plus, minus))
            )
    worst_red = 0.0
    for j in J_GRID:
        a = outputs(measures_xxz(XXZParams(j=float(j), delta=0.0, b=0.0)))
        b_ = outputs(measures_isodm(IsoDMParams(j=float(j), d=0.0)))
        worst_red = max(worst_red, max(abs(x - y) for x, y in zip(a, b_)))
    ok = worst_sym <= 1e-12 and worst_red <= 1e-12
    verdict(
        capsys, 9, ok,
        f"max dev under b -> -b = {worst_sym:.2e}; "
        f"max dev xxz(delta=0, b=0) vs isodm(d=0) = {worst_red:.2e}",
    )


def test_criterion_10_field_suppression_ladder(capsys):
    reps = [
        measures_xxz(XXZParams(j=2.0, delta=0.0, b=0.5 * k)) for k in range(9)
    ]
    c_values = [r.c_closed for r in reps]
    n_values = [r.n_closed for r in reps]
    ok = all(
        cur <= prev + 1e-15 for prev, cur in zip(c_values, c_values[1:])
    ) and all(cur <= prev + 1e-15 for prev, cur in zip(n_values, n_values[1:]))
    verdict(
        capsys, 10, ok,
        f"j=2, delta=0, b=0..4: C {c_values[0]:.6f} -> {c_values[-1]:.6f}, "
        f"N {n_values[0]:.6f} -> {n_values[-1]:.6f}, both nonincreasing",
    )


def test_criterion_13_field_raises_discord_where_c_vanishes(capsys):
    # The paper's "the field decreases non-classicality" fails here for the
    # discord: with C = 0 throughout, N falls while D and Q rise, peak and fall.
    points = [XXZParams(j=2.0, delta=-1.75, b=b) for b in (0.0, 0.65, 1.0)]
    reps = [measures_xxz(p) for p in points]
    c = [r.c_closed for r in reps]
    n = [r.n_closed for r in reps]
    d = [r.pipeline.gmod_exact for r in reps]
    q = [r.pipeline.gmod_lower for r in reps]
    oracle = [gmod_oracle(models.thermal_xxz(p)).value / 2.0 for p in points]
    oracle_dev = max(abs(o - v) for o, v in zip(oracle, d))
    ok = (
        c == [0.0, 0.0, 0.0]
        and n[0] > n[1] > n[2]
        and all(v[0] < v[2] < v[1] for v in (d, q))
        and oracle_dev <= 6.4e-16
    )
    verdict(
        capsys, 13, ok,
        f"xxz j=2, delta=-1.75, b=0, 0.65, 1: C = {c}, "
        f"N {n[0]:.4f} -> {n[1]:.4f} -> {n[2]:.4f}, "
        f"D {d[0]:.6f} -> {d[1]:.6f} -> {d[2]:.6f} "
        f"(oracle/2 {oracle[0]:.6f}, {oracle[1]:.6f}, {oracle[2]:.6f}, max dev {oracle_dev:.1e}), "
        f"Q {q[0]:.4f} -> {q[1]:.4f} -> {q[2]:.4f}",
    )


def _read_csv(path):
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "j,series,C,N,Q,D_exact"
    rows = []
    for line in lines[1:]:
        j, series, c, n, q, d = line.split(",")
        rows.append(
            {
                "j": float(j),
                "series": series,
                "C": float(c),
                "N": float(n),
                "Q": float(q),
                "D": float(d),
            }
        )
    return rows


def _series(rows, label):
    return [r for r in rows if r["series"] == label]


def _threshold_bracket(series_rows):
    """(largest j with C = 0, smallest j with C > 0) over an ascending sweep."""
    last_off = max(r["j"] for r in series_rows if r["C"] == 0.0)
    first_on = min(r["j"] for r in series_rows if r["C"] > 0.0)
    return last_off, first_on


def test_criterion_11_sweep_artifacts(capsys, tmp_path):
    # CSV print resolution is 12 significant digits, so re-verification of
    # the 1e-12 identities through the files allows one print quantum.
    csv_tol = 2e-12

    thresholds = tmp_path / "thresholds.csv"
    assert cli.main(
        ["sweep", "--model", "isodm", "--series", "0,2", "--out", str(thresholds)]
    ) == 0
    wide = tmp_path / "wide.csv"
    assert cli.main(
        [
            "sweep", "--model", "isodm", "--series", "0",
            "--j-start", "-30", "--j-end", "30", "--j-steps", "121",
            "--out", str(wide),
        ]
    ) == 0
    field = tmp_path / "field.csv"
    field_series = ",".join(
        [f"0:{0.5 * k:g}" for k in range(9)] + ["0:-0.5", "0:-1", "0:-2"]
    )
    assert cli.main(
        ["sweep", "--model", "xxz", "--series", field_series, "--out", str(field)]
    ) == 0
    aniso = tmp_path / "aniso.csv"
    # Attached form: a series value starting with "-" needs --series=...
    assert cli.main(
        ["sweep", "--model", "xxz", "--series=-2:0,-1:0,0:0,1:0", "--out", str(aniso)]
    ) == 0
    capsys.readouterr()

    rows_t = _read_csv(thresholds)
    rows_w = _read_csv(wide)
    rows_f = _read_csv(field)
    rows_a = _read_csv(aniso)
    checks = {}

    # Criterion 2 through the CSV: the d=0 concurrence turns on at ln(3)/2.
    last_off, first_on = _threshold_bracket(_series(rows_t, "d=0"))
    checks["threshold d=0"] = (
        last_off < LN3_HALF < first_on and first_on - last_off <= 0.05 + 1e-9
    )
    # Criterion 3 through the CSV: the d=2 threshold sits near -2.53.
    last_off, first_on = _threshold_bracket(_series(rows_t, "d=2"))
    checks["threshold d=2"] = (
        last_off < D2_ROOT < first_on
        and first_on - last_off <= 0.05 + 1e-9
        and abs((last_off + first_on) / 2.0 - (-2.55)) <= 0.05
    )

    # Criterion 4 through the CSV: strong-coupling rows of the wide sweep.
    d0 = _series(rows_w, "d=0")
    fm, afm = d0[-1], d0[0]
    checks["asymptote j=30"] = fm["C"] >= 0.999 and abs(fm["N"] - 0.5) <= 1e-3
    checks["asymptote j=-30"] = afm["C"] == 0.0 and abs(afm["N"] - 1.0 / 18.0) <= 1e-3

    # Criterion 9 through the CSVs: field-sign symmetry and model reduction.
    sym_ok = True
    for b in ("0.5", "1", "2"):
        plus = _series(rows_f, f"delta=0;b={b}")
        minus = _series(rows_f, f"delta=0;b=-{b}")
        for p, m in zip(plus, minus):
            for key in ("C", "N", "Q", "D"):
                sym_ok = sym_ok and abs(p[key] - m[key]) <= csv_tol
    checks["field-sign symmetry"] = sym_ok
    red_ok = True
    for a, b_ in zip(_series(rows_a, "delta=0;b=0"), _series(rows_t, "d=0")):
        for key in ("C", "N", "Q", "D"):
            red_ok = red_ok and abs(a[key] - b_[key]) <= csv_tol
    checks["model reduction"] = red_ok

    # Criterion 10 through the CSV: the b-ladder at j=2 is nonincreasing.
    at_j2 = [r for r in rows_f if abs(r["j"] - 2.0) <= 1e-9]
    ladder = sorted(
        (r for r in at_j2 if not r["series"].endswith(("-0.5", "-1", "-2"))),
        key=lambda r: float(r["series"].split(";b=")[1]),
    )
    checks["field ladder"] = all(
        cur["C"] <= prev["C"] + 1e-15 and cur["N"] <= prev["N"] + 1e-15
        for prev, cur in zip(ladder, ladder[1:])
    )

    # Sensitivity envelope across the four anisotropy series at zero field.
    # Above j = -ln(3)/2 every series is unentangled (C exactly 0) while N
    # still varies with the anisotropy: nonlocal correlation without
    # entanglement. Below it the delta = -2 series turns entangled and its
    # C climbs to 1, so N-spread > C-spread holds for -0.6 < j < 0 only.
    # Both sides of that split are pinned: a crossover one grid step off in
    # either direction fails.
    by_j = {}
    for r in rows_a:
        by_j.setdefault(r["j"], []).append(r)
    negatives = sorted(j for j in by_j if j < 0.0)
    spread_c, spread_n = {}, {}
    for j in negatives:
        group = by_j[j]
        spread_c[j] = max(r["C"] for r in group) - min(r["C"] for r in group)
        spread_n[j] = max(r["N"] for r in group) - min(r["N"] for r in group)
    unentangled = [j for j in negatives if j > -LN3_HALF]
    checks["nonlocality without entanglement"] = len(unentangled) == 10 and all(
        all(r["C"] == 0.0 for r in by_j[j]) and spread_n[j] > 0.0
        for j in unentangled
    )
    envelope = [j for j in negatives if spread_n[j] > spread_c[j]]
    expected = [j for j in negatives if j > -0.6]
    checks["sensitivity envelope"] = len(expected) == 11 and envelope == expected

    failed = [name for name, passed in checks.items() if not passed]
    ok = not failed
    detail = (
        f"re-checks {sorted(checks)} all pass; N-spread > C-spread at "
        f"{len(envelope)}/{len(negatives)} negative grid points, all j > -0.6"
        if ok
        else (
            f"failed: {failed}; N-spread > C-spread at {len(envelope)}/"
            f"{len(negatives)} negative grid points (expected the "
            f"{len(expected)} with j > -0.6), lowest at j={min(envelope, default=0.0):g}"
        )
    )
    verdict(capsys, 11, ok, detail)

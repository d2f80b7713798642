"""Command-line surface of the toolkit.

Four subcommands cover the workflows:

- ``measures``: the correlation measures of one state, either a model
  point (``--model --j ...``) or a density matrix read from a text file
  (``--state``).
- ``sweep``: a deterministic CSV of measures over an exchange-coupling
  grid for one or more series of secondary parameters.
- ``critical``: the exchange threshold where concurrence turns on.
- ``verify``: the brute-force oracle suite on seeded random states.

Exit codes: 0 success, 1 verification failure, 2 invalid state file,
3 bad arguments, 4 output I/O failure, 5 no root bracket.

Numbers are printed with 12 significant digits (scientific notation below
1e-4) so output is byte-deterministic and diffable. CSV files are written
to a temporary file and renamed into place, so no partial file survives an
error. An optional ``--config`` file supplies ``key=value`` defaults
(keys are the subcommand's long flag names, values pass the flags' checks);
explicit flags win on conflict.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import measures, models, oracle, qmat
from .errors import InvalidState, NoSignChange, SpincorrError
from .rng import Lcg, random_state

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID_STATE = 2
EXIT_BAD_ARGS = 3
EXIT_IO = 4
EXIT_NO_BRACKET = 5

CSV_HEADER = "j,series,C,N,Q,D_exact"
ORACLE_TOL = 1e-4
WITNESS_CUTOFF = 1e-8
LOWER_BOUND_TOL = 1e-12
VERIFY_GRID_POINTS = 2000


def fmt12(value: float) -> str:
    """Format with 12 significant digits; scientific below 1e-4 magnitude."""
    if value == 0.0:
        return "0.000000000000"
    if abs(value) < 1e-4:
        return f"{value:.11e}"
    decimals = 11 - math.floor(math.log10(abs(value)))
    if decimals < 0:
        decimals = 0
    return f"{value:.{decimals}f}"


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with the documented code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_ARGS)


def _finite(text: str) -> float:
    """argparse type of the float flags: a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of ``--seed``: an integer in [0, 2**64 - 1], the state
    space of the generator, so no two seeds give the same stream."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64 - 1], got {text}")
    return value


def _config_tokens(args: argparse.Namespace, parser: _Parser) -> list[str]:
    """Read the ``--config`` file of ``args`` as ``--key=value`` tokens.

    '#' comments and blank lines are allowed. Each key must be the full
    name of a long flag of the chosen subcommand, with '-' or '_': argparse
    would take a prefix such as ``ser`` for ``--series``, so keys are
    matched against the namespace the subcommand's flags fill.
    """
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    flags = set(vars(args)) - {"command", "config"}
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"config line {lineno} is not key=value: {raw!r}")
        key, value = line.split("=", 1)
        dest = key.strip().replace("-", "_")
        if dest not in flags:
            parser.error(f"unknown config key {key.strip()!r} for {args.command}")
        tokens.append(f"--{dest.replace('_', '-')}={value.strip()}")
    return tokens


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argparse tree, built on the first call and reused by every later
    ``main`` call in the process. Parsing keeps no state in the parser: each
    call gets a fresh namespace."""
    parser = _Parser(
        prog="spincorr",
        description="Two-qubit correlation measures for thermal spin models "
        "and arbitrary states, with brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_model_flags(p):
        p.add_argument("--model", choices=("isodm", "xxz"), help="spin model")
        p.add_argument("--j", type=_finite, help="exchange coupling J/kT")
        p.add_argument("--d", type=_finite, default=0.0, help="DM coupling D/kT (isodm)")
        p.add_argument("--delta", type=_finite, default=0.0, help="anisotropy (xxz)")
        p.add_argument("--b", type=_finite, default=0.0, help="field B/kT (xxz)")
        p.add_argument("--config", help="key=value defaults file; flags win")

    p_measures = sub.add_parser(
        "measures", help="measures of one model point or state file"
    )
    add_common_model_flags(p_measures)
    p_measures.add_argument("--state", help="density-matrix text file (16 're im' lines)")

    p_sweep = sub.add_parser("sweep", help="CSV sweep over an exchange grid")
    add_common_model_flags(p_sweep)
    p_sweep.add_argument("--j-start", type=_finite, default=-5.0, help="grid start (default -5)")
    p_sweep.add_argument("--j-end", type=_finite, default=5.0, help="grid end (default 5)")
    p_sweep.add_argument("--j-steps", type=int, default=201, help="grid points (default 201)")
    p_sweep.add_argument(
        "--series",
        help="secondary-parameter series: comma-separated d values (isodm) "
        "or delta:b pairs (xxz), e.g. '0,2' or '0:0,0:1'",
    )
    p_sweep.add_argument("--out", help="output CSV path")

    p_critical = sub.add_parser("critical", help="exchange threshold of concurrence")
    add_common_model_flags(p_critical)

    p_verify = sub.add_parser("verify", help="oracle suite on seeded random states")
    p_verify.add_argument("--seed", type=_seed, default=1, help="generator seed (default 1)")
    p_verify.add_argument("--count", type=int, default=100, help="number of states (default 100)")
    p_verify.add_argument("--config", help="key=value defaults file; flags win")

    return parser


def _load_state_file(path: str) -> np.ndarray:
    """Parse and validate a 4x4 density matrix from a text file.

    Format: 16 whitespace-separated 're im' pairs in row-major order,
    '#' comments and blank lines allowed. Validation tolerance 1e-8.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidState(f"cannot read state file: {exc}")
    tokens: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if len(tokens) != 32:
        raise InvalidState(
            f"state file must hold 16 're im' pairs (32 numbers), got {len(tokens)}"
        )
    try:
        nums = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise InvalidState(f"state file has a non-numeric entry: {exc}")
    entries = [complex(nums[2 * k], nums[2 * k + 1]) for k in range(16)]
    return qmat.validate_state(np.array(entries, dtype=complex).reshape(4, 4))


def _print_measures(rep: measures.MeasureReport, q_paper: float | None) -> None:
    print(f"C = {fmt12(rep.concurrence)}")
    print(f"N = {fmt12(rep.min_value)}")
    print(f"Q = {fmt12(rep.gmod_lower)}")
    if q_paper is not None:
        print(f"Q_paper = {fmt12(q_paper)}")
    print(f"D_exact = {fmt12(rep.gmod_exact)}")
    print(f"branch = {rep.branch}")


def _model_report(args: argparse.Namespace, parser: _Parser) -> models.ModelReport:
    if args.model is None:
        parser.error("--model is required (or give --state)")
    if args.j is None:
        parser.error("--j is required")
    if args.model == "isodm":
        return models.measures_isodm(models.IsoDMParams(j=args.j, d=args.d))
    return models.measures_xxz(models.XXZParams(j=args.j, delta=args.delta, b=args.b))


def _cmd_measures(args: argparse.Namespace, parser: _Parser) -> int:
    if args.state is not None and args.model is not None:
        parser.error("give either --state or --model, not both")
    if args.state is not None:
        try:
            rho = _load_state_file(args.state)
        except InvalidState as exc:
            print(f"invalid state: {exc}", file=sys.stderr)
            return EXIT_INVALID_STATE
        _print_measures(measures.report(rho), q_paper=None)
        return EXIT_OK
    report = _model_report(args, parser)
    _print_measures(report.pipeline, q_paper=report.q_paper)
    return EXIT_OK


def _parse_series(model: str, text: str, parser: _Parser):
    """Parse the --series flag into (label, params-factory) members."""
    members = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            parser.error("empty series member")
        try:
            if model == "isodm":
                d = float(part)
                if not math.isfinite(d):
                    parser.error(f"series member must be finite, got {part!r}")
                members.append((f"d={d:.12g}", lambda j, d=d: models.IsoDMParams(j, d)))
            else:
                delta_text, _, b_text = part.partition(":")
                if not _:
                    parser.error(f"xxz series member must be delta:b, got {part!r}")
                delta, b = float(delta_text), float(b_text)
                if not (math.isfinite(delta) and math.isfinite(b)):
                    parser.error(f"series member must be finite, got {part!r}")
                members.append(
                    (
                        f"delta={delta:.12g};b={b:.12g}",
                        lambda j, delta=delta, b=b: models.XXZParams(j, delta, b),
                    )
                )
        except ValueError:
            parser.error(f"series member is not numeric: {part!r}")
    return members


def _cmd_sweep(args: argparse.Namespace, parser: _Parser) -> int:
    model = args.model
    if model is None:
        parser.error("--model is required")
    if args.out is None:
        parser.error("--out is required")
    if args.j_steps < 2:
        parser.error(f"--j-steps must be at least 2, got {args.j_steps}")
    if not args.j_start < args.j_end:
        parser.error(f"--j-start must be below --j-end, got {args.j_start} >= {args.j_end}")
    series_text = args.series
    if series_text is None:
        if model == "isodm":
            series_text = f"{args.d:.12g}"
        else:
            series_text = f"{args.delta:.12g}:{args.b:.12g}"
    members = _parse_series(model, series_text, parser)

    measure_fn = models.measures_isodm if model == "isodm" else models.measures_xxz
    lines = [CSV_HEADER]
    for j in np.linspace(args.j_start, args.j_end, args.j_steps):
        for label, make_params in members:
            rep = measure_fn(make_params(float(j)))
            pipe = rep.pipeline
            lines.append(
                ",".join(
                    (
                        fmt12(float(j)),
                        label,
                        fmt12(pipe.concurrence),
                        fmt12(pipe.min_value),
                        fmt12(pipe.gmod_lower),
                        fmt12(pipe.gmod_exact),
                    )
                )
            )

    out_path = args.out
    tmp_path = out_path + ".tmp"
    try:
        with open(tmp_path, "w", encoding="ascii", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp_path, out_path)
    except OSError as exc:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        print(f"cannot write CSV: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_critical(args: argparse.Namespace, parser: _Parser) -> int:
    if args.model is None:
        parser.error("--model is required")
    try:
        if args.model == "isodm":
            j_c = models.critical_coupling_isodm(args.d)
        else:
            j_c = models.critical_coupling_xxz(args.delta, args.b)
    except NoSignChange as exc:
        print(f"no bracket: {exc}", file=sys.stderr)
        return EXIT_NO_BRACKET
    print(f"{j_c:.9f}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, parser: _Parser) -> int:
    seed, count = args.seed, args.count
    if count < 1:
        parser.error(f"--count must be a positive integer, got {count}")

    grid = oracle.SphereGrid.fibonacci(VERIFY_GRID_POINTS)
    rng = Lcg(seed)
    max_min_dev = (0.0, 0)
    max_gmod_dev = (0.0, 0)
    max_lower_excess = (-math.inf, 0)
    disagreements: list[int] = []
    for index in range(count):
        rho = random_state(rng)
        rep = measures.report(rho)
        min_orc = oracle.min_oracle(rho, grid)
        gmod_orc = oracle.gmod_oracle(rho, grid)
        min_dev = abs(rep.min_value - min_orc.value)
        gmod_dev = abs(2.0 * rep.gmod_exact - gmod_orc.value)
        lower_excess = rep.gmod_lower - rep.gmod_exact
        if min_dev > max_min_dev[0]:
            max_min_dev = (min_dev, index)
        if gmod_dev > max_gmod_dev[0]:
            max_gmod_dev = (gmod_dev, index)
        if lower_excess > max_lower_excess[0]:
            max_lower_excess = (lower_excess, index)
        if oracle.ppt_entangled(rho) != (rep.concurrence > WITNESS_CUTOFF):
            disagreements.append(index)

    print(f"verify: seed={seed} count={count} grid={grid.n_points}")
    print(
        f"max |min_closed - min_oracle|    = {fmt12(max_min_dev[0])}"
        f" (state {max_min_dev[1]})"
    )
    print(
        f"max |2*gmod_exact - gmod_oracle| = {fmt12(max_gmod_dev[0])}"
        f" (state {max_gmod_dev[1]})"
    )
    print(f"ppt/concurrence disagreements    = {len(disagreements)}")
    print(
        f"max (gmod_lower - gmod_exact)    = {fmt12(max_lower_excess[0])}"
        f" (state {max_lower_excess[1]})"
    )

    failed = False
    if max_min_dev[0] > ORACLE_TOL:
        failed = True
        print(
            f"violation: nonlocality oracle deviation {fmt12(max_min_dev[0])} "
            f"exceeds {ORACLE_TOL:g} at state {max_min_dev[1]}"
        )
    if max_gmod_dev[0] > ORACLE_TOL:
        failed = True
        print(
            f"violation: discord oracle deviation {fmt12(max_gmod_dev[0])} "
            f"exceeds {ORACLE_TOL:g} at state {max_gmod_dev[1]}"
        )
    if disagreements:
        failed = True
        listed = ", ".join(str(i) for i in disagreements)
        print(f"violation: witness disagreement at states: {listed}")
    if max_lower_excess[0] > LOWER_BOUND_TOL:
        failed = True
        print(
            f"violation: lower bound exceeds exact discord by "
            f"{fmt12(max_lower_excess[0])} at state {max_lower_excess[1]}"
        )
    print(f"result: {'FAIL' if failed else 'PASS'}")
    return EXIT_VERIFICATION if failed else EXIT_OK


def main(argv=None) -> int:
    """Run the CLI; returns the process exit code."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Config values go in right after the subcommand, so one parse
            # checks them like flags and a flag given on the command line wins.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_tokens(args, parser) + argv[at:])
        handler = {
            "measures": _cmd_measures,
            "sweep": _cmd_sweep,
            "critical": _cmd_critical,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args, parser)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    except SpincorrError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


def main_entry() -> None:
    """Console-script entry point."""
    sys.exit(main())

"""Command-line surface of the toolkit.

Four subcommands cover the workflows:

- ``measures``: the correlation measures of one state, either a model
  point (``--model --j ...``) or a density matrix read from a text file
  (``--state``).
- ``sweep``: a deterministic CSV of measures over a grid of the exchange
  coupling j for one or more series of secondary parameters; no ``--j``.
- ``critical``: the exchange threshold where concurrence turns on; no ``--j``.
- ``verify``: the brute-force oracle suite on seeded random states.

Both spin models share one path: the fields of a model's params named tuple
name its flags, defaults, ``--series`` members and CSV labels, and a model
flag that a call would ignore is refused (exit 3).

Exit codes: 0 success, 1 verification failure, 2 invalid state file,
3 bad arguments, 4 output I/O failure, 5 no root bracket.

Numbers print with 12 significant digits, scientific below 1e-4, but with every
integer digit from 1e12 up and 13 digits when rounding carries; ``critical``
prints 9 decimals. ``sweep`` writes each CSV row to ``<out>.tmp`` as it is
computed, so memory does not grow with the rows and an unwritable ``--out``
exits 4 before the first row; the file is renamed into place at the end, or
removed on any error. An ``--out`` that exists and is neither a regular file
nor a symlink exits 4 before any file is touched. An optional ``--config`` file
supplies ``key=value`` defaults (keys are the subcommand's long flag names,
values pass the flags' checks); explicit flags win on conflict.
"""

import argparse
import contextlib
import functools
import math
import os
import re
import sys

# numpy, measures, oracle and rng are imported by the handlers that use them,
# so critical, -h and usage errors run without numpy.
from . import models
from .errors import InvalidState, NoSignChange, SpincorrError

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID_STATE = 2
EXIT_BAD_ARGS = 3
EXIT_IO = 4
EXIT_NO_BRACKET = 5

CSV_HEADER = "j,series,C,N,Q,D_exact"
MAX_SWEEP_ROWS = 1_000_000  # --j-steps times the number of series members
ORACLE_TOL = 1e-4
WITNESS_CUTOFF = 1e-8
LOWER_BOUND_TOL = 1e-12

# ``models.measures_<model>`` and ``critical_coupling_<model>`` are looked up at call
# time, so a wrapped or replaced function is the one that runs.
_PARAMS = {"isodm": models.IsoDMParams, "xxz": models.XXZParams}
_MODEL_FLAGS = tuple(  # every params field, j first
    dict.fromkeys(name for params in _PARAMS.values() for name in params._fields)
)


def fmt12(value: float) -> str:
    """12 significant digits (13 on a carry, all integer digits from 1e12); %.11e below 1e-4."""
    if value == 0.0:
        return "0.000000000000"
    if abs(value) < 1e-4:
        return f"{value:.11e}"
    decimals = max(0, 11 - math.floor(math.log10(abs(value))))
    # As f"{value:.{decimals}f}": one PyOS_double_to_string call, but no spec string to build.
    return "%.*f" % (decimals, value)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that maps argparse's exit status 2 (usage errors) to code 3.

    A token that starts with '-' and a digit, '-.' and a digit, '-inf' or
    '-nan' (any case) is a value such as ``-1e-3``, ``-1:0`` or ``-inf``,
    never an option: argparse alone takes only plain negative numbers like
    ``-5`` and ``-0.5`` as values. Subcommand parsers use this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def exit(self, status=0, message=None):
        super().exit(EXIT_BAD_ARGS if status == 2 else status, message)


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


def _content_lines(path: str) -> list[tuple[int, str, str]]:
    """The lines of the UTF-8 text file ``path`` that hold more than blanks
    and a '#' comment, as (line number, raw line, text before the comment,
    stripped). A leading byte-order mark is dropped. Raises ``OSError`` or
    ``UnicodeDecodeError`` when the file cannot be read."""
    with open(path, encoding="utf-8-sig") as fh:
        raws = fh.read().splitlines()
    lines = [(n, raw, raw.split("#", 1)[0].strip()) for n, raw in enumerate(raws, start=1)]
    return [line for line in lines if line[2]]


def _config_tokens(args: argparse.Namespace, parser: _Parser) -> list[str]:
    """Read the ``--config`` file of ``args`` as ``--key=value`` tokens.

    '#' comments and blank lines are allowed. Each key must be the full
    name of a long flag of the chosen subcommand, with '-' or '_': argparse
    would take a prefix such as ``ser`` for ``--series``, so keys are
    matched against the namespace the subcommand's flags fill.
    """
    try:
        lines = _content_lines(args.config)
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read config file: {exc}")
    flags = set(vars(args)) - {"command", "config"}
    tokens = []
    for lineno, raw, line in lines:
        if "=" not in line:
            parser.error(f"config line {lineno} is not key=value: {raw!r}")
        key, value = line.split("=", 1)
        dest = key.strip().replace("-", "_")
        if dest not in flags:
            parser.error(f"unknown config key {key.strip()!r} for {args.command}")
        tokens.append(f"--{dest.replace('_', '-')}={value.strip()}")
    return tokens


@functools.lru_cache(maxsize=None)
def _build_parser() -> tuple[_Parser, dict]:
    """The argparse tree and each subcommand's (handler, parser), built on the
    first call and reused by every later ``main`` call in the process. Parsing
    keeps no state in the parsers: each call gets a fresh namespace. Handlers
    report usage errors through their subcommand's parser, as argparse does."""
    parser = _Parser(
        prog="spincorr",
        description="Two-qubit correlation measures for thermal spin models "
        "and arbitrary states, with brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p, exchange=True):
        p.add_argument("--model", choices=tuple(_PARAMS), help="spin model")
        if exchange:
            p.add_argument("--j", type=_finite, help="exchange coupling J/kT")
        p.add_argument("--d", type=_finite, help="DM coupling D/kT (isodm)")
        p.add_argument("--delta", type=_finite, help="anisotropy (xxz)")
        p.add_argument("--b", type=_finite, help="field B/kT (xxz)")
        p.add_argument("--config", help="key=value defaults file; flags win")

    p_measures = sub.add_parser(
        "measures", help="measures of one model point or state file"
    )
    add_model_flags(p_measures)
    p_measures.add_argument("--state", help="density-matrix text file (16 're im' lines)")

    p_sweep = sub.add_parser("sweep", help="CSV sweep over an exchange grid")
    add_model_flags(p_sweep, exchange=False)
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
    add_model_flags(p_critical, exchange=False)

    p_verify = sub.add_parser("verify", help="oracle suite on seeded random states")
    p_verify.add_argument("--seed", type=_seed, default=1, help="generator seed (default 1)")
    p_verify.add_argument("--count", type=int, default=100, help="number of states (default 100)")
    p_verify.add_argument("--config", help="key=value defaults file; flags win")

    handlers = {"measures": _cmd_measures, "sweep": _cmd_sweep,
                "critical": _cmd_critical, "verify": _cmd_verify}
    return parser, {name: (handlers[name], p) for name, p in sub.choices.items()}


def _load_state_file(path: str) -> "np.ndarray":
    """Parse a 4x4 matrix from a text file; ``measures.report`` validates it.

    Format: 16 whitespace-separated 're im' pairs in row-major order,
    '#' comments and blank lines allowed.
    """
    try:
        lines = _content_lines(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidState(f"cannot read state file: {exc}")
    tokens = [token for _, _, line in lines for token in line.split()]
    if len(tokens) != 32:
        raise InvalidState(
            f"state file must hold 16 're im' pairs (32 numbers), got {len(tokens)}"
        )
    try:
        nums = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise InvalidState(f"state file has a non-numeric entry: {exc}")
    import numpy as np

    return np.array(nums).view(complex).reshape(4, 4)


def _print_measures(rep, q_paper: float | None) -> None:
    print(f"C = {fmt12(rep.concurrence)}")
    print(f"N = {fmt12(rep.min_value)}")
    print(f"Q = {fmt12(rep.gmod_lower)}")
    if q_paper is not None:
        print(f"Q_paper = {fmt12(q_paper)}")
    print(f"D_exact = {fmt12(rep.gmod_exact)}")
    print(f"branch = {rep.branch}")


def _refuse(args: argparse.Namespace, parser: _Parser, flags, why: str) -> None:
    """Exit 3 when one of ``flags``, all the subcommand's own, is given (also by config)."""
    for flag in flags:
        if getattr(args, flag) is not None:
            parser.error(f"--{flag} {why}")


def _secondary_params(args: argparse.Namespace, parser: _Parser) -> dict:
    """The secondary parameters of ``--model`` by params field, from the
    flags or the named tuple's defaults, which every field after j has.
    Another model's flag exits 3."""
    if args.model is None:
        parser.error("--model is required")
    params = _PARAMS[args.model]
    others = [flag for flag in _MODEL_FLAGS if flag not in params._fields]
    _refuse(args, parser, others, f"is not a parameter of {args.model}")
    defaults = params._field_defaults
    values = {name: getattr(args, name) for name in defaults}
    return {name: defaults[name] if values[name] is None else values[name] for name in defaults}


def _cmd_measures(args: argparse.Namespace, parser: _Parser) -> int:
    from . import measures

    if args.state is not None:
        _refuse(args, parser, ("model", *_MODEL_FLAGS), "and --state: give one, not both")
        try:
            rep = measures.report(_load_state_file(args.state))
        except InvalidState as exc:
            print(f"invalid state: {exc}", file=sys.stderr)
            return EXIT_INVALID_STATE
        _print_measures(rep, q_paper=None)
        return EXIT_OK
    if args.model is None:
        parser.error("--model is required (or give --state)")
    if args.j is None:
        parser.error("--j is required")
    params = _PARAMS[args.model](args.j, **_secondary_params(args, parser))
    report = getattr(models, f"measures_{args.model}")(params)
    _print_measures(report.pipeline, q_paper=report.q_paper)
    return EXIT_OK


def _series_label(values: dict) -> str:
    """CSV label of a sweep member: its secondary parameters as name=value,
    joined by ';'."""
    return ";".join(f"{name}={value:.12g}" for name, value in values.items())


def _parse_series(model: str, text: str, parser: _Parser) -> list[tuple[str, dict]]:
    """Parse the --series flag into (label, secondary parameters) members:
    the params fields after j, joined by ':' in a member."""
    names = _PARAMS[model]._fields[1:]
    members = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            parser.error("empty series member")
        texts = part.split(":")
        if len(texts) != len(names):
            parser.error(f"{model} series member must be {':'.join(names)}, got {part!r}")
        try:
            values = [_finite(value) for value in texts]
        except argparse.ArgumentTypeError as exc:
            parser.error(f"series member {part!r}: {exc}")
        member = dict(zip(names, values))
        members.append((_series_label(member), member))
    return members


def _cmd_sweep(args: argparse.Namespace, parser: _Parser) -> int:
    secondary = _secondary_params(args, parser)
    if args.out is None:
        parser.error("--out is required")
    if not os.path.basename(args.out):  # else <out>.tmp would be a file named .tmp
        parser.error(f"--out must name a file, got {args.out!r}")
    if args.j_steps < 2:
        parser.error(f"--j-steps must be at least 2, got {args.j_steps}")
    if not args.j_start < args.j_end:
        parser.error(f"--j-start must be below --j-end, got {args.j_start} >= {args.j_end}")
    if not math.isfinite(args.j_end - args.j_start):
        parser.error(f"--j-end - --j-start must be finite, got {args.j_end} - {args.j_start}")
    if args.series is None:
        members = [(_series_label(secondary), secondary)]
    else:
        _refuse(args, parser, secondary, "is not used with --series: each member sets it")
        members = _parse_series(args.model, args.series, parser)
    rows = args.j_steps * len(members)
    if rows > MAX_SWEEP_ROWS:
        parser.error(
            f"--j-steps {args.j_steps} x {len(members)} series = {rows} rows, "
            f"above the limit of {MAX_SWEEP_ROWS}"
        )

    import numpy as np

    make_params = _PARAMS[args.model]
    measure = getattr(models, f"measures_{args.model}")
    tmp_path = args.out + ".tmp"
    # os.replace would refuse a directory after the last row, and replace a FIFO or device node.
    if os.path.lexists(args.out) and not (os.path.islink(args.out) or os.path.isfile(args.out)):
        print(f"cannot write CSV: {args.out!r} exists and is not a regular file", file=sys.stderr)
        return EXIT_IO
    try:
        with open(tmp_path, "w", encoding="ascii", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for j in np.linspace(args.j_start, args.j_end, args.j_steps).tolist():
                j_text = fmt12(j)
                for label, values in members:
                    pipe = measure(make_params(j, **values)).pipeline
                    row = (pipe.concurrence, pipe.min_value, pipe.gmod_lower, pipe.gmod_exact)
                    fh.write(",".join((j_text, label, *map(fmt12, row))) + "\n")
        os.replace(tmp_path, args.out)
    except OSError as exc:
        print(f"cannot write CSV: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:  # the file is still there on every exit but a completed os.replace
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
    return EXIT_OK


def _cmd_critical(args: argparse.Namespace, parser: _Parser) -> int:
    secondary = _secondary_params(args, parser)
    try:
        j_c = getattr(models, f"critical_coupling_{args.model}")(**secondary)
    except NoSignChange as exc:
        print(f"no bracket: {exc}", file=sys.stderr)
        return EXIT_NO_BRACKET
    print(f"{j_c:.9f}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, parser: _Parser) -> int:
    from . import measures, oracle
    from .rng import Lcg, random_state

    seed, count = args.seed, args.count
    if count < 1:
        parser.error(f"--count must be a positive integer, got {count}")

    rng = Lcg(seed)
    # Running (value, state) maxima of the nonlocality and discord oracle
    # deviations and of the lower bound's excess; the first state wins ties.
    maxima = [(0.0, 0), (0.0, 0), (-math.inf, 0)]
    disagreements: list[int] = []
    for index in range(count):
        rho = random_state(rng)
        rep = measures.report(rho)
        values = (
            abs(rep.min_value - oracle.min_oracle(rho).value),
            abs(2.0 * rep.gmod_exact - oracle.gmod_oracle(rho).value),
            rep.gmod_lower - rep.gmod_exact,
        )
        maxima = [(v, index) if v > top[0] else top for v, top in zip(values, maxima)]
        if oracle.ppt_entangled(rho) != (rep.concurrence > WITNESS_CUTOFF):
            disagreements.append(index)
    (min_dev, min_at), (gmod_dev, gmod_at), (excess, excess_at) = maxima

    print(f"verify: seed={seed} count={count} grid={len(oracle.GRID_DIRECTIONS)}")
    print(f"max |min_closed - min_oracle|    = {fmt12(min_dev)} (state {min_at})")
    print(f"max |2*gmod_exact - gmod_oracle| = {fmt12(gmod_dev)} (state {gmod_at})")
    print(f"ppt/concurrence disagreements    = {len(disagreements)}")
    print(f"max (gmod_lower - gmod_exact)    = {fmt12(excess)} (state {excess_at})")

    gates = (  # (failed, message) in report order
        (min_dev > ORACLE_TOL, "nonlocality oracle deviation "
         f"{fmt12(min_dev)} exceeds {ORACLE_TOL:g} at state {min_at}"),
        (gmod_dev > ORACLE_TOL, "discord oracle deviation "
         f"{fmt12(gmod_dev)} exceeds {ORACLE_TOL:g} at state {gmod_at}"),
        (disagreements, f"witness disagreement at states: {', '.join(map(str, disagreements))}"),
        (excess > LOWER_BOUND_TOL, "lower bound exceeds exact discord by "
         f"{fmt12(excess)} at state {excess_at}"),
    )
    violations = [message for failed, message in gates if failed]
    for violation in violations:
        print(f"violation: {violation}")
    print(f"result: {'FAIL' if violations else 'PASS'}")
    return EXIT_VERIFICATION if violations else EXIT_OK


def main(argv=None) -> int:
    """Run the CLI; returns the process exit code."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        handler, command_parser = commands[args.command]
        if args.config:
            # Config values go in right after the subcommand, so one parse
            # checks them like flags and a flag given on the command line wins.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_tokens(args, command_parser) + argv[at:])
        return handler(args, command_parser)
    except SystemExit as exc:
        return exc.code
    except SpincorrError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION

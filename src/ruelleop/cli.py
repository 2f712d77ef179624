"""Command line driver: JSON-configured models in, deterministic reports out.

The config file is a JSON object (standard JSON, read as bytes and
parsed by orjson); command line flags override its top-level scalars.
Keys:

    space       {"kind": "uniform", "size": 2}
                {"kind": "finite", "weights": [..]}
                {"kind": "gauss-legendre", "count": 16, "a": 0.0, "b": 1.0}
    potential   {"kind": "constant", "value": 0.7}
                {"kind": "ising", "coupling": 1.0, "external_field": 0.0}
                {"kind": "xy", "coupling": 1.0}
                {"kind": "renewal", "payoffs": [..], "tail": "constant"
                 or {"limit": 0.0, "bound": 0.0}}
                {"kind": "table", "depth": 2, "values": [..], "var_bound": 0.0}
    beta        scalar multiplier applied to the potential (default 1;
                the scan command ignores it and sweeps the grid instead)
    grid        {"start": 0.0, "stop": 2.0, "count": 101}   (scan only)
    depth       cylinder depth of the equilibrium table (default and
                minimum: max(potential depth - 1, 1)); every solve runs
                at that minimum, so no other report depends on it
    tol         stop of power iteration on the scale-free residuals of
                its last input (a report prints those one step on, which
                can exceed tol a few times, within verify's bound
                max(100 tol, 1e-12)) and bound of the scan's quotient
                certificate; not a bound on the error of lam or of the
                eigendata (default 1e-12)
    max_iters   power iteration cap (default 100000)
    n_max       bracket / entropy horizon (default 8)
    cylinder_cap  override for the table-size guard, for this run only

Exit codes: 0 success, 1 failed verification, 2 bad config, 3 resource
cap exceeded or memory exhausted, 4 numeric failure.  A scan point whose
power iteration fails numerically does not exit 4: it prints lam and
pressure nan and is listed as a non-converged candidate.  Output contains
no timestamps, so a fixed config and environment reproduce reports byte
for byte.  The report header echoes the space and potential configs; a
table potential's values appear there as their count and sha256 digest, from
CPython's builtin sha256 module rather than ``hashlib``, which would
load OpenSSL.

``assemble`` applies the config's ``cylinder_cap`` first, then builds
the space and the potential, which check the cap before they allocate.
It takes the header's potential echo from a table potential's table,
and applies beta to the potential once, for every command but scan.  A
renewal potential has depth len(payoffs) = K and var_bound the spread of
its tail band and last payoff; it holds its payoffs, not its 2^K table.
``scan`` needs no renewal table at any K whose quotients squaring can
afford, while the word-level commands (pressure, spectral, equilibrium,
entropy, verify) still build it, under the cap.

``_run`` builds the report header, frees the parsed config and opens
``--out`` before the command function ``cmd_<command>`` runs.  That
function returns the report body as pieces (lines, and csv table rows
in blocks of ``TABLE_BLOCK_ROWS``), which ``_run`` writes after the
header one by one, with a newline after each.

``entropy`` reads the equilibrium state at depth D = max(k, 2), where
it is (k-1)-step Markov: rows up to D come from its marginals, later
rows from the closed form H_n = H_D + (n - D)(H_D - H_{D-1}).
"""

import argparse
import contextlib
import itertools
import json
import math
import sys

import numpy as np
import orjson

from . import __version__
from .config import cylinder_cap, set_cylinder_cap
from .errors import ConfigError, NumericError, ResourceCapError
from .measures import (
    CylinderMeasure,
    check_invariance,
    equilibrium_measure,
    extend_equilibrium,
    invariance_defect,
    markov_entropy_gap,
)
from .potential import (
    Potential,
    RenewalTail,
    builtin_constant,
    builtin_ising,
    builtin_renewal,
    builtin_xy,
    scale,
)
from .report import HUMAN_DIGITS, MACHINE_DIGITS, format_float
from .scan import pressure_curve
from .space import _word_labels, uniform_space, finite_space, gauss_legendre_space
from .spectral import perron_eigendata, pressure_bracket
from .transfer import build_kernel

COMMANDS = ("pressure", "spectral", "equilibrium", "entropy", "scan", "verify")

DEFAULTS = {
    "beta": 1.0,
    "depth": None,
    "tol": 1e-12,
    "max_iters": 100_000,
    "n_max": 8,
    "grid": {"start": 0.0, "stop": 2.0, "count": 101},
}

# names the table-row commands use for the cylinder label column
WORD_COL = "word"

# rows of a csv table formatted at once: one %-format, one piece of the report
TABLE_BLOCK_ROWS = 2048


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _integer(value, key):
    """int(value) for a config value; a float with a fractional part is refused, not truncated."""
    _require(not isinstance(value, float) or value.is_integer(), f"'{key}' must be an integer, got {value!r}")
    return int(value)


def load_config(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        # orjson.JSONDecodeError subclasses json.JSONDecodeError
        cfg = orjson.loads(data)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    _require(isinstance(cfg, dict), "config must be a JSON object")
    return cfg


def build_space(cfg):
    _require(isinstance(cfg, dict), "space config must be an object")
    kind = cfg.get("kind")
    try:
        if kind == "uniform":
            return uniform_space(_integer(cfg.get("size", 2), "size"))
        if kind == "finite":
            _require("weights" in cfg, "finite space needs 'weights'")
            return finite_space(np.asarray(cfg["weights"], dtype=float))
        if kind == "gauss-legendre":
            return gauss_legendre_space(
                _integer(cfg.get("count", 16), "count"),
                float(cfg.get("a", 0.0)),
                float(cfg.get("b", 1.0)),
            )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad space config: {exc}") from exc
    raise ConfigError(f"unknown space kind {kind!r}")


def build_potential(cfg, space):
    _require(isinstance(cfg, dict), "potential config must be an object")
    kind = cfg.get("kind")
    try:
        if kind == "constant":
            return builtin_constant(space, float(cfg.get("value", 0.0)))
        if kind == "ising":
            return builtin_ising(
                space,
                float(cfg.get("coupling", 1.0)),
                float(cfg.get("external_field", 0.0)),
            )
        if kind == "xy":
            return builtin_xy(space, float(cfg.get("coupling", 1.0)))
        if kind == "renewal":
            _require("payoffs" in cfg, "renewal potential needs 'payoffs'")
            tail = cfg.get("tail", "constant")
            if isinstance(tail, dict):
                tail = RenewalTail(
                    float(tail.get("limit", 0.0)), float(tail.get("bound", 0.0))
                )
            return builtin_renewal(space, np.asarray(cfg["payoffs"], dtype=float), tail)
        if kind == "table":
            _require("values" in cfg, "table potential needs 'values'")
            return Potential(
                space,
                _integer(cfg.get("depth", 1), "depth"),
                np.asarray(cfg["values"], dtype=float),
                float(cfg.get("var_bound", 0.0)),
            )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad potential config: {exc}") from exc
    raise ConfigError(f"unknown potential kind {kind!r}")


def _merged_params(cfg, args):
    params = dict(DEFAULTS)
    for key in params:
        if key in cfg:
            params[key] = cfg[key]
    for key in ("beta", "depth", "tol", "max_iters", "n_max"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    try:
        params["beta"] = float(params["beta"])
        params["tol"] = float(params["tol"])
        params["max_iters"] = _integer(params["max_iters"], "max_iters")
        params["n_max"] = _integer(params["n_max"], "n_max")
        if params["depth"] is not None:
            params["depth"] = _integer(params["depth"], "depth")
        grid = params["grid"]
        _require(isinstance(grid, dict), "'grid' must be an object")
        params["grid"] = {
            "start": float(grid.get("start", 0.0)),
            "stop": float(grid.get("stop", 2.0)),
            "count": _integer(grid.get("count", 101), "grid.count"),
        }
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad parameter value: {exc}") from exc
    _require(math.isfinite(params["beta"]), "'beta' must be finite")
    _require(0 < params["tol"] < math.inf, "'tol' must be positive and finite")
    _require(params["max_iters"] >= 1, "'max_iters' must be at least 1")
    _require(params["n_max"] >= 1, "'n_max' must be at least 1")
    grid = params["grid"]
    _require(grid["count"] >= 2, "grid needs at least two points")
    _require(-math.inf < grid["start"] < grid["stop"] < math.inf, "grid needs finite 'start' < 'stop'")
    return params


def assemble(cfg, args):
    """(f, params, echo): the potential, the parameters and the header's potential config.

    f is multiplied by beta unless the command is scan; ``echo`` (see
    ``_potential_echo``) is taken from the table before that.
    """
    _require("space" in cfg, "config needs a 'space' entry")
    _require("potential" in cfg, "config needs a 'potential' entry")
    if "cylinder_cap" in cfg:
        # before the space and the potential, which check it as they allocate
        try:
            set_cylinder_cap(_integer(cfg["cylinder_cap"], "cylinder_cap"))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad parameter value: {exc}") from exc
    space = build_space(cfg["space"])
    f = build_potential(cfg["potential"], space)
    echo = _potential_echo(cfg["potential"], f)
    params = _merged_params(cfg, args)
    d0 = max(f.depth - 1, 1)
    if params["depth"] is None:
        params["depth"] = d0
    _require(params["depth"] >= d0, f"'depth' must be at least {d0} for a depth-{f.depth} potential")
    if args.command == "entropy":
        # the gap at n needs mu at depth n + 1, and mu must integrate f
        _require(params["n_max"] + 1 >= f.depth, f"entropy needs 'n_max' at least {f.depth - 1}")
    if args.command != "scan" and params["beta"] != 1.0:
        f = scale(f, params["beta"])
    return f, params, echo


def _digits(fmt):
    return MACHINE_DIGITS if fmt == "csv" else HUMAN_DIGITS


def _cell_format(column, digits):
    """The %-format of one column's cells, or of one scalar given as a 0-d array.

    Word labels (any column that is not an array) print as given, flags
    and counts as integers, floats at `digits` significant digits (the
    text of ``format_float``).
    """
    if not isinstance(column, np.ndarray):
        return "%s"
    return f"%.{digits}g" if column.dtype.kind == "f" else "%d"


def _column_cells(column, digits):
    """Text of each cell of one table column, from one %-format over the column."""
    if not isinstance(column, np.ndarray):
        return list(column)
    return ((_cell_format(column, digits) + "\n") * len(column) % tuple(column.tolist())).splitlines()


def _table_lines(header, columns, fmt):
    """The header line and the rows of equal-length columns: comma-separated, or right-aligned.

    A column is an array or an iterable of word labels; at least one is
    an array.  The csv rows come in blocks of ``TABLE_BLOCK_ROWS``, each
    from one %-format over its rows and returned as one newline-separated
    piece, so neither a Python object per cell of the whole table nor the
    table's whole text is built at once; a label iterator is read one
    block at a time.  The aligned rows come one line each: their column
    widths read every cell.
    """
    if fmt == "csv":
        row = ",".join(_cell_format(c, MACHINE_DIGITS) for c in columns)
        count = next(len(c) for c in columns if isinstance(c, np.ndarray))
        columns = [c if isinstance(c, np.ndarray) else iter(c) for c in columns]
        lines = [",".join(header)]
        for start in range(0, count, TABLE_BLOCK_ROWS):
            stop = min(start + TABLE_BLOCK_ROWS, count)
            block = [
                c[start:stop].tolist() if isinstance(c, np.ndarray) else list(itertools.islice(c, stop - start))
                for c in columns
            ]
            cells = tuple(itertools.chain.from_iterable(zip(*block)))
            lines.append("\n".join([row] * (stop - start)) % cells)
        return lines
    cols = [_column_cells(c, HUMAN_DIGITS) for c in columns]
    widths = [max(len(h), *map(len, c)) for h, c in zip(header, cols)]
    cols = [[c.rjust(w) for c in col] for col, w in zip(cols, widths)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.extend("  ".join(row).rstrip() for row in zip(*cols))
    return lines


def _scalar_lines(pairs, fmt):
    digits = _digits(fmt)
    cells = [(k, _cell_format(np.asarray(v), digits) % v) for k, v in pairs]
    if fmt == "csv":
        return [f"# {k} {c}" for k, c in cells]
    width = max(len(k) for k, _ in pairs)
    return [f"{k.ljust(width)}  {c}" for k, c in cells]


def _sha256_hex(data):
    """The hex SHA-256 digest of a buffer, from CPython's builtin module when it has one.

    ``hashlib`` loads OpenSSL, which raises the peak resident set by
    about 3 MB; the builtin ``_sha2`` (Python 3.12 and later) or
    ``_sha256`` (3.10, 3.11) gives the same digest without it.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _potential_echo(cfg, f):
    """The potential config for the report header, given the potential f before beta.

    A ``table`` potential is echoed without its values, which can run to
    millions of characters: their ``count`` and the ``sha256`` of their
    little-endian float64 bytes stand in for them.  Those bytes are the
    table ``build_potential`` made from the values.  Other kinds are
    echoed as given, and their tables are not read.
    """
    if cfg.get("kind") != "table":
        return cfg
    values = np.ascontiguousarray(f.table, dtype="<f8")  # no copy on a little-endian host
    echo = {key: val for key, val in cfg.items() if key != "values"}
    echo["count"] = values.size
    echo["sha256"] = _sha256_hex(values)  # the array's bytes, not a copy
    return echo


def _header_lines(command, cfg, params, echo):
    pot = json.dumps(echo, sort_keys=True)
    spc = json.dumps(cfg["space"], sort_keys=True)
    return [
        f"# ruelleop {__version__} {command}",
        f"# space {spc}",
        f"# potential {pot}",
        "# params beta={!r} depth={} tol={!r} max_iters={}".format(
            params["beta"],
            params["depth"],
            params["tol"],
            params["max_iters"],
        ),
    ]


def cmd_pressure(f, params, fmt):
    est = pressure_bracket(f, params["n_max"])
    lines = _table_lines(
        ("n", "p_inf", "p_sup", "width"),
        (np.arange(1, est.n_max + 1), est.p_inf, est.p_sup, est.p_sup - est.p_inf),
        fmt,
    )
    lines += _scalar_lines(
        [
            ("estimate", est.estimate),
            ("width", est.width),
            ("trunc_bound", est.trunc_bound),
        ],
        fmt,
    )
    return lines


def _spectral_scalars(sd):
    return [
        ("lam", sd.lam),
        ("pressure", sd.log_lam),
        ("converged", bool(sd.converged)),
        ("iterations", sd.iterations),
        ("residual_right", sd.residual_right),
        ("residual_left", sd.residual_left),
        ("out_depth", sd.nu.depth),
        ("trunc_bound", sd.trunc_bound),
    ]


def cmd_spectral(f, params, fmt):
    sd = perron_eigendata(f, tol=params["tol"], max_iters=params["max_iters"])
    lines = _scalar_lines(_spectral_scalars(sd), fmt)
    words = _word_labels(f.space, sd.nu.depth)
    lines += _table_lines((WORD_COL, "nu", "h"), (words, sd.nu.weights, sd.h.values), fmt)
    return lines


def cmd_equilibrium(f, params, fmt):
    sd = perron_eigendata(f, tol=params["tol"], max_iters=params["max_iters"])
    mu = extend_equilibrium(sd, f, params["depth"])
    inv = check_invariance(equilibrium_measure(sd), f, sd.log_lam, sd.nu)
    lines = _scalar_lines(
        _spectral_scalars(sd)
        + [
            ("invariance_residual", inv),
            ("invariance_defect", invariance_defect(mu)),
            ("mu_depth", mu.depth),
        ],
        fmt,
    )
    words = _word_labels(f.space, mu.depth)
    lines += _table_lines((WORD_COL, "mu"), (words, mu.weights), fmt)
    return lines


def cmd_entropy(f, params, fmt):
    sd = perron_eigendata(f, tol=params["tol"], max_iters=params["max_iters"])
    n_max = params["n_max"]
    # mu is (k-1)-step Markov: rows past depth max(k, 2), which assemble holds to n_max + 1
    # or less, follow in closed form
    mu = extend_equilibrium(sd, f, max(f.depth, 2))
    rep = markov_entropy_gap(mu, f, sd, n_max)
    lines = _scalar_lines(
        [
            ("lam", sd.lam),
            ("pressure", sd.log_lam),
            ("integral", rep.integral),
            ("integral_err", rep.integral_err),
            ("invariance_defect", rep.invariance_defect),
            ("gap", rep.gap),
        ],
        fmt,
    )
    lines += _table_lines(
        ("n", "H", "rate", "gap"), (rep.n, rep.H, rep.entropy_rate, rep.gaps), fmt
    )
    return lines


def cmd_scan(f, params, fmt):
    grid = params["grid"]
    betas = np.linspace(grid["start"], grid["stop"], grid["count"])
    curve = pressure_curve(f, betas, tol=params["tol"], max_iters=params["max_iters"])
    lines = _scalar_lines(
        [
            ("grid_start", grid["start"]),
            ("grid_stop", grid["stop"]),
            ("grid_count", grid["count"]),
            ("noise_floor", curve.noise_floor),
            ("n_flagged", int(curve.kink_flags.sum())),
            ("n_nonconverged", int(np.sum(~curve.converged))),
        ],
        fmt,
    )
    lines += _table_lines(
        ("beta", "lam", "pressure", "mismatch", "kink", "converged", "iterations"),
        (
            curve.betas,
            curve.lams,
            curve.pressures,
            curve.mismatch,
            curve.kink_flags,
            curve.converged,
            curve.iterations,
        ),
        fmt,
    )
    digits = _digits(fmt)
    lines += [
        f"# candidate {format_float(beta, digits)} {reason}"
        for beta, reason in curve.candidates
    ]
    return lines


def _negative_controls(f, sd, mu, kernel, res_tol):
    """The two negative controls of the invariance check: a list of (name, ok, value, bound).

    Each control feeds the check a measure m that is not invariant; its
    preimage of [u] is nu(u) (M h')(u) / lam for h' = m / nu, so the check
    must read max_u nu(u) |(M h')(u) / lam - h'(u)|, from one forward product.
    A control passes at half that prediction; below res_tol it does not apply.
    Without an equilibrium measure (mu None) both fail, with value nan.
    """
    names = ("negative-control-eigenmeasure", "negative-control-perturbed")
    if mu is None:
        return [(name, False, math.nan, math.nan) for name in names]
    lam = math.exp(sd.log_lam - kernel.offset)  # the eigenvalue on the kernel's scale
    w = mu.weights * (1.0 + 0.5 * (-1.0) ** np.arange(len(mu.weights)))
    controls = zip(names, (sd.nu, CylinderMeasure(mu.space, mu.depth, w / w.sum())))
    checks = []
    for name, m in controls:
        h_m = m.weights / sd.nu.weights
        predicted = float(np.max(sd.nu.weights * np.abs(kernel.matvec(h_m) / lam - h_m)))
        seen = check_invariance(m, f, sd.log_lam, sd.nu)
        bound = 0.5 * predicted if predicted > res_tol else 0.0
        checks.append((name, seen >= bound, seen, bound))
    return checks


def _verify_checks(f, params):
    """Run the internal consistency checklist: a list of (name, ok, value, bound)."""
    tol = params["tol"]
    res_tol = max(100.0 * tol, 1e-12)
    checks = []

    sd = perron_eigendata(f, tol=tol, max_iters=params["max_iters"])
    checks.append(("power-iteration-converged", bool(sd.converged), float(sd.iterations), float(params["max_iters"])))
    checks.append(("residual-right", sd.residual_right <= res_tol, sd.residual_right, res_tol))
    checks.append(("residual-left", sd.residual_left <= res_tol, sd.residual_left, res_tol))

    # |log lam| <= sup f; lam and its bound exp(sup f) print inf past double range
    in_band = abs(sd.log_lam) <= f.sup_norm + 1e-12 * max(1.0, f.sup_norm)
    with np.errstate(over="ignore"):
        checks.append(("eigenvalue-band", in_band, sd.lam, float(np.exp(f.sup_norm))))

    est = pressure_bracket(f, params["n_max"])
    pad = 1e-10 * max(1.0, abs(sd.log_lam))
    bracketed = (est.p_inf[-1] - pad <= sd.log_lam <= est.p_sup[-1] + pad)
    checks.append(("bracket-contains-pressure", bracketed, sd.log_lam, float(est.p_sup[-1])))

    # equilibrium_measure refuses exactly the non-converged eigendata; the checks
    # that read mu divide by nu, so a refused equilibrium or a nu with a zero
    # weight fails them with value nan
    try:
        mu = equilibrium_measure(sd) if sd.nu.weights.min() > 0 else None
    except NumericError:
        mu = None
    inv = math.nan if mu is None else check_invariance(mu, f, sd.log_lam, sd.nu)
    checks.append(("equilibrium-invariance", inv <= res_tol, inv, res_tol))

    checks += _negative_controls(f, sd, mu, build_kernel(f, sd.nu.depth), res_tol)
    del mu  # freed before variational-gap extends the equilibrium to depth max(k, 2)

    # mu is (k-1)-step Markov: read as in entropy, its rate is exact at n = depth - 1
    depth = max(f.depth, 2)
    # the gap is a difference of terms the size of log lam, so its bound scales with them
    gap_tol = max(1e-8, 1e4 * tol) * max(1.0, abs(sd.log_lam))
    try:
        rep = markov_entropy_gap(extend_equilibrium(sd, f, depth), f, sd, depth - 1)
        checks.append(("variational-gap", abs(rep.gap) <= gap_tol, rep.gap, gap_tol))
    except NumericError:
        checks.append(("variational-gap", False, float("nan"), gap_tol))
    return checks


def cmd_verify(f, params, fmt):
    checks = _verify_checks(f, params)
    lines = []
    width = max(len(name) for name, _, _, _ in checks)
    for name, ok, value, bound in checks:
        status = "ok  " if ok else "FAIL"
        lines.append(
            f"{status} {name.ljust(width)}  value={format_float(value, HUMAN_DIGITS)}"
            f" bound={format_float(bound, HUMAN_DIGITS)}"
        )
    n_fail = sum(1 for _, ok, _, _ in checks if not ok)
    lines.append(f"# {len(checks) - n_fail} of {len(checks)} checks passed")
    return lines, n_fail == 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="ruelleop",
        description="transfer operator diagnostics on cylinder discretizations",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("report", "csv"), default="report")
    parser.add_argument("--beta", type=float, default=None)
    parser.add_argument("--depth", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    parser.add_argument("--n-max", dest="n_max", type=int, default=None)
    return parser


def run(args):
    """Run one command; a config's ``cylinder_cap`` holds only for this run."""
    saved_cap = cylinder_cap()
    try:
        return _run(args)
    finally:
        set_cylinder_cap(saved_cap)


def _write(fh, pieces):
    """Write each piece of a report (a line, or a block of csv rows) and a newline after it."""
    for piece in pieces:
        fh.write(piece)
        fh.write("\n")


@contextlib.contextmanager
def _report_stream(path):
    """stdout, or the file at path; failing to open or write the file is a ConfigError."""
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write report {path!r}: {exc}") from exc


def _run(args):
    cfg = load_config(args.config)
    f, params, echo = assemble(cfg, args)
    header = _header_lines(args.command, cfg, params, echo)
    # a table config holds a Python float per value, about 32 bytes each;
    # nothing reads it past the header, so it is freed before the solve
    del cfg
    # the report file is opened before the solve, as a shell's > opens it: an
    # unwritable path is refused at once, and a command that fails leaves it empty
    with _report_stream(args.out) as fh:
        # looked up at call time, so that whatever is bound to cmd_<command> runs
        out = globals()[f"cmd_{args.command}"](f, params, args.format)
        body, ok = out if args.command == "verify" else (out, True)
        _write(fh, itertools.chain(header, body))
    return 0 if ok else 1


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ResourceCapError, MemoryError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (NumericError, ValueError) as exc:
        # config faults are ConfigErrors by now; any other ValueError
        # (np.linalg.LinAlgError included) comes from the numerics
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))

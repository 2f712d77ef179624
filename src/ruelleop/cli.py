"""Command line driver: JSON-configured models in, deterministic reports out.

The config file is a JSON object; command line flags override its
top-level scalars.  Keys:

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
    depth       cylinder depth of the bracket and scan kernels and of the
                equilibrium table (default and minimum: max(potential
                depth - 1, 1)); eigendata are solved at that minimum
    tol         power iteration tolerance (default 1e-12)
    max_iters   power iteration cap (default 100000)
    n_max       bracket / entropy horizon (default 8)
    cylinder_cap  override for the table-size guard, for this run only

Exit codes: 0 success, 1 failed verification, 2 bad config, 3 resource
cap exceeded, 4 numeric failure.  Output contains no timestamps, so a
fixed config and environment reproduce reports byte for byte.  The
report header echoes the space and potential configs; a table
potential's values appear there as their count and sha256 digest.
"""

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .config import cylinder_cap, set_cylinder_cap
from .errors import ConfigError, NumericError, ResourceCapError
from .measures import (
    CylinderMeasure,
    check_eigenmeasure,
    check_intertwine,
    check_invariance,
    equilibrium_measure,
    extend_eigenmeasure,
    extend_equilibrium,
    invariance_defect,
    variational_gap,
)
from .potential import (
    Potential,
    RenewalTail,
    builtin_constant,
    builtin_ising,
    builtin_renewal,
    builtin_xy,
    scale,
    truncate,
)
from .report import HUMAN_DIGITS, MACHINE_DIGITS, format_float
from .scan import pressure_curve
from .space import _word_labels, index_word, uniform_space, finite_space, gauss_legendre_space
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


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _integer(value, key):
    """int(value) for a config value; a float with a fractional part is refused, not truncated."""
    _require(not isinstance(value, float) or value.is_integer(), f"'{key}' must be an integer, got {value!r}")
    return int(value)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        cfg = json.loads(text)
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
            g = builtin_renewal(space, np.asarray(cfg["payoffs"], dtype=float), tail)
            return truncate(g, g.depth)
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
        if "cylinder_cap" in cfg:
            set_cylinder_cap(_integer(cfg["cylinder_cap"], "cylinder_cap"))
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
    _require("space" in cfg, "config needs a 'space' entry")
    _require("potential" in cfg, "config needs a 'potential' entry")
    space = build_space(cfg["space"])
    f = build_potential(cfg["potential"], space)
    params = _merged_params(cfg, args)
    d0 = max(f.depth - 1, 1)
    if params["depth"] is None:
        params["depth"] = d0
    _require(params["depth"] >= d0, f"'depth' must be at least {d0} for a depth-{f.depth} potential")
    if args.command == "entropy":
        # the gap at n needs mu at depth n + 1, and mu must integrate f
        _require(params["n_max"] + 1 >= f.depth, f"entropy needs 'n_max' at least {f.depth - 1}")
    return space, f, params


def _digits(fmt):
    return MACHINE_DIGITS if fmt == "csv" else HUMAN_DIGITS


def _cell(v, digits):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return format_float(v, digits)
    return str(v)


def _cell_format(column, digits):
    """The %-format of one column's cells.

    Word labels print as given, flags and counts as integers, floats at
    `digits` significant digits (the text of ``format_float``).
    """
    if isinstance(column, list):
        return "%s"
    return f"%.{digits}g" if column.dtype.kind == "f" else "%d"


def _column_cells(column, digits):
    """Text of each cell of one table column, from one %-format over the column."""
    if isinstance(column, list):
        return column
    return ((_cell_format(column, digits) + "\n") * len(column) % tuple(column.tolist())).splitlines()


def _table_lines(header, columns, fmt):
    """One line per row of equal-length columns: comma-separated, or right-aligned.

    The csv rows come from one %-format over the whole table, returned
    as a single newline-separated block after the header line.
    """
    if fmt == "csv":
        row = "\n" + ",".join(_cell_format(c, MACHINE_DIGITS) for c in columns)
        rows = zip(*(c if isinstance(c, list) else c.tolist() for c in columns))
        return [",".join(header) + row * len(columns[0]) % tuple(itertools.chain.from_iterable(rows))]
    cols = [_column_cells(c, HUMAN_DIGITS) for c in columns]
    widths = [max(len(h), *map(len, c)) for h, c in zip(header, cols)]
    cols = [[c.rjust(w) for c in col] for col, w in zip(cols, widths)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.extend("  ".join(row).rstrip() for row in zip(*cols))
    return lines


def _scalar_lines(pairs, fmt):
    digits = _digits(fmt)
    if fmt == "csv":
        return [f"# {k} {_cell(v, MACHINE_DIGITS)}" for k, v in pairs]
    width = max(len(k) for k, _ in pairs)
    return [f"{k.ljust(width)}  {_cell(v, digits)}" for k, v in pairs]


def _potential_echo(cfg):
    """The potential config for the report header.

    A ``table`` potential is echoed without its values, which can run to
    millions of characters: their ``count`` and the ``sha256`` of their
    little-endian float64 bytes stand in for them.
    """
    if cfg.get("kind") != "table":
        return cfg
    # imported here: hashlib loads OpenSSL (about 3.5 MB and 5 ms), which no other report needs
    import hashlib

    values = np.asarray(cfg["values"], dtype="<f8")
    echo = {key: val for key, val in cfg.items() if key != "values"}
    echo["count"] = values.size
    echo["sha256"] = hashlib.sha256(values.tobytes()).hexdigest()
    return echo


def _header_lines(command, cfg, params):
    pot = json.dumps(_potential_echo(cfg["potential"]), sort_keys=True)
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


def _scaled(f, params):
    beta = params["beta"]
    return f if beta == 1.0 else scale(f, beta)


def cmd_pressure(cfg, f, params, fmt):
    g = _scaled(f, params)
    est = pressure_bracket(g, params["depth"], params["n_max"])
    lines = _header_lines("pressure", cfg, params)
    lines += _table_lines(
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
        ("mass_dev", sd.mass_dev),
        ("hnu_dev", sd.hnu_dev),
        ("out_depth", sd.nu.depth),
        ("trunc_bound", sd.trunc_bound),
    ]


def cmd_spectral(cfg, f, params, fmt):
    g = _scaled(f, params)
    sd = perron_eigendata(g, tol=params["tol"], max_iters=params["max_iters"])
    lines = _header_lines("spectral", cfg, params)
    lines += _scalar_lines(_spectral_scalars(sd), fmt)
    words = _word_labels(g.space, sd.nu.depth)
    lines += _table_lines((WORD_COL, "nu", "h"), (words, sd.nu.weights, sd.h.values), fmt)
    return lines


def cmd_equilibrium(cfg, f, params, fmt):
    g = _scaled(f, params)
    sd = perron_eigendata(g, tol=params["tol"], max_iters=params["max_iters"])
    mu = extend_equilibrium(sd, g, params["depth"])
    inv = check_invariance(equilibrium_measure(sd), g, sd.log_lam, sd.nu)
    lines = _header_lines("equilibrium", cfg, params)
    lines += _scalar_lines(
        _spectral_scalars(sd)
        + [
            ("invariance_residual", inv),
            ("invariance_defect", invariance_defect(mu)),
            ("mu_mass_dev", mu.mass_dev),
            ("mu_depth", mu.depth),
        ],
        fmt,
    )
    words = _word_labels(g.space, mu.depth)
    lines += _table_lines((WORD_COL, "mu"), (words, mu.weights), fmt)
    return lines


def cmd_entropy(cfg, f, params, fmt):
    g = _scaled(f, params)
    sd = perron_eigendata(g, tol=params["tol"], max_iters=params["max_iters"])
    n_max = params["n_max"]
    mu = extend_equilibrium(sd, g, n_max + 1)
    rep = variational_gap(mu, g, sd, n_max)
    lines = _header_lines("entropy", cfg, params)
    lines += _scalar_lines(
        [
            ("lam", sd.lam),
            ("pressure", sd.log_lam),
            ("integral", rep.integral),
            ("integral_err", rep.integral_err),
            ("invariance_defect", rep.flags["invariance_defect"]),
            ("gap", rep.gap),
        ],
        fmt,
    )
    lines += _table_lines(
        ("n", "H", "rate", "gap"), (rep.n, rep.H, rep.entropy_rate, rep.gaps), fmt
    )
    return lines


def cmd_scan(cfg, f, params, fmt):
    grid = params["grid"]
    betas = np.linspace(grid["start"], grid["stop"], grid["count"])
    curve = pressure_curve(
        f, betas, params["depth"], tol=params["tol"], max_iters=params["max_iters"]
    )
    lines = _header_lines("scan", cfg, params)
    lines += _scalar_lines(
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


def _verify_checks(f, params):
    """Run the internal consistency checklist: a list of (name, ok, value, bound)."""
    tol = params["tol"]
    res_tol = max(100.0 * tol, 1e-12)
    checks = []

    sd = perron_eigendata(f, tol=tol, max_iters=params["max_iters"])
    checks.append(("power-iteration-converged", bool(sd.converged), float(sd.iterations), float(params["max_iters"])))
    checks.append(("residual-right", sd.residual_right <= res_tol, sd.residual_right, res_tol))
    checks.append(("residual-left", sd.residual_left <= res_tol, sd.residual_left, res_tol))
    checks.append(("mass-normalized", sd.mass_dev <= 1e-10, sd.mass_dev, 1e-10))
    checks.append(("pairing-normalized", sd.hnu_dev <= 1e-10, sd.hnu_dev, 1e-10))

    # |log lam| <= sup f; lam and its bound exp(sup f) print inf past double range
    in_band = abs(sd.log_lam) <= f.sup_norm + 1e-12 * max(1.0, f.sup_norm)
    with np.errstate(over="ignore"):
        checks.append(("eigenvalue-band", in_band, sd.lam, float(np.exp(f.sup_norm))))

    est = pressure_bracket(f, params["depth"], params["n_max"])
    pad = 1e-10 * max(1.0, abs(sd.log_lam))
    bracketed = (est.p_inf[-1] - pad <= sd.log_lam <= est.p_sup[-1] + pad)
    checks.append(("bracket-contains-pressure", bracketed, sd.log_lam, float(est.p_sup[-1])))

    kernel = build_kernel(f, sd.nu.depth)  # the eigenmeasure check and the controls read it
    adj = check_eigenmeasure(kernel, sd.log_lam, sd.nu, sd.nu.depth)
    checks.append(("eigenmeasure-fixed-point", adj <= res_tol, adj, res_tol))

    try:
        nu_ext = extend_eigenmeasure(f, sd.log_lam, sd.nu)
        checks.append(("extension-mass", nu_ext.mass_dev <= 1e-10, nu_ext.mass_dev, 1e-10))
    except NumericError:
        # the extension refused outright; that is a failed check, not a crash
        nu_ext = None
        checks.append(("extension-mass", False, float("nan"), 1e-10))

    eq_tol = max(1e-8, 100.0 * tol)
    try:
        mu = equilibrium_measure(sd, residual_tol=eq_tol)
    except NumericError:
        mu = None
    worst_res = max(sd.residual_right, sd.residual_left)
    checks.append(("equilibrium-accepted", mu is not None, worst_res, eq_tol))
    if mu is None:
        return checks

    inv = check_invariance(mu, f, sd.log_lam, sd.nu)
    checks.append(("equilibrium-invariance", inv <= res_tol, inv, res_tol))

    # each control feeds the check a measure m that is not invariant; its
    # preimage of [u] is nu(u) (M h')(u) / lam for h' = m / nu, so the check
    # must read max_u nu(u) |(M h')(u) / lam - h'(u)|, from one forward product.
    # A control passes at half that prediction; below res_tol it does not apply.
    lam = math.exp(sd.log_lam - kernel.offset)  # the eigenvalue on the kernel's scale
    w = mu.weights * (1.0 + 0.5 * (-1.0) ** np.arange(len(mu.weights)))
    controls = (
        ("negative-control-eigenmeasure", sd.nu),
        ("negative-control-perturbed", CylinderMeasure(mu.space, mu.depth, w / w.sum())),
    )
    for name, m in controls:
        h_m = m.weights / sd.nu.weights
        predicted = float(np.max(sd.nu.weights * np.abs(kernel.matvec(h_m) / lam - h_m)))
        seen = check_invariance(m, f, sd.log_lam, sd.nu)
        bound = 0.5 * predicted if predicted > res_tol else 0.0
        checks.append((name, seen >= bound, seen, bound))

    if nu_ext is not None:
        # words one level shallower than the stored measure, per the check
        n, d = f.space.size, nu_ext.depth - 1
        words = [index_word(i, n, d) for i in range(min(n**d, 16))]
        worst = check_intertwine(build_kernel(f, nu_ext.depth), sd.log_lam, nu_ext, words)
        checks.append(("adjoint-intertwine", worst <= res_tol, worst, res_tol))

    # mu is (k-1)-step Markov, so its entropy rate is exact at n = k-1
    n_gap = max(f.depth - 1, 1)
    gap_tol = max(1e-8, 1e4 * tol)
    try:
        rep = variational_gap(extend_equilibrium(sd, f, n_gap + 1), f, sd, n_gap)
        checks.append(("variational-gap", abs(rep.gap) <= gap_tol, rep.gap, gap_tol))
    except NumericError:
        checks.append(("variational-gap", False, float("nan"), gap_tol))
    return checks


def cmd_verify(cfg, f, params, fmt):
    g = _scaled(f, params)
    checks = _verify_checks(g, params)
    lines = _header_lines("verify", cfg, params)
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


def _run(args):
    cfg = load_config(args.config)
    _, f, params = assemble(cfg, args)
    ok = True
    if args.command == "pressure":
        lines = cmd_pressure(cfg, f, params, args.format)
    elif args.command == "spectral":
        lines = cmd_spectral(cfg, f, params, args.format)
    elif args.command == "equilibrium":
        lines = cmd_equilibrium(cfg, f, params, args.format)
    elif args.command == "entropy":
        lines = cmd_entropy(cfg, f, params, args.format)
    elif args.command == "scan":
        lines = cmd_scan(cfg, f, params, args.format)
    else:
        lines, ok = cmd_verify(cfg, f, params, args.format)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (NumericError, ValueError) as exc:
        # config faults are ConfigErrors by now; any other ValueError
        # (np.linalg.LinAlgError included) comes from the numerics
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))

import hashlib
import importlib.metadata
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ruelleop as ro
from conftest import renewal_payoffs
from ruelleop import cli, scan
from ruelleop.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
CONST = {
    "space": {"kind": "uniform", "size": 2},
    "potential": {"kind": "constant", "value": 0.7},
    "depth": 1,
    "n_max": 4,
}
ISING = {
    "space": {"kind": "uniform", "size": 2},
    "potential": {"kind": "ising", "coupling": 1.0, "external_field": 0.3},
    "depth": 2,
    "n_max": 5,
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def scalar_from(text, key):
    """Pull a named scalar out of either output format."""
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "#":
            parts = parts[1:]
        if len(parts) >= 2 and parts[0] == key:
            return float(parts[1])
    raise KeyError(key)


def console_script_spec(name):
    """The `module:attr` target of console script `name`.

    Read from the installed metadata when the package is installed, else from
    `[project.scripts]` in the source tree's pyproject.toml.
    """
    for ep in importlib.metadata.entry_points(group="console_scripts", name=name):
        return ep.value
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def run_to_file(tmp_path, argv, name="out.txt"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_text()


def test_pressure_constant_exact(tmp_path):
    cfg = write_cfg(tmp_path, CONST)
    code, text = run_to_file(tmp_path, ["pressure", "--config", cfg])
    assert code == 0
    assert abs(scalar_from(text, "estimate") - 0.7) < 1e-12
    assert scalar_from(text, "width") == 0.0


def test_spectral_matches_library(tmp_path):
    cfg = write_cfg(tmp_path, ISING)
    code, text = run_to_file(
        tmp_path, ["spectral", "--config", cfg, "--format", "csv"]
    )
    assert code == 0
    f = ro.builtin_ising(ro.uniform_space(2), 1.0, 0.3)
    sd = ro.perron_eigendata(f)
    assert scalar_from(text, "lam") == pytest.approx(sd.lam, rel=1e-12)
    assert scalar_from(text, "converged") == 1


def test_output_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, ISING)
    _, a = run_to_file(tmp_path, ["equilibrium", "--config", cfg], "a.txt")
    _, b = run_to_file(tmp_path, ["equilibrium", "--config", cfg], "b.txt")
    assert a == b and len(a) > 0


def test_csv_and_report_formats(tmp_path):
    cfg = write_cfg(tmp_path, ISING)
    _, rep = run_to_file(tmp_path, ["spectral", "--config", cfg], "rep.txt")
    _, csv = run_to_file(
        tmp_path, ["spectral", "--config", cfg, "--format", "csv"], "csv.txt"
    )
    # same eigenvalue through both renderings, at full precision in csv
    assert scalar_from(csv, "lam") == pytest.approx(scalar_from(rep, "lam"), rel=1e-5)
    body = [l for l in csv.splitlines() if l and not l.startswith("#")]
    assert all("," in l for l in body)  # csv rows are comma separated
    assert rep.startswith("# ruelleop")


# a float at or below 1e-9 in magnitude: a residual or gap at solver noise level
NOISE = re.compile(r"\s+-?\d(?:\.\d+)?e-(?:09|[1-9]\d)\b")


def test_report_layout_matches_golden_texts(tmp_path):
    # the aligned layout: left-justified keys and column headers, right-aligned
    # cells, two spaces between columns, 6 significant digits.  Noise-level
    # values are compared as "~0": their digits (and, in the last column,
    # their widths) follow the arithmetic of the solver, not the layout.
    cfg = dict(ISING, depth=3, grid={"start": 0.0, "stop": 2.0, "count": 5})
    path = write_cfg(tmp_path, cfg)
    for command in ("pressure", "spectral", "entropy", "scan"):
        code, text = run_to_file(
            tmp_path, [command, "--config", path], f"{command}.txt"
        )
        assert code == 0
        want = (GOLDEN / f"ising-{command}.txt").read_text()
        assert NOISE.sub("  ~0", text) == NOISE.sub("  ~0", want), command


def test_renewal_scan_matches_its_golden_text_byte_for_byte(tmp_path):
    # the criterion-10 renewal scan at truncation 12, every digit of every
    # column: a change of one ulp anywhere in the curve shows here
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "renewal", "payoffs": renewal_payoffs(12)},
    }
    path = write_cfg(tmp_path, cfg)
    code, text = run_to_file(tmp_path, ["scan", "--config", path, "--format", "csv"])
    assert code == 0
    assert text == (GOLDEN / "renewal12-scan.csv").read_text()


@pytest.mark.parametrize("trunc", [12, 14])
def test_renewal_scan_reports_equal_the_table_route(tmp_path, trunc):
    # the criterion-10 payoffs rise with the leading-zero count, so the
    # partition of the table numbers its classes as the closed form does:
    # the same quotients, and the same report bytes in both formats
    payoffs = renewal_payoffs(trunc)
    table = ro.builtin_renewal(ro.uniform_space(2), payoffs).table
    space = {"kind": "uniform", "size": 2}
    renewal = write_cfg(tmp_path, {"space": space, "potential": {"kind": "renewal", "payoffs": payoffs}})
    values = {"kind": "table", "depth": trunc, "values": table.tolist()}
    path = write_cfg(tmp_path, {"space": space, "potential": values}, "table.json")
    for fmt in ("csv", "report"):
        _, text = run_to_file(tmp_path, ["scan", "--config", renewal, "--format", fmt])
        _, want = run_to_file(tmp_path, ["scan", "--config", path, "--format", fmt], "table.txt")
        assert report_body(text) == report_body(want), fmt


def test_word_column_lists_words_in_canonical_order(tmp_path):
    n, depth = 3, 3
    values = np.random.default_rng(5).uniform(-1.0, 1.0, n ** (depth + 1))
    cfg = {
        "space": {"kind": "uniform", "size": n},
        "potential": {"kind": "table", "depth": depth + 1, "values": values.tolist()},
        "depth": depth,
    }
    path = write_cfg(tmp_path, cfg)
    want = [".".join(map(str, ro.index_word(i, n, depth))) for i in range(n**depth)]
    for command in ("spectral", "equilibrium"):
        for fmt in ("csv", "report"):
            code, text = run_to_file(
                tmp_path, [command, "--config", path, "--format", fmt], "out.txt"
            )
            assert code == 0
            lines = text.splitlines()
            start = next(i for i, l in enumerate(lines) if l.startswith("word")) + 1
            sep = "," if fmt == "csv" else None
            assert [l.split(sep)[0] for l in lines[start:]] == want, (command, fmt)


# the lines of a verify report, in order
VERIFY_CHECKS = (
    "power-iteration-converged",
    "residual-right",
    "residual-left",
    "eigenvalue-band",
    "bracket-contains-pressure",
    "equilibrium-invariance",
    "negative-control-eigenmeasure",
    "negative-control-perturbed",
    "variational-gap",
)
ALL_PASSED = f"# {len(VERIFY_CHECKS)} of {len(VERIFY_CHECKS)} checks passed"


def check_line(text, check):
    return next(l for l in text.splitlines() if f" {check} " in l)


def test_verify_residuals_are_relative_to_lam(tmp_path):
    # lam is about 7e12 here; absolute residuals of 3.4 are 5e-13 relative.
    # nu and mu sit within 1e-12 of a point mass, so neither control moves
    # the invariance residual off its noise: both do not apply (bound 0)
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "ising", "coupling": 30.0, "external_field": 0.3},
        "depth": 3,
    }
    code, text = run_to_file(tmp_path, ["verify", "--config", write_cfg(tmp_path, cfg)])
    assert check_line(text, "residual-left").startswith("ok ")
    for control in ("negative-control-eigenmeasure", "negative-control-perturbed"):
        assert check_line(text, control).endswith(" bound=0"), control
    assert code == 0 and ALL_PASSED in text
    # J=3, h=0.5: nu's defect is 9.07e-4, the perturbed one 7.2e-6, below any fixed 1e-3
    cfg = {"space": {"kind": "uniform", "size": 2}, "potential": {"kind": "ising", "coupling": 3.0, "external_field": 0.5}}
    code, text = run_to_file(tmp_path, ["verify", "--config", write_cfg(tmp_path, cfg, "j3.json")], "j3.txt")
    assert code == 0 and ALL_PASSED in text


def test_negative_controls_fail_a_check_that_reads_zero(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, ISING)
    code, text = run_to_file(tmp_path, ["verify", "--config", cfg])
    assert code == 0
    for control in ("negative-control-eigenmeasure", "negative-control-perturbed"):
        # the bound is half the predicted defect, which the check reads to rounding
        value, bound = re.search(r"value=(\S+) bound=(\S+)", check_line(text, control)).groups()
        assert float(bound) > 1e-3 and float(value) == pytest.approx(2.0 * float(bound), rel=1e-5)
    monkeypatch.setattr(cli, "check_invariance", lambda *args: 0.0)
    code, text = run_to_file(tmp_path, ["verify", "--config", cfg], "blind.txt")
    assert code == 1
    for control in ("negative-control-eigenmeasure", "negative-control-perturbed"):
        assert check_line(text, control).startswith("FAIL "), control


def test_verify_runs_on_a_wide_alphabet_at_the_potential_depth(tmp_path):
    # the gap check needs mu at depth max(k, 2): 40^2 cylinders, not 40^3
    cfg = {
        "space": {"kind": "gauss-legendre", "count": 40},
        "potential": {"kind": "xy", "coupling": 8.0},
        "cylinder_cap": 10_000,
    }
    code, text = run_to_file(tmp_path, ["verify", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    assert ALL_PASSED in text


def header_potential(text):
    line = next(l for l in text.splitlines() if l.startswith("# potential "))
    return json.loads(line[len("# potential "):])


def test_table_header_echoes_a_digest_instead_of_the_values(tmp_path):
    values = np.random.default_rng(9).uniform(-1.0, 1.0, 16)
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "table", "depth": 4, "values": values.tolist(), "var_bound": 0.0},
    }
    path = write_cfg(tmp_path, cfg)
    code, text = run_to_file(tmp_path, ["pressure", "--config", path])
    assert code == 0
    echo = header_potential(text)
    digest = hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()
    assert echo == {"count": 16, "depth": 4, "kind": "table", "sha256": digest, "var_bound": 0.0}
    # the digest is of the values as given, before beta scales the potential
    for beta in ("2.5", "-0.75"):
        code, text = run_to_file(tmp_path, ["pressure", "--config", path, "--beta", beta])
        assert code == 0
        assert header_potential(text) == echo, beta
    # one changed value changes the digest
    cfg["potential"]["values"][7] = np.nextafter(values[7], 2.0)
    _, text = run_to_file(tmp_path, ["pressure", "--config", write_cfg(tmp_path, cfg, "b.json")])
    assert header_potential(text)["sha256"] != digest
    # other kinds echo their config unchanged, as in the golden texts
    ising_line = (GOLDEN / "ising-pressure.txt").read_text().splitlines()[2]
    assert ising_line == "# potential " + json.dumps(ISING["potential"], sort_keys=True)
    renewal = {"kind": "renewal", "payoffs": [-1.5, -0.25, 0.0], "tail": {"limit": 0.0}}
    cfg = {"space": {"kind": "uniform", "size": 2}, "potential": renewal}
    _, text = run_to_file(tmp_path, ["spectral", "--config", write_cfg(tmp_path, cfg, "r.json")])
    assert header_potential(text) == renewal
    assert "# potential " + json.dumps(renewal, sort_keys=True) in text.splitlines()


def test_float_columns_format_like_format_float():
    values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1.7e308, -1.7e308, 1 / 3, 1e16, 123456.5])
    for digits in (ro.report.MACHINE_DIGITS, ro.report.HUMAN_DIGITS):
        want = [ro.report.format_float(v, digits) for v in values]
        assert cli._column_cells(values, digits) == want
    assert cli._column_cells(np.array([]), 17) == []
    # the csv table is one %-format over all columns: the same cells, comma-joined
    words = [f"w{i}" for i in range(len(values))]
    flags = np.arange(len(values)) % 3 == 0
    counts = np.arange(len(values)) * 10**12
    text = "\n".join(cli._table_lines(("word", "x", "flag", "count"), (words, values, flags, counts), "csv"))
    want = ["word,x,flag,count"] + [
        f"{w},{ro.report.format_float(v, 17)},{int(b)},{c}" for w, v, b, c in zip(words, values, flags, counts)
    ]
    assert text.splitlines() == want
    assert cli._table_lines(("x",), (np.array([]),), "csv") == ["x"]


@pytest.mark.parametrize("command", ["spectral", "equilibrium"])
def test_table_reports_do_not_depend_on_the_block_size(tmp_path, monkeypatch, command):
    # a depth-13 table: 4,096 rows at the working depth 12, two csv blocks at
    # the default size; the csv rows are also the cells of format_float
    values = np.random.default_rng(5).uniform(-1.0, 1.0, 2**13)
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "table", "depth": 13, "values": values.tolist()},
    }
    path = write_cfg(tmp_path, cfg)
    f = ro.Potential(ro.uniform_space(2), 13, values)
    sd = ro.perron_eigendata(f)
    if command == "spectral":
        columns = (sd.nu.weights, sd.h.values)
    else:
        columns = (ro.extend_equilibrium(sd, f, 12).weights,)
    words = ro.space._word_labels(f.space, 12)
    rows = [",".join([w, *(ro.report.format_float(c[i]) for c in columns)]) for i, w in enumerate(words)]
    for fmt in ("csv", "report"):
        argv = [command, "--config", path, "--format", fmt]
        code, want = run_to_file(tmp_path, argv, "want.txt")
        assert code == 0
        if fmt == "csv":
            assert want.splitlines()[-len(rows):] == rows
        for block in (1, 3, len(rows)):
            monkeypatch.setattr(cli, "TABLE_BLOCK_ROWS", block)
            assert run_to_file(tmp_path, argv, f"rows{block}.txt")[1] == want, (fmt, block)
        monkeypatch.undo()


def test_csv_table_text_is_built_in_blocks():
    # 65,536 rows of a word column and two float columns, as spectral writes
    # them: 4.7 MB of text.  One %-format over the whole table, after a list
    # of the labels, peaked at 4.1 times the text; in blocks of rows, with
    # the labels read from an iterator, the peak is 1.1 times the text
    rng = np.random.default_rng(0)
    nu, h = rng.uniform(size=(2, 2**16))
    tracemalloc.start()
    try:
        words = ro.space._word_labels(ro.uniform_space(2), 16)
        lines = cli._table_lines((cli.WORD_COL, "nu", "h"), (words, nu, h), "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = "\n".join(lines)
    assert len(lines) == 1 + -(-2**16 // cli.TABLE_BLOCK_ROWS)
    assert text.count("\n") == 2**16
    assert text.splitlines()[-1] == "1." * 15 + "1," + ",".join(ro.report.format_float(v) for v in (nu[-1], h[-1]))
    assert peak <= 1.5 * len(text)


def test_pressure_of_a_huge_constant_is_exact(tmp_path):
    # exp(800) overflows a double; the gauge-shifted kernel never forms it
    cfg = {"space": {"kind": "uniform", "size": 2}, "potential": {"kind": "constant", "value": 800}}
    code, text = run_to_file(tmp_path, ["pressure", "--config", write_cfg(tmp_path, cfg), "--format", "csv"])
    assert code == 0
    assert scalar_from(text, "estimate") == 800.0
    rows = [l.split(",") for l in text.splitlines() if l[:1].isdigit()]
    assert len(rows) == 8 and all(r[1:] == ["800", "800", "0"] for r in rows)


def test_scan_past_double_range_prints_lam_inf_and_exact_pressure(tmp_path):
    # lam = exp(800) at beta 2 is past double range: it prints inf, the pressure stays exact
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "constant", "value": 400},
        "grid": {"start": 0.0, "stop": 2.0, "count": 5},
    }
    code, text = run_to_file(tmp_path, ["scan", "--config", write_cfg(tmp_path, cfg), "--format", "csv"])
    assert code == 0
    assert scalar_from(text, "n_nonconverged") == 0
    rows = [l.split(",") for l in text.splitlines() if l[:1].isdigit()]
    assert [r[2] for r in rows] == ["0", "200", "400", "600", "800"]
    assert rows[-1][1] == "inf"
    assert all(r[5] == "1" for r in rows)


@pytest.mark.parametrize(
    "seed, depth, grid, failed",
    [
        (303, 4, {"start": -3.0, "stop": 3.0, "count": 61}, 17),  # quotient route
        (502, 8, {"start": 0.5, "stop": 3.0, "count": 6}, 5),  # kernel route
    ],
)
def test_a_scan_point_whose_iteration_fails_is_listed_non_converged(tmp_path, seed, depth, grid, failed):
    # past beta 2.8 these kernels' adjoint mass underflows to 0 and power
    # iteration raises; the point prints nan and the scan goes on
    values = np.random.default_rng(seed).uniform(-400.0, 400.0, 2**depth)
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "table", "depth": depth, "values": values.tolist()},
        "grid": grid,
    }
    argv = ["scan", "--config", write_cfg(tmp_path, cfg), "--format", "csv", "--max-iters", "2000"]
    code, text = run_to_file(tmp_path, argv)
    assert code == 0
    assert scalar_from(text, "n_nonconverged") == failed
    assert text.count(" non-converged") == failed
    rows = [l.split(",") for l in text.splitlines() if l[:1].isdigit() or l[:1] == "-"]
    assert rows[-1][1:] == ["nan", "nan", "nan", "0", "0", "0"]


def test_a_constant_past_double_range_runs_every_command(tmp_path):
    # lam = exp(800) prints inf; the pressure log lam = 800 stays exact
    cfg = {"space": {"kind": "uniform", "size": 2}, "potential": {"kind": "constant", "value": 800}}
    path = write_cfg(tmp_path, cfg)
    for command in ("pressure", "spectral", "equilibrium", "entropy", "scan", "verify"):
        code, text = run_to_file(tmp_path, [command, "--config", path], f"{command}.txt")
        assert code == 0, command
        if command in ("spectral", "equilibrium", "entropy"):
            assert scalar_from(text, "pressure") == 800.0
            assert scalar_from(text, "lam") == math.inf
    assert ALL_PASSED in text


def test_verify_passes_on_a_constant_near_the_top_of_double_range(tmp_path):
    # lam = exp(700) is about 1e304: finite, but its unshifted adjoint products overflow
    cfg = {"space": {"kind": "uniform", "size": 2}, "potential": {"kind": "constant", "value": 700}}
    code, text = run_to_file(tmp_path, ["verify", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    assert ALL_PASSED in text


def test_verify_passes_on_a_coboundary_whose_eigenfunction_spans_1e21(tmp_path):
    # u(x0 x1) - u(x1 x2) has pressure 0 and h ~ exp(-u): h runs from 0.21 to 1.1e21,
    # so a right residual not divided by max h reads 1.3e5 on an exact eigenpair
    u = np.array([0.0, 30.0, -20.0, 5.0])
    words = np.arange(8)
    cfg = {
        "space": {"kind": "finite", "weights": [0.7, 0.3]},
        "potential": {"kind": "table", "depth": 3, "values": (u[words >> 1] - u[words & 3]).tolist()},
        "depth": 2,
    }
    code, text = run_to_file(tmp_path, ["verify", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    assert ALL_PASSED in text
    line = next(l for l in text.splitlines() if " bracket-contains-pressure " in l)
    assert "value=0 " in line


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 16,384 words: large enough that a BLAS dot product splits its sum by
    # thread; the scans square 63 x 63 renewal quotients by BLAS matmul, and
    # the quotients of a depth-6 table in the shifted passes
    values = np.random.default_rng(3).uniform(-1.0, 1.0, 2**15)
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "table", "depth": 15, "values": values.tolist()},
    }
    path = write_cfg(tmp_path, cfg)
    renewal = {"kind": "renewal", "payoffs": renewal_payoffs(64)}
    scan_path = write_cfg(tmp_path, {"space": cfg["space"], "potential": renewal}, "scan.json")
    table = {"kind": "table", "depth": 6, "values": values[:64].tolist()}
    grid = {"start": -5.0, "stop": 60.0, "count": 131}
    shifted_path = write_cfg(tmp_path, {"space": cfg["space"], "potential": table, "grid": grid}, "shifted.json")
    pythonpath = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    runs = (
        (["spectral"], path),
        (["entropy", "--n-max", "14"], path),
        (["scan"], scan_path),
        (["scan"], shifted_path),
    )
    for argv, config in runs:
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
            proc = subprocess.run(
                [sys.executable, "-m", "ruelleop.cli", *argv, "--config", config, "--format", "csv"],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv[0]


def main_in_a_fresh_interpreter(argv, module):
    """[exit code, whether ``module`` was imported] of ``main(argv)`` in a new interpreter."""
    script = f"import sys\nfrom ruelleop.cli import main\nprint(main({argv!r}), {module!r} in sys.modules)"
    pythonpath = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_scan_does_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call, about 20 ms of a scan
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "renewal", "payoffs": [-1.5, -1.0, -0.25, 0.0]},
    }
    argv = ["scan", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "scan.txt")]
    assert main_in_a_fresh_interpreter(argv, "numpy.ma") == ["0", "False"]


def test_table_header_does_not_load_openssl(tmp_path):
    # hashlib maps OpenSSL into the process, about 3 MB of peak resident set;
    # the digest comes from CPython's builtin sha256 module instead
    values = np.random.default_rng(9).uniform(-1.0, 1.0, 16)
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "table", "depth": 4, "values": values.tolist()},
    }
    out = tmp_path / "spectral.txt"
    argv = ["spectral", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
    assert main_in_a_fresh_interpreter(argv, "_hashlib") == ["0", "False"]
    digest = hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()
    assert header_potential(out.read_text())["sha256"] == digest


def test_flags_override_config(tmp_path):
    cfg = write_cfg(tmp_path, CONST)
    code, text = run_to_file(tmp_path, ["pressure", "--config", cfg, "--beta", "2.0"])
    assert code == 0
    assert abs(scalar_from(text, "estimate") - 1.4) < 1e-12
    code, text = run_to_file(tmp_path, ["spectral", "--config", cfg, "--depth", "3"])
    assert code == 0
    assert "depth=3" in text


def report_body(text):
    """A report without its four header lines (version, space, potential, params)."""
    lines = text.splitlines()
    assert lines[3].startswith("# params beta=")
    return lines[4:]


@pytest.mark.parametrize(
    "space, potential",
    [
        (2, ISING["potential"]),
        (2, {"kind": "table", "depth": 3, "values": np.random.default_rng(21).uniform(-1.0, 1.0, 8).tolist()}),
        (3, {"kind": "table", "depth": 2, "values": np.random.default_rng(22).uniform(-1.0, 1.0, 9).tolist()}),
        (2, {"kind": "renewal", "payoffs": renewal_payoffs(8)}),
    ],
)
def test_depth_sets_only_the_equilibrium_table(tmp_path, space, potential):
    # every solve runs at d0 = max(k-1, 1): the bodies of the other reports
    # are the same bytes at every depth, and equilibrium prints n^depth rows
    cfg = {"space": {"kind": "uniform", "size": space}, "potential": potential}
    path = write_cfg(tmp_path, cfg)
    d0 = max(cli.build_potential(potential, ro.uniform_space(space)).depth - 1, 1)
    bodies = {}
    for depth in range(d0, d0 + 4):
        for command in ("pressure", "scan", "spectral", "entropy", "verify", "equilibrium"):
            argv = [command, "--config", path, "--depth", str(depth), "--format", "csv"]
            code, text = run_to_file(tmp_path, argv, f"{command}.txt")
            assert code == 0, (command, depth)
            assert f"depth={depth} " in text.splitlines()[3]
            body = report_body(text)
            if command == "equilibrium":
                assert sum(not line.startswith("#") for line in body) == 1 + space**depth
            else:
                assert body == bodies.setdefault(command, body), (command, depth)


def test_default_depth_scan_stacks_its_grid_once(tmp_path, monkeypatch):
    # the Ising scan at d0 = 1: its 101 quotients are one stack
    quotient, calls = ro.Lumping.quotient, []

    def counted(self, weights):
        calls.append(weights.shape)
        return quotient(self, weights)

    monkeypatch.setattr(ro.Lumping, "quotient", counted)
    cfg = {"space": ISING["space"], "potential": ISING["potential"]}
    code, text = run_to_file(tmp_path, ["scan", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0 and "n_nonconverged  0" in text
    assert [shape[0] for shape in calls] == [101]


def test_beta_is_applied_once(tmp_path):
    values = [0.3, -0.7, 1.1, 0.25, -0.4, 0.9, 0.0, 0.6, -1.2]
    table = {
        "space": {"kind": "uniform", "size": 3},
        "potential": {"kind": "table", "depth": 2, "values": values, "var_bound": 0.0625},
        "n_max": 4,
        "grid": {"start": 0.0, "stop": 2.0, "count": 5},
    }
    # doubling is exact in floating point
    potential = dict(table["potential"], values=[2.0 * v for v in values], var_bound=0.125)
    path = write_cfg(tmp_path, table)
    path2 = write_cfg(tmp_path, dict(table, potential=potential), "doubled.json")
    for command in ("pressure", "spectral", "equilibrium", "entropy", "verify"):
        for fmt in ("csv", "report"):
            argv = [command, "--format", fmt, "--config"]
            code, text = run_to_file(tmp_path, argv + [path, "--beta", "2"], "beta.txt")
            code2, want = run_to_file(tmp_path, argv + [path2], "doubled.txt")
            assert code == code2 == 0, (command, fmt)
            assert report_body(text) == report_body(want), (command, fmt)
    # scan sweeps its grid and ignores beta
    _, text = run_to_file(tmp_path, ["scan", "--config", path, "--beta", "2"], "beta.txt")
    _, want = run_to_file(tmp_path, ["scan", "--config", path], "plain.txt")
    assert "beta=2.0" in text
    assert report_body(text) == report_body(want)


def test_renewal_tail_band_is_the_truncation_bound(tmp_path):
    payoffs = [-1.0, -0.5, 0.25]
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {
            "kind": "renewal",
            "payoffs": payoffs,
            "tail": {"limit": 0.0, "bound": 0.1},
        },
    }
    path = write_cfg(tmp_path, cfg)
    # the all-zeros cylinder holds payoffs[-1] and the band [limit - bound, limit + bound]
    spread = max(-0.1, 0.1, payoffs[-1]) - min(-0.1, 0.1, payoffs[-1])
    for command in ("pressure", "spectral"):
        code, text = run_to_file(tmp_path, [command, "--config", path, "--format", "csv"])
        assert code == 0
        assert scalar_from(text, "trunc_bound") == spread, command


def test_renewal_verify_passes_at_a_tight_tol_past_the_transition(tmp_path):
    # at beta 3 the criterion-10 eigenfunction is far from balanced; the stop
    # reads the scale-free residual the report prints, so tol 1e-14 is reached
    # in a few dozen steps, well inside the 1,000-step budget
    cfg = {"space": {"kind": "uniform", "size": 2}, "potential": {"kind": "renewal", "payoffs": renewal_payoffs(12)}}
    argv = ["verify", "--config", write_cfg(tmp_path, cfg), "--beta", "3", "--tol", "1e-14", "--max-iters", "1000"]
    code, text = run_to_file(tmp_path, argv)
    assert code == 0
    assert text.splitlines()[-1] == ALL_PASSED


def test_unwritable_report_path_exits_2(tmp_path, monkeypatch, capsys):
    # a missing directory and a directory itself: one stderr line, no traceback,
    # and the command never runs, since the report opens before the solve
    calls = []
    monkeypatch.setattr(cli, "cmd_pressure", lambda *args: calls.append(args))
    cfg = write_cfg(tmp_path, CONST)
    for out in (tmp_path / "missing" / "x.txt", tmp_path):
        assert main(["pressure", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write report {str(out)!r}") and err.count("\n") == 1
    assert calls == []


def test_a_failed_command_leaves_an_empty_report_file(tmp_path, capsys):
    out = tmp_path / "eq.txt"
    argv = ["equilibrium", "--config", write_cfg(tmp_path, ISING), "--max-iters", "3", "--out", str(out)]
    assert main(argv) == 4
    assert out.read_text() == ""
    assert capsys.readouterr().err.startswith("numeric failure: non-converged input refused")


def test_commands_are_looked_up_at_call_time(tmp_path, monkeypatch):
    # a command function rebound on the module (as a tracer does) is the one that runs
    calls = []
    command = cli.cmd_pressure

    def spy(*args):
        calls.append(args[1]["beta"])
        return command(*args)

    monkeypatch.setattr(cli, "cmd_pressure", spy)
    code, _ = run_to_file(tmp_path, ["pressure", "--config", write_cfg(tmp_path, CONST)])
    assert code == 0
    assert calls == [1.0]


def test_entropy_gap_vanishes_at_equilibrium(tmp_path):
    cfg = write_cfg(tmp_path, ISING)
    code, text = run_to_file(tmp_path, ["entropy", "--config", cfg, "--format", "csv"])
    assert code == 0
    rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")]
    rows = [r for r in rows if r[0] != "n"]  # drop the column header
    assert len(rows) == 5
    assert all(abs(float(r[-1])) < 1e-8 for r in rows)


def test_scan_smooth_family_has_no_candidates(tmp_path):
    cfg = dict(ISING)
    cfg["grid"] = {"start": 0.0, "stop": 2.0, "count": 9}
    path = write_cfg(tmp_path, cfg)
    code, text = run_to_file(tmp_path, ["scan", "--config", path])
    assert code == 0
    assert scalar_from(text, "n_flagged") == 0
    assert scalar_from(text, "n_nonconverged") == 0
    assert "# candidate" not in text


def test_a_loose_tol_accepts_the_eigendata_it_converged_to(tmp_path):
    # at tol 1e-6 the residuals land near 3e-7: above 1e-8, below the tol the
    # solve certified them against, so the measures are built from them
    cfg = write_cfg(tmp_path, ISING)
    for command in ("equilibrium", "entropy"):
        code, _ = run_to_file(tmp_path, [command, "--config", cfg, "--tol", "1e-6"], f"{command}.txt")
        assert code == 0, command
    for tol in (1e-6, 1e-9):
        code, text = run_to_file(tmp_path, ["verify", "--config", cfg, "--tol", str(tol)], f"verify-{tol}.txt")
        assert code == 0 and text.splitlines()[-1] == ALL_PASSED, tol
        values = []
        for check in ("residual-right", "residual-left"):
            value, bound = re.search(r"value=(\S+) bound=(\S+)", check_line(text, check)).groups()
            assert float(bound) == pytest.approx(100 * tol), check  # res_tol
            values.append(float(value))
        assert (max(values) > 1e-8) == (tol == 1e-6)


def test_a_tol_of_1e_3_builds_the_measures_from_converged_eigendata(tmp_path):
    # residuals near 5e-4 leave the extended equilibrium mass 4e-4 from 1;
    # the solve certified them against its tol, so no mass gate refuses them
    cfg = write_cfg(tmp_path, ISING)
    code, text = run_to_file(tmp_path, ["spectral", "--config", cfg, "--tol", "1e-3"], "spectral.txt")
    assert code == 0 and scalar_from(text, "converged") == 1
    code, text = run_to_file(tmp_path, ["entropy", "--config", cfg, "--tol", "1e-3"], "entropy.txt")
    assert code == 0
    code, text = run_to_file(tmp_path, ["verify", "--config", cfg, "--tol", "1e-3"], "verify.txt")
    assert code == 0 and text.splitlines()[-1] == ALL_PASSED


def test_verify_lists_refused_steps_as_failed_checks(tmp_path, monkeypatch, capsys):
    # a refused gap fails its own check
    def refuse(*args):
        raise ro.NumericError("refused")

    monkeypatch.setattr(cli, "markov_entropy_gap", refuse)
    code, text = run_to_file(tmp_path, ["verify", "--config", write_cfg(tmp_path, ISING)])
    assert code == 1
    total = len(VERIFY_CHECKS)
    assert text.splitlines()[-1] == f"# {total - 1} of {total} checks passed"
    assert re.match(r"FAIL .* value=nan ", check_line(text, "variational-gap"))
    assert capsys.readouterr().err == ""


def test_verify_passes_and_catches_starved_iteration(tmp_path):
    cfg = write_cfg(tmp_path, ISING)
    code, text = run_to_file(tmp_path, ["verify", "--config", cfg])
    assert code == 0
    assert "FAIL" not in text
    code, text = run_to_file(
        tmp_path, ["verify", "--config", cfg, "--max-iters", "2"], "starved.txt"
    )
    assert code == 1
    assert "FAIL" in text
    # the refused equilibrium fails the checks that read mu; the battery still has every line
    checks = [line for line in text.splitlines() if line.startswith(("ok", "FAIL"))]
    assert [line.split()[1] for line in checks] == list(VERIFY_CHECKS)
    assert text.rstrip().endswith(f"of {len(VERIFY_CHECKS)} checks passed")
    for name in ("equilibrium-invariance", "negative-control-eigenmeasure", "negative-control-perturbed", "variational-gap"):
        (line,) = [line for line in checks if line.split()[1] == name]
        assert line.startswith("FAIL") and "value=nan" in line, line


def test_verify_fails_the_checks_that_divide_by_a_nu_with_a_zero_weight(tmp_path, capsys):
    # converged eigendata (346 iterations) whose nu underflows to 0 on some
    # cylinders: the invariance check and both controls divide by nu, so they
    # fail with value nan, as on a refused equilibrium, and every line prints
    values = np.random.default_rng(12).uniform(-400.0, 400.0, 2**8)
    cfg = {
        "space": {"kind": "finite", "weights": [0.3, 0.7]},
        "potential": {"kind": "table", "depth": 8, "values": values.tolist()},
    }
    sd = ro.perron_eigendata(ro.Potential(ro.finite_space(np.array([0.3, 0.7])), 8, values))
    assert sd.converged and sd.nu.weights.min() == 0
    code, text = run_to_file(tmp_path, ["verify", "--config", write_cfg(tmp_path, cfg)])
    assert code == 1 and capsys.readouterr().err == ""
    checks = [line for line in text.splitlines() if line.startswith(("ok", "FAIL"))]
    assert [line.split()[1] for line in checks] == list(VERIFY_CHECKS)
    failed = [line.split()[1] for line in checks if line.startswith("FAIL")]
    assert failed == ["equilibrium-invariance", "negative-control-eigenmeasure", "negative-control-perturbed"]
    for name in failed:
        assert "value=nan" in check_line(text, name), name


@pytest.mark.parametrize("seed, pressure", [(0, 298.02), (2, 283.686)])
def test_variational_gap_bound_scales_with_log_lam(tmp_path, seed, pressure):
    # the gap is a difference of terms the size of log lam: these read 1.04e-8
    # and -1.28e-8, about 4e-11 of log lam, past an absolute bound of 1e-8
    values = np.random.default_rng(seed).uniform(-400.0, 400.0, 3**5)
    cfg = {
        "space": {"kind": "uniform", "size": 3},
        "potential": {"kind": "table", "depth": 5, "values": values.tolist()},
    }
    code, text = run_to_file(tmp_path, ["verify", "--config", write_cfg(tmp_path, cfg)])
    line = check_line(text, "variational-gap")
    value, bound = (float(v) for v in re.search(r"value=(\S+) bound=(\S+)", line).groups())
    assert line.startswith("ok ") and 1e-8 < abs(value) < 2e-8
    assert bound == pytest.approx(1e-8 * pressure, rel=1e-5)
    # nu underflows to 0 on these tables, so the three checks that divide by it fail
    failed = [l.split()[1] for l in text.splitlines() if l.startswith("FAIL")]
    assert code == 1 and failed == ["equilibrium-invariance", "negative-control-eigenmeasure", "negative-control-perturbed"]


def test_bad_config_exits_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["pressure", "--config", str(broken)]) == 2
    unknown = write_cfg(
        tmp_path, {"space": {"kind": "uniform", "size": 2}, "potential": {"kind": "zzz"}}
    )
    assert main(["pressure", "--config", unknown]) == 2
    assert main(["pressure", "--config", str(tmp_path / "missing.json")]) == 2
    good = write_cfg(tmp_path, CONST, "good.json")
    assert main(["pressure", "--config", good, "--tol", "-1"]) == 2
    # a tolerance of inf would stop power iteration after two steps and pass verify
    ising = write_cfg(tmp_path, ISING, "ising.json")
    assert main(["verify", "--config", ising, "--tol", "inf"]) == 2
    assert main(["verify", "--config", write_cfg(tmp_path, dict(ISING, tol=math.inf), "inf.json")]) == 2
    assert "config error: 'tol' must be positive and finite" in capsys.readouterr().err
    # every integer key refuses a fractional value instead of truncating it
    table = {"kind": "table", "depth": 2, "values": [0.1, 0.2, 0.3, 0.4]}
    for section, key in (
        ("space", "size"),
        ("potential", "depth"),
        (None, "depth"),
        (None, "max_iters"),
        (None, "n_max"),
        (None, "cylinder_cap"),
    ):
        cfg = {"space": {"kind": "uniform", "size": 2}, "potential": dict(table)}
        (cfg if section is None else cfg[section])[key] = 2.7
        assert main(["pressure", "--config", write_cfg(tmp_path, cfg, "frac.json")]) == 2, key
        assert f"'{key}' must be an integer, got 2.7" in capsys.readouterr().err, key
    quadrature = {"space": {"kind": "gauss-legendre", "count": 3.5}, "potential": {"kind": "xy"}}
    assert main(["pressure", "--config", write_cfg(tmp_path, quadrature, "frac.json")]) == 2
    grid = {"space": {"kind": "uniform", "size": 2}, "potential": table, "grid": {"count": 5.5}}
    assert main(["scan", "--config", write_cfg(tmp_path, grid, "frac.json")]) == 2
    assert "'grid.count' must be an integer, got 5.5" in capsys.readouterr().err
    capsys.readouterr()


def test_a_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # read as text, the undecodable byte raised UnicodeDecodeError, a
    # ValueError, which the exit-code mapping took for a numeric failure
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"space": {"kind": "uniform", "size": 2}, "potential": {"kind": "ising\xff"}}')
    assert main(["pressure", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config {str(path)!r} is not valid JSON") and err.count("\n") == 1


def test_non_standard_json_literals_exit_2(tmp_path, capsys):
    # NaN, Infinity and literals past double range are not JSON (RFC 8259)
    for literal in ("NaN", "Infinity", "-Infinity", "1e400"):
        path = tmp_path / "literal.json"
        path.write_text(
            '{"space": {"kind": "uniform", "size": 2}, "potential": {"kind": "constant", "value": %s}}' % literal
        )
        assert main(["pressure", "--config", str(path)]) == 2, literal
        assert "is not valid JSON" in capsys.readouterr().err, literal


def test_integers_past_64_bits_are_read_as_floats(tmp_path, capsys):
    # 10^30 parses as the double nearest it, an integer still, so the
    # space refuses it on the cylinder cap and prints the rounded value
    path = tmp_path / "huge.json"
    path.write_text(
        '{"space": {"kind": "uniform", "size": %d}, "potential": {"kind": "constant", "value": 0.5}}' % 10**30
    )
    assert cli.load_config(str(path))["space"]["size"] == 1e30
    assert main(["pressure", "--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"resource cap: {int(1e30)}^1 = ")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
@example([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7e308, -1.7e308])
@example([1 / 3, 0.1, 1e16, 123456.5, 9007199254740993.0, 1e-300, -2.5e-320])
def test_load_config_reads_the_bits_json_writes(tmp_path_factory, values):
    # configs are parsed by orjson; every finite double must come back as
    # the float json.loads reads from the same text, bit for bit
    text = json.dumps({"potential": {"values": values}})
    path = tmp_path_factory.mktemp("bits") / "cfg.json"
    path.write_text(text)
    got = cli.load_config(str(path))["potential"]["values"]
    want = json.loads(text)["potential"]["values"]
    assert all(type(v) is float for v in got)
    assert np.array_equal(np.array(got, dtype=float).view(np.uint64), np.array(want, dtype=float).view(np.uint64))


def test_resource_cap_exits_3(tmp_path, capsys):
    # the equilibrium table has 2^40 rows; the eigensolve alone stays at
    # depth 1.  An n_max or grid count of 10^15 asks for 8 PB, past any
    # 64-bit user address space, so its allocation fails at once: exit 3,
    # not the exit 1 of a failed verification
    for argv, cfg in (
        (["equilibrium"], dict(ISING, depth=40)),
        (["pressure", "--n-max", str(10**15)], ISING),
        (["entropy", "--n-max", str(10**15)], ISING),
        (["scan"], dict(ISING, grid={"start": 0.0, "stop": 2.0, "count": 10**15})),
    ):
        assert main([*argv, "--config", write_cfg(tmp_path, cfg)]) == 3, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("resource cap: ") and err.count("\n") == 1, argv[0]


def test_oversize_models_exit_3_before_they_allocate(tmp_path, capsys):
    # each of these once raised MemoryError: a 10^12-weight space, a
    # 200,000-node rule (leggauss solves an n x n companion matrix) and the
    # 2^40-value renewal table, which the equilibrium solve still needs
    renewal = {"kind": "renewal", "payoffs": renewal_payoffs(40)}
    for command, space, potential in (
        ("pressure", {"kind": "uniform", "size": 10**12}, {"kind": "constant", "value": 0.5}),
        ("pressure", {"kind": "gauss-legendre", "count": 200_000}, {"kind": "xy"}),
        ("equilibrium", {"kind": "uniform", "size": 2}, renewal),
    ):
        path = write_cfg(tmp_path, {"space": space, "potential": potential})
        assert main([command, "--config", path]) == 3, space
        assert "resource cap: " in capsys.readouterr().err


def test_config_cylinder_cap_applies_before_the_model_is_built(tmp_path, monkeypatch, capsys):
    def refused(n):
        raise AssertionError("the rule was computed past the cap")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refused)
    cfg = {
        "space": {"kind": "gauss-legendre", "count": 20},
        "potential": {"kind": "xy"},
        "cylinder_cap": 100,
    }
    assert main(["pressure", "--config", write_cfg(tmp_path, cfg)]) == 3
    assert "20^2 = 400 cylinders exceeds the cap of 100" in capsys.readouterr().err


def test_scan_needs_no_renewal_table(tmp_path, capsys):
    # the criterion-10 family at K = 200, whose table would hold 2^200
    # values: the scan solves its 199-class quotient, and every point is
    # certified there.  Its first candidate is the transition at beta_c = 0.9
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "renewal", "payoffs": renewal_payoffs(200)},
    }
    path = write_cfg(tmp_path, cfg)
    code, text = run_to_file(tmp_path, ["scan", "--config", path, "--format", "csv"])
    assert code == 0
    rows = [line.split(",") for line in text.splitlines() if line[:1].isdigit()]
    assert len(rows) == 101 and all(row[5] == "1" for row in rows)
    assert scalar_from(text, "n_nonconverged") == 0
    beta, reason = next(l for l in text.splitlines() if l.startswith("# candidate")).split()[2:]
    assert reason == "slope-mismatch" and abs(float(beta) - 0.9) <= 0.02 + 1e-12
    # the word-level commands still build the table, under the cap
    assert main(["equilibrium", "--config", path]) == 3
    assert "resource cap: " in capsys.readouterr().err


def test_numeric_refusal_exits_4(tmp_path, capsys):
    # two iterations leave the residuals far above the tol; the equilibrium
    # construction refuses the unconverged eigendata instead of reporting
    cfg = write_cfg(tmp_path, ISING)
    assert main(["equilibrium", "--config", cfg, "--max-iters", "2"]) == 4
    assert "numeric failure: non-converged input refused" in capsys.readouterr().err


def test_config_cylinder_cap_holds_for_one_run(tmp_path, capsys):
    capped = dict(CONST)
    capped["cylinder_cap"] = 5
    assert main(["pressure", "--config", write_cfg(tmp_path, capped, "capped.json")]) == 0
    deep = dict(ISING)
    deep["depth"] = 4  # a table of 2^4 = 16 cylinders, over the previous run's cap
    assert main(["equilibrium", "--config", write_cfg(tmp_path, deep, "deep.json")]) == 0
    assert ro.cylinder_cap() == ro.config.DEFAULT_CYLINDER_CAP
    capsys.readouterr()


def test_inconsistent_configs_exit_2_before_any_solve(tmp_path, capsys):
    # a depth-3 potential needs depth 2 or more; each command refuses depth 1 as a config error
    values = np.random.default_rng(8).uniform(-1.0, 1.0, 8).tolist()
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "table", "depth": 3, "values": values},
        "depth": 1,
    }
    path = write_cfg(tmp_path, cfg)
    for command in cli.COMMANDS:
        assert main([command, "--config", path]) == 2, command
        assert "config error: 'depth' must be at least 2" in capsys.readouterr().err, command
    cfg["depth"] = 2
    path = write_cfg(tmp_path, cfg, "ok.json")
    # the gap at n = n_max needs mu at depth n_max + 1 >= 3
    assert main(["entropy", "--config", path, "--n-max", "1"]) == 2
    assert main(["entropy", "--config", path, "--n-max", "2", "--out", str(tmp_path / "e.txt")]) == 0
    for grid in ({"start": 1.0, "stop": 1.0}, {"start": 2.0, "stop": 0.0}, {"start": 0.0, "stop": math.inf}):
        path = write_cfg(tmp_path, dict(cfg, grid=grid), "grid.json")
        assert main(["scan", "--config", path]) == 2, grid
    assert main(["pressure", "--config", path, "--beta", "nan"]) == 2
    capsys.readouterr()


def test_a_value_error_in_the_solver_is_a_numeric_failure(tmp_path, monkeypatch, capsys):
    # config faults are raised as ConfigErrors while the run is assembled; a
    # ValueError from the numerics is no config fault
    def fail(*args, **kwargs):
        raise ValueError("solver fault")

    monkeypatch.setattr(ro.spectral, "power_iterate", fail)
    assert main(["spectral", "--config", write_cfg(tmp_path, ISING)]) == 4
    assert "numeric failure: solver fault" in capsys.readouterr().err


def test_eigendata_are_solved_at_the_canonical_depth(tmp_path, monkeypatch):
    # Ising is a depth-2 potential: whatever the working depth, its eigendata
    # live on the first symbol, and no command solves a deeper kernel for them
    depths = []
    solve = ro.spectral.power_iterate

    def spy(kernel, **kwargs):
        depths.append(kernel.depth)
        return solve(kernel, **kwargs)

    monkeypatch.setattr(ro.spectral, "power_iterate", spy)
    path = write_cfg(tmp_path, dict(ISING, depth=8))
    for command in ("spectral", "equilibrium", "entropy", "verify"):
        depths.clear()
        code, text = run_to_file(tmp_path, [command, "--config", path], f"{command}.txt")
        assert code == 0, command
        assert depths == [1], command
    assert ALL_PASSED in text


def test_verify_builds_one_kernel_per_depth(tmp_path, monkeypatch):
    # eigendata, the pressure bracket and the negative controls: one kernel
    # each, all at the eigendata's depth max(k-1, 1)
    builds = []
    build = ro.transfer.build_kernel

    def spy(f, depth):
        builds.append(depth)
        return build(f, depth)

    for module in (cli, ro.measures, ro.spectral, ro.transfer):
        monkeypatch.setattr(module, "build_kernel", spy, raising=False)
    values = np.random.default_rng(11).uniform(-1.0, 1.0, 8)
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "table", "depth": 3, "values": values.tolist()},
    }
    code, text = run_to_file(tmp_path, ["verify", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    assert ALL_PASSED in text
    assert builds == [2, 2, 2], builds


def test_eigensolver_failure_exits_4(tmp_path, monkeypatch, capsys):
    # LinAlgError is a ValueError, but it is a numeric failure, not a config
    # fault; the Ising scan below takes its roots from the lumped quotients
    def fail(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(scan, "_lumped_roots", fail)
    cfg = dict(ISING)
    cfg["grid"] = {"start": 0.0, "stop": 1.0, "count": 3}
    assert main(["scan", "--config", write_cfg(tmp_path, cfg)]) == 4
    assert "numeric failure" in capsys.readouterr().err


def test_module_and_console_entry_points(tmp_path):
    cfg = write_cfg(tmp_path, CONST)
    proc = subprocess.run(
        [sys.executable, "-m", "ruelleop.cli", "pressure", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "estimate" in proc.stdout
    # what an installer's `ruelleop` launcher runs: the declared target,
    # called with no argv so that main() reads sys.argv
    spec = console_script_spec("ruelleop")
    launcher = f"import pkgutil, sys; sys.exit(pkgutil.resolve_name({spec!r})())"
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "pressure", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "estimate" in proc.stdout
    exe = shutil.which("ruelleop")
    if exe is not None:
        proc = subprocess.run(
            [exe, "pressure", "--config", cfg], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "estimate" in proc.stdout


def test_public_names_resolve():
    assert len(set(ro.__all__)) == len(ro.__all__)
    assert [name for name in ro.__all__ if not hasattr(ro, name)] == []
    namespace = {}
    exec("from ruelleop import *", namespace)
    assert set(ro.__all__) <= set(namespace)

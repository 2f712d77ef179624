import hashlib
import importlib.metadata
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ruelleop as ro
from ruelleop import cli
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
    head = -math.log(1.0 / sum(j**-2.7 for j in range(1, 400_000))) / 0.9
    payoffs = [-head] + [-3.0 * math.log((j + 1) / j) for j in range(1, 11)] + [0.0]
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "renewal", "payoffs": payoffs},
    }
    path = write_cfg(tmp_path, cfg)
    code, text = run_to_file(tmp_path, ["scan", "--config", path, "--format", "csv"])
    assert code == 0
    assert text == (GOLDEN / "renewal12-scan.csv").read_text()


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
    for check in ("eigenmeasure-fixed-point", "adjoint-intertwine"):
        assert check_line(text, check).startswith("ok "), check
    for control in ("negative-control-eigenmeasure", "negative-control-perturbed"):
        assert check_line(text, control).endswith(" bound=0"), control
    assert code == 0 and "# 15 of 15 checks passed" in text
    # J=3, h=0.5: nu's defect is 9.07e-4, the perturbed one 7.2e-6, below any fixed 1e-3
    cfg = {"space": {"kind": "uniform", "size": 2}, "potential": {"kind": "ising", "coupling": 3.0, "external_field": 0.5}}
    code, text = run_to_file(tmp_path, ["verify", "--config", write_cfg(tmp_path, cfg, "j3.json")], "j3.txt")
    assert code == 0 and "# 15 of 15 checks passed" in text


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
    assert "# 15 of 15 checks passed" in text


def header_potential(text):
    line = next(l for l in text.splitlines() if l.startswith("# potential "))
    return json.loads(line[len("# potential "):])


def test_table_header_echoes_a_digest_instead_of_the_values(tmp_path):
    values = np.random.default_rng(9).uniform(-1.0, 1.0, 16)
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "table", "depth": 4, "values": values.tolist(), "var_bound": 0.0},
    }
    code, text = run_to_file(tmp_path, ["pressure", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    echo = header_potential(text)
    digest = hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()
    assert echo == {"count": 16, "depth": 4, "kind": "table", "sha256": digest, "var_bound": 0.0}
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
    assert "# 15 of 15 checks passed" in text


def test_verify_passes_on_a_constant_near_the_top_of_double_range(tmp_path):
    # lam = exp(700) is about 1e304: finite, but its unshifted adjoint products overflow
    cfg = {"space": {"kind": "uniform", "size": 2}, "potential": {"kind": "constant", "value": 700}}
    code, text = run_to_file(tmp_path, ["verify", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    assert "# 15 of 15 checks passed" in text


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
    assert "# 15 of 15 checks passed" in text
    line = next(l for l in text.splitlines() if " bracket-contains-pressure " in l)
    assert "value=0 " in line


def test_adjoint_intertwine_holds_on_a_strongly_coupled_ising_model(tmp_path):
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "ising", "coupling": 400.0, "external_field": 0.3},
    }
    _, text = run_to_file(tmp_path, ["verify", "--config", write_cfg(tmp_path, cfg)])
    line = next(l for l in text.splitlines() if " adjoint-intertwine " in l)
    assert line.startswith("ok "), line
    assert math.isfinite(float(line.split("value=")[1].split()[0]))


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 16,384 words: large enough that a BLAS dot product splits its sum by thread
    values = np.random.default_rng(3).uniform(-1.0, 1.0, 2**15)
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "table", "depth": 15, "values": values.tolist()},
    }
    path = write_cfg(tmp_path, cfg)
    pythonpath = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    for argv in (["spectral"], ["entropy", "--n-max", "14"]):
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
            proc = subprocess.run(
                [sys.executable, "-m", "ruelleop.cli", *argv, "--config", path, "--format", "csv"],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv[0]


def test_scan_does_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call, about 20 ms of a scan
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "renewal", "payoffs": [-1.5, -1.0, -0.25, 0.0]},
    }
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "scan.txt")
    script = (
        "import sys\n"
        "from ruelleop.cli import main\n"
        f"print(main(['scan', '--config', {path!r}, '--out', {out!r}]), 'numpy.ma' in sys.modules)"
    )
    pythonpath = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_flags_override_config(tmp_path):
    cfg = write_cfg(tmp_path, CONST)
    code, text = run_to_file(tmp_path, ["pressure", "--config", cfg, "--beta", "2.0"])
    assert code == 0
    assert abs(scalar_from(text, "estimate") - 1.4) < 1e-12
    code, text = run_to_file(tmp_path, ["spectral", "--config", cfg, "--depth", "3"])
    assert code == 0
    assert "depth=3" in text


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


def test_resource_cap_exits_3(tmp_path, capsys):
    # the equilibrium table has 2^40 rows; the eigensolve alone stays at depth 1
    cfg = dict(ISING)
    cfg["depth"] = 40
    path = write_cfg(tmp_path, cfg)
    assert main(["equilibrium", "--config", path]) == 3
    capsys.readouterr()


def test_numeric_refusal_exits_4(tmp_path, capsys):
    # tol 1.0 stops the power iteration immediately; the equilibrium
    # construction refuses the uncertified eigendata instead of reporting
    cfg = write_cfg(tmp_path, ISING)
    assert main(["equilibrium", "--config", cfg, "--tol", "1.0"]) == 4
    capsys.readouterr()


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
    assert "# 15 of 15 checks passed" in text


def test_verify_builds_one_kernel_per_depth(tmp_path, monkeypatch):
    # eigendata, the pressure bracket, the eigenmeasure check with its controls
    # and the intertwine check over all its words: one kernel each
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
    assert "# 15 of 15 checks passed" in text
    assert len(builds) <= 4, builds


def test_eigensolver_failure_exits_4(tmp_path, monkeypatch, capsys):
    # LinAlgError is a ValueError, but it is a numeric failure, not a config fault
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
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

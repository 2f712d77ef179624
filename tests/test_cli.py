import hashlib
import importlib.metadata
import json
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
    sd = ro.perron_eigendata(f, 2)
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


def test_verify_residuals_are_relative_to_lam(tmp_path):
    # lam is about 7e12 here; absolute residuals of 3.4 are 5e-13 relative
    cfg = {
        "space": {"kind": "uniform", "size": 2},
        "potential": {"kind": "ising", "coupling": 30.0, "external_field": 0.3},
        "depth": 3,
    }
    _, text = run_to_file(tmp_path, ["verify", "--config", write_cfg(tmp_path, cfg)])
    for check in ("eigenmeasure-fixed-point", "adjoint-intertwine"):
        line = next(l for l in text.splitlines() if f" {check} " in l)
        assert line.startswith("ok "), line


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
    capsys.readouterr()


def test_resource_cap_exits_3(tmp_path, capsys):
    cfg = dict(ISING)
    cfg["depth"] = 40
    path = write_cfg(tmp_path, cfg)
    assert main(["spectral", "--config", path]) == 3
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
    deep["depth"] = 4  # 2^4 = 16 cylinders, over the previous run's cap
    assert main(["spectral", "--config", write_cfg(tmp_path, deep, "deep.json")]) == 0
    assert ro.cylinder_cap() == ro.config.DEFAULT_CYLINDER_CAP
    capsys.readouterr()


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

"""The benchmark's own checks: exact counts repeat, untraced runs are unwrapped."""

import os

from perfbench import oracle, run, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _runner(tmp_path, seed):
    commands = workloads.write("ising-small", seed, str(tmp_path / "configs"))
    return run.Runner(ROOT, str(tmp_path / "passes"), commands)


def _failed_checks(result, runner):
    total = 0
    for c in runner.commands:
        if c["command"] == "verify":
            with open(os.path.join(result["pass_dir"], c["key"] + ".txt"), encoding="utf-8") as fh:
                total += oracle.verify_fails(fh.read())
    return total


def test_traced_counts_repeat_for_a_seed(tmp_path):
    runner = _runner(tmp_path, seed=3)
    first = runner.run(runner.commands, trace=True)
    second = runner.run(runner.commands, trace=True)
    assert first["counts"]["spectral.iterations"] > 0
    assert first["counts"]["transfer.matvec.calls"] > 0
    assert first["counts"] == second["counts"]
    assert _failed_checks(first, runner) == _failed_checks(second, runner)


def test_untraced_pass_runs_without_wrappers(tmp_path):
    runner = _runner(tmp_path, seed=3)
    plain = runner.run(runner.commands, trace=False)
    traced = runner.run(runner.commands, trace=True)
    assert plain["wrapped"] == 0
    assert "counts" not in plain
    assert traced["wrapped"] > 0

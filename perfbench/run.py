"""Benchmark of the ruelleop command line: end-to-end and per-layer metrics.

Run from the repository root (the package is imported from ``src/``):

    python3 -m perfbench.run --workload NAME --seed N --seconds S --trace 0|1

NAME is ``renewal-scan`` or ``table-battery`` (the workloads of
``BENCHMARK.json``), or ``xy-wide`` or ``ising-small`` (see
``perfbench/workloads.py``).  The run writes the workload's configs from
the seed, then:

1. runs passes for S seconds, closed loop, each in a fresh interpreter
   (``perfbench/worker.py``) that calls ``ruelleop.cli.main(argv)`` on
   every command of the workload.  With ``--trace 1`` untraced and
   traced passes alternate; the traced ones wrap every layer
   (``perfbench/tracing.py``);
2. before each of the first ``SETUP_PROBES`` passes, starts a fresh
   interpreter that only imports ``ruelleop.cli``, for the set-up time
   (every pass's own import is a set-up sample too);
3. checks every report against ``perfbench/oracle.py`` and checks that
   each command's report is byte-identical in every pass.  This runs
   after the last pass, outside every timed region.

It prints the machine facts, every metric by name and unit, and as its
last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.  A command fails when it exits 2, 3
or 4, raises, writes a report that differs from its other repetitions
or fails the oracle; ``verify`` exiting 1 is a completed command whose
FAIL lines ``verify.failed_checks`` counts.

End-to-end (medians over the passes or interpreters of one run):
``wall_s`` one full pass; ``setup_s`` ``import ruelleop.cli`` in a fresh
interpreter; ``peak_rss_mb`` peak RSS of a pass's process; ``ok_frac``
commands that did not fail over commands attempted.

Per-layer (medians over traced passes; counts are exact and must repeat
in every traced pass): see ``tracing.layer_metrics``, plus per-command
wall times of the untraced passes (``cmd.*_s``), the traced pass wall
time and the tracing overhead (traced minus untraced median wall time).

Every worker interpreter runs with one BLAS/OpenMP thread.  Scratch files go
to ``.perfbench/`` under the repository root and are removed at exit,
except, with ``--trace 1``, the spans of the first traced pass
(``.perfbench/spans-WORKLOAD-seedN.jsonl``).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

from perfbench import oracle, workloads

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150

COMMANDS = workloads.SINGLE_MODEL + ("scan",)
FAILED_EXITS = (2, 3, 4)

COUNT_UNITS = {"transfer.bytes_computed": "bytes", "transfer.flops_computed": "flop"}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark itself could not run (not a failed command)."""


def machine_facts(backend):
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        fields = []
        for f in ("level", "type", "size"):
            try:
                with open(os.path.join(base, index, f), encoding="utf-8") as fh:
                    fields.append(fh.read().strip())
            except OSError:
                break
        else:
            caches[f"L{fields[0]} {fields[1]}"] = fields[2]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": has_numba,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "backend": backend,
    }


class Runner:
    """Starts worker interpreters for one workload and keeps their results."""

    def __init__(self, root, workdir, commands):
        self.root = root
        self.workdir = workdir
        self.commands = commands
        self.env = dict(os.environ, **THREAD_ENV)
        self.count = 0

    def run(self, commands, trace):
        self.count += 1
        pass_dir = os.path.join(self.workdir, f"pass{self.count:03d}")
        os.makedirs(pass_dir)
        spec_path = os.path.join(pass_dir, "spec.json")
        result_path = os.path.join(pass_dir, "result.json")
        spec = {
            "src": os.path.join(self.root, "src"),
            "pass_dir": pass_dir,
            "commands": [{"key": c["key"], "argv": c["argv"]} for c in commands],
            "trace": trace,
        }
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", spec_path, result_path],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["pass_dir"] = pass_dir
        result["traced"] = trace
        return result


def run_passes(runner, seconds, trace):
    """(set-up probes, passes) for ``seconds``: at least two passes, one traced when tracing.

    A probe precedes each of the first ``SETUP_PROBES`` passes, so the
    set-up samples spread over the run like the passes do.
    """
    probes, passes = [], []
    start = time.perf_counter()
    while True:
        if len(probes) < SETUP_PROBES:
            probes.append(runner.run([], False))
        traced = trace and len(passes) % 2 == 1
        passes.append(runner.run(runner.commands, traced))
        if len(passes) >= 2 and time.perf_counter() - start >= seconds:
            return probes, passes


def check_reports(commands, passes):
    """(failed commands over all passes, problems found, first-pass reports).

    The oracle checks the first pass's report of each command; every
    other pass's report must be byte-identical to it.
    """
    problems = []
    failed = 0
    models = {}
    texts = {}
    for c in commands:
        key = c["key"]
        reports = []
        for p in passes:
            record = next(r for r in p["commands"] if r["key"] == key)
            data = None
            if record["raised"] is None and record["code"] not in FAILED_EXITS:
                with open(os.path.join(p["pass_dir"], key + ".txt"), "rb") as fh:
                    data = fh.read()
            reports.append((record, data))
        first_record, first_data = reports[0]
        problem = None
        if first_data is not None:
            texts[key] = first_data.decode("utf-8")
            model = models.setdefault(c["label"], oracle.Model(c["config"]))
            problem = oracle.check(c["command"], model, texts[key], first_record["code"])
            if problem:
                problems.append(f"{key}: {problem}")
        for i, (record, data) in enumerate(reports):
            if record["raised"] is not None:
                problems.append(f"{key} pass {i}: raised {record['raised']}")
                failed += 1
            elif record["code"] in FAILED_EXITS:
                failed += 1
            elif data != first_data:
                problems.append(f"{key} pass {i}: report differs from pass 0")
                failed += 1
            elif problem is not None:
                failed += 1
    scans = {c["label"]: texts[c["key"]] for c in commands if c["key"] in texts and c["command"] == "scan"}
    if scans:
        problem = oracle.check_kinks(scans)
        if problem:
            problems.append(problem)
    return failed, problems, texts


def end_to_end_metrics(setup, untraced, attempted, failed):
    return {
        "wall_s": statistics.median([p["wall_s"] for p in untraced]),
        "setup_s": statistics.median([r["import_s"] for r in setup]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in untraced]),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer_metrics(commands, untraced, traced, texts):
    """Per-layer metrics and the problems found (counts that do not repeat)."""
    problems = []
    counts = traced[0]["counts"]
    for p in traced[1:]:
        if p["counts"] != counts:
            problems.append("exact counts differ between traced passes")
    metrics = {}
    for name in traced[0]["timings"]:
        metrics[name] = (statistics.median([p["timings"][name] for p in traced]), "s")
    for name, value in counts.items():
        metrics[name] = (value, COUNT_UNITS.get(name, "count"))
    by_key = {c["key"]: c["command"] for c in commands}
    for command in COMMANDS:
        per_pass = [
            sum((r["seconds"] for r in p["commands"] if by_key[r["key"]] == command), 0.0)
            for p in untraced
        ]
        metrics[f"cmd.{command}_s"] = (statistics.median(per_pass), "s")
    metrics["cli.report_bytes"] = (sum(len(t.encode("utf-8")) for t in texts.values()), "bytes")
    metrics["verify.failed_checks"] = (
        sum(oracle.verify_fails(t) for k, t in texts.items() if by_key[k] == "verify"),
        "count",
    )
    traced_wall = statistics.median([p["wall_s"] for p in traced])
    metrics["trace.wall_s"] = (traced_wall, "s")
    untraced_wall = statistics.median([p["wall_s"] for p in untraced])
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ruelleop", "cli.py")):
        print("perfbench: no src/ruelleop here; run from the repository root", file=sys.stderr)
        return 2

    workdir = os.path.join(root, ".perfbench", f"{args.workload}-{os.getpid()}")
    try:
        commands = workloads.write(args.workload, args.seed, os.path.join(workdir, "configs"))
        runner = Runner(root, workdir, commands)
        setup, passes = run_passes(runner, args.seconds, bool(args.trace))
        failed, problems, texts = check_reports(commands, passes)
        if args.trace:
            spans_path = os.path.join(
                root, ".perfbench", f"spans-{args.workload}-seed{args.seed}.jsonl"
            )
            first = next(p for p in passes if p["traced"])
            shutil.copyfile(os.path.join(first["pass_dir"], "spans.jsonl"), spans_path)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = len(commands) * len(passes)
    setup_all = setup + passes
    if args.trace:
        metrics, count_problems = per_layer_metrics(commands, untraced, traced, texts)
        problems += count_problems
    else:
        metrics = {
            k: (v, END_TO_END[k])
            for k, v in end_to_end_metrics(setup_all, untraced, attempted, failed).items()
        }

    backend_lines = (
        line for t in texts.values() for line in t.splitlines() if line.startswith("# backend ")
    )
    backend = next(backend_lines, "# backend not reported").split(" ", 2)[2]
    facts = machine_facts(backend)
    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    print(
        f"# workload {args.workload} seed {args.seed}: {len(passes)} passes "
        f"({len(traced)} traced), {attempted} commands, {failed} failed"
    )
    if args.trace:
        print(f"# spans of the first traced pass: {os.path.relpath(spans_path, root)}")
    for problem in problems:
        print(f"# check {problem}")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name.ljust(width)}  {value!r} {unit}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

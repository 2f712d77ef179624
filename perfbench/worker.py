"""One pass of a workload in a fresh interpreter.

    python3 -m perfbench.worker SPEC RESULT

SPEC is a JSON file with ``src`` (the checkout's ``src`` directory),
``pass_dir`` (where reports go), ``commands`` (from ``workloads.write``)
and ``trace`` (bool).  The worker imports ``ruelleop.cli`` from
``src``, timing the import; optionally installs the tracer; runs every
command through ``ruelleop.cli.main(argv)`` with ``--out`` pointing into
``pass_dir``; and writes RESULT: per-command exit code and wall time,
the import time, peak RSS, the number of wrappers found bound in the
ruelleop namespaces, and, when traced, the per-layer figures.  Spans go
to ``spans.jsonl`` in ``pass_dir`` after the last command.
"""

import json
import os
import resource
import sys
import time


def peak_rss_mb():
    """Peak resident set of this process's own address space, in MiB.

    ``VmHWM`` is reset by exec; ``ru_maxrss`` is not, so on Linux it
    would report the parent's resident set whenever that is larger.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = spec["src"]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import ruelleop.cli

    import_s = time.perf_counter() - t0
    origin = os.path.dirname(os.path.abspath(ruelleop.__file__))
    if origin != os.path.join(os.path.abspath(src), "ruelleop"):
        raise SystemExit(f"imported ruelleop from {origin}, not from {src}")

    from perfbench import tracing

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()

    commands = []
    pass_start = time.perf_counter()
    for cmd in spec["commands"]:
        out = os.path.join(spec["pass_dir"], cmd["key"] + ".txt")
        argv = cmd["argv"] + ["--out", out]
        raised = None
        t = time.perf_counter()
        try:
            code = ruelleop.cli.main(argv)
        except Exception as exc:  # a raise is a failed command, not a crashed benchmark
            code = None
            raised = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t
        commands.append({"key": cmd["key"], "code": code, "seconds": seconds, "raised": raised})
    wall_s = time.perf_counter() - pass_start
    wrapped = tracing.count_wrapped()

    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "commands": commands,
        "peak_rss_mb": peak_rss_mb(),
        "wrapped": wrapped,
    }
    if tracer is not None:
        tracer.uninstall()
        timings, counts = tracing.layer_metrics(tracer.spans)
        result["timings"] = timings
        result["counts"] = counts
        tracer.dump(os.path.join(spec["pass_dir"], "spans.jsonl"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

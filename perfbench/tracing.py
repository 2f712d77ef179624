"""Run-time spans around the public calls of each ruelleop layer.

``install()`` wraps every public function of the traced modules, and
every public method of the classes they define (plus ``__post_init__``,
so that building a ``Potential`` or a measure is a span), then rebinds each
wrapper in every ``ruelleop`` module namespace that holds the original
object: ``build_kernel`` is bound by name in ``spectral``, ``measures``
and ``scan``, ``perron_eigendata`` and ``pressure_curve`` in ``cli``,
and most names again in the package ``__init__``.  Nothing under
``src/`` is edited.  ``uninstall()`` puts every original back.

Spans are kept in memory: one ``Span`` per call with its name, parent,
start and end, plus counts read from the arguments and the result.
``layer_metrics`` turns them into the per-layer figures; ``dump`` writes
them out as JSON lines once the pass is over.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "potential", "transfer", "spectral", "measures", "scan")

# set on every wrapper, so a namespace scan can tell wrapped from original
MARKER = "__perfbench_traced__"

PRODUCTS = (
    "transfer.TransferKernel.matvec",
    "transfer.TransferKernel.tmatvec",
    "transfer.TransferKernel.log_matvec",
)

FLOAT_BYTES = 8


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _product_counts(args, result):
    """Computed work of one sparse product, from array sizes.

    Every nonzero is touched once: two flops each (multiply and add,
    or add and exp-accumulate in the log domain).  Bytes are the
    minimal traffic: input and output vectors plus one weight per
    potential table entry.
    """
    kernel = args[0]
    return {
        "flops": 2 * kernel.nnz,
        "bytes": FLOAT_BYTES * (2 * kernel.size + kernel.potential.table.size),
    }


def _power_counts(args, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _measure_counts(args, result):
    return {"cylinders": int(result.weights.size)}


COUNTERS = {
    **{name: _product_counts for name in PRODUCTS},
    "spectral.power_iterate": _power_counts,
    "measures.extend_equilibrium": _measure_counts,
    "measures.extend_eigenmeasure": _measure_counts,
}


class Tracer:
    """Wraps the layers of an imported ruelleop and records spans.

    Spans nest by call order on one stack: every workload runs its
    commands on one thread (none sets ``--threads``).
    """

    def __init__(self):
        self.spans = []
        self._stack = []  # ids of the open spans
        self._restore = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, 0.0)
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        setattr(traced, MARKER, True)
        return traced

    def install(self):
        """Wrap every traced layer and rebind the wrappers everywhere."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        replaced = {}  # id(original) -> (original, wrapper), for functions
        for layer in LAYERS:
            mod = importlib.import_module(f"ruelleop.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn) or (
                            meth.startswith("_") and meth != "__post_init__"
                        ):
                            continue
                        wrapper = self._wrap(f"{layer}.{attr}.{meth}", fn)
                        self._restore.append((obj, meth, fn))
                        setattr(obj, meth, wrapper)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ruelleop" or modname.startswith("ruelleop.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path):
        """Write the spans as JSON lines (id, parent, name, start, end, counts)."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": s.parent,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "counts": s.counts,
                        }
                    )
                    + "\n"
                )


def count_wrapped():
    """Number of traced wrappers bound anywhere in the ruelleop namespaces."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "ruelleop" or modname.startswith("ruelleop.")):
            continue
        for obj in vars(mod).values():
            if getattr(obj, MARKER, False):
                hits += 1
            elif inspect.isclass(obj) and obj.__module__ == modname:
                hits += sum(1 for fn in vars(obj).values() if getattr(fn, MARKER, False))
    return hits


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _outermost_total(spans, names):
    """Summed duration of spans in ``names`` not nested inside another of them."""
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            total += s.duration
    return total


def _inside(spans, span, name):
    p = span.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans):
    """Per-layer figures of one traced pass: (timings, exact counts)."""
    own = self_times(spans)

    def by(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum((s.duration for s in by(name)), 0.0)

    def self_total(name):
        return sum((own[i] for i, s in enumerate(spans) if s.name == name), 0.0)

    def names_in(layer):
        return {s.name for s in spans if s.name.startswith(layer + ".")}

    power = by("spectral.power_iterate")
    scan_power = [s for s in power if _inside(spans, s, "scan.pressure_curve")]
    measures_names = names_in("measures")
    timings = {
        "transfer.matvec_s": total("transfer.TransferKernel.matvec"),
        "transfer.tmatvec_s": total("transfer.TransferKernel.tmatvec"),
        "transfer.log_matvec_s": total("transfer.TransferKernel.log_matvec"),
        "transfer.build_kernel_s": total("transfer.build_kernel"),
        "spectral.power_iterate_self_s": self_total("spectral.power_iterate"),
        "spectral.perron_eigendata_self_s": self_total("spectral.perron_eigendata"),
        "spectral.pressure_bracket_self_s": self_total("spectral.pressure_bracket"),
        "measures.extend_s": _outermost_total(
            spans, {"measures.extend_equilibrium", "measures.extend_eigenmeasure"}
        ),
        "measures.checks_s": _outermost_total(
            spans,
            {
                "measures.check_eigenmeasure",
                "measures.check_invariance",
                "measures.check_intertwine",
                "measures.invariance_defect",
            },
        ),
        "measures.entropy_s": _outermost_total(
            spans,
            {n for n in measures_names if "entropy" in n or n == "measures.variational_gap"},
        ),
        "cli.load_config_s": total("cli.load_config"),
        "cli.assemble_s": total("cli.assemble"),
        "cli.render_s": sum(
            own[i] for i, s in enumerate(spans) if s.name.startswith("cli.cmd_")
        ),
        "potential.build_s": _outermost_total(spans, names_in("potential")),
        "scan.pressure_curve_self_s": self_total("scan.pressure_curve"),
    }
    products = [s for s in spans if s.name in PRODUCTS]
    counts = {
        "transfer.matvec.calls": len(by("transfer.TransferKernel.matvec")),
        "transfer.tmatvec.calls": len(by("transfer.TransferKernel.tmatvec")),
        "transfer.log_matvec.calls": len(by("transfer.TransferKernel.log_matvec")),
        "transfer.bytes_computed": sum(s.counts.get("bytes", 0) for s in products),
        "transfer.flops_computed": sum(s.counts.get("flops", 0) for s in products),
        "transfer.build_kernel.calls": len(by("transfer.build_kernel")),
        "spectral.power_iterate.calls": len(power),
        "spectral.iterations": sum(s.counts.get("iterations", 0) for s in power),
        "spectral.nonconverged": sum(
            1 for s in power if s.counts and not s.counts["converged"]
        ),
        "measures.cylinders": sum(
            s.counts.get("cylinders", 0)
            for s in spans
            if s.name in ("measures.extend_equilibrium", "measures.extend_eigenmeasure")
        ),
        "scan.points": len(scan_power),
        "scan.iterations_per_point_max": max(
            (s.counts.get("iterations", 0) for s in scan_power), default=0
        ),
    }
    return timings, counts

"""The benchmark workloads, generated from the seed argument.

Each workload is a list of models (a JSON config each) and the CLI
commands run on every model.  One pass runs every command once, in
order, closed loop, in one fresh interpreter.  ``threads`` and
``cylinder_cap`` are never set, so every command runs single-threaded
under the default cap.

``BENCHMARK.json`` names ``renewal-scan`` and ``table-battery``: between
them they reach every layer (the scan, log-domain products, the
measures, 32k-row reports).  ``xy-wide`` and ``ising-small`` still run
by name.  They are left out of ``BENCHMARK.json`` so that the other two
can run longer within the benchmark's time limit: on a shared 2-vCPU
host, the medians of 50-s windows of passes drift by about 20% over
minutes, and longer runs average more of that drift.

Workloads and why each is here:

* ``renewal-scan``: ``scan`` on the renewal potential of acceptance
  criterion 10 at truncations 12 and 14 over the 101-point grid
  [0, 2].  The eigensolver loop (power iteration, forward and adjoint
  products) does nearly all the work; the kernel is exactly lumpable.
  The seed is unused.
* ``table-battery``: a random depth-16 table potential (values uniform
  in [-1, 1]) at working depth 15, 32,768 words.  No lumping reduces
  it; ``pressure --n-max 400`` takes the log-domain path and the
  reports have 32k rows.  The table is drawn once, from generator seed
  ``TABLE_SEED``: random tables differ widely in spectral gap
  (|lam2|/lam1 from 0.82 to 0.99 over seeds 100-109, 140 to 5,207 power
  iterations), so a table drawn from the run's seed would change the
  work of a pass 14-fold from seed to seed.  The run's seed goes to
  the config's ``seed``, which draws verify's perturbation controls.
* ``xy-wide``: the rotor potential on 400 Gauss-Legendre nodes, J=8,
  depth 1.  The per-symbol loop of the products dominates.  The seed
  is unused.
* ``ising-small``: Ising at working depth 8, J=1 h=0.3 plus seeded
  (J, h) pairs.  Per-call set-up and the measures layer dominate.
"""

import json
import math
import os

import numpy as np

NAMES = ("renewal-scan", "table-battery", "xy-wide", "ising-small")

SINGLE_MODEL = ("pressure", "spectral", "equilibrium", "entropy", "verify")

# seeded Ising pairs added to the fixed J=1, h=0.3 model
ISING_EXTRA_MODELS = 4

TABLE_SEED = 0


def renewal_payoffs(trunc):
    """Payoffs of the criterion-10 renewal family at a truncation."""
    head = -math.log(1.0 / sum(j**-2.7 for j in range(1, 400_000))) / 0.9
    payoffs = [-head]
    payoffs.extend(-3.0 * math.log((j + 1) / j) for j in range(1, trunc - 1))
    payoffs.append(0.0)
    return payoffs


def _models(name, seed):
    """(label, config, [(command, extra flags)]) for every model of a workload."""
    if name == "renewal-scan":
        return [
            (
                f"renewal{trunc}",
                {
                    "space": {"kind": "uniform", "size": 2},
                    "potential": {"kind": "renewal", "payoffs": renewal_payoffs(trunc)},
                },
                [("scan", [])],
            )
            for trunc in (12, 14)
        ]
    if name == "table-battery":
        values = np.random.default_rng(TABLE_SEED).uniform(-1.0, 1.0, 2**16)
        cfg = {
            "space": {"kind": "uniform", "size": 2},
            "potential": {"kind": "table", "depth": 16, "values": values.tolist()},
            "seed": seed,
        }
        flags = {"pressure": ["--n-max", "400"], "entropy": ["--n-max", "16"]}
        return [("table16", cfg, [(c, flags.get(c, [])) for c in SINGLE_MODEL])]
    if name == "xy-wide":
        cfg = {
            "space": {"kind": "gauss-legendre", "count": 400},
            "potential": {"kind": "xy", "coupling": 8.0},
        }
        flags = {"pressure": ["--n-max", "100"], "entropy": ["--n-max", "1"]}
        return [("xy400", cfg, [(c, flags.get(c, [])) for c in SINGLE_MODEL])]
    if name == "ising-small":
        rng = np.random.default_rng(seed)
        pairs = [(1.0, 0.3)]
        pairs += [
            (float(j), float(h))
            for j, h in zip(
                rng.uniform(0.2, 2.0, ISING_EXTRA_MODELS),
                rng.uniform(-1.0, 1.0, ISING_EXTRA_MODELS),
            )
        ]
        flags = {"entropy": ["--n-max", "18"]}
        return [
            (
                f"ising{i}",
                {
                    "space": {"kind": "uniform", "size": 2},
                    "potential": {"kind": "ising", "coupling": j, "external_field": h},
                    "depth": 8,
                },
                [(c, flags.get(c, [])) for c in SINGLE_MODEL],
            )
            for i, (j, h) in enumerate(pairs)
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def write(name, seed, workdir):
    """Write the workload's configs under workdir and return its command list.

    Each command is a dict with a unique ``key`` (its report file stem),
    the model ``label``, the ``command`` name, the ``config`` dict and
    ``argv`` for ``ruelleop.cli.main`` without ``--out``.
    """
    os.makedirs(workdir, exist_ok=True)
    commands = []
    for label, cfg, cmds in _models(name, seed):
        path = os.path.join(workdir, f"{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        for command, flags in cmds:
            commands.append(
                {
                    "key": f"{label}-{command}",
                    "label": label,
                    "command": command,
                    "config": cfg,
                    "argv": [command, "--config", path, "--format", "csv", *flags],
                }
            )
    return commands

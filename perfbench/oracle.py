"""Checks of every report against answers that do not use ruelleop.

The oracle rebuilds the symbol weights and the potential table from the
config with numpy alone, assembles the transfer matrix from the
operator's definition

    (L phi)(u) = sum_a w_a * exp(f(a u)) * phi(a u),

and takes its Perron data from LAPACK (dense, small sizes) or ARPACK
(sparse).  Every check parses a report written with ``--format csv``
(17 significant digits); ``verify`` prints 6.
"""

import math

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

DENSE_MAX = 512

LAM_RTOL = 1e-9
VEC_RTOL = 1e-6
GAP_TOL = 1e-8
VERIFY_RTOL = 1e-5  # verify prints 6 significant digits

# acceptance criterion 10: the scan grid [0, 2] has 101 points
KINK_CELL = 0.02
KINK_BETA = 0.90


# ---------------------------------------------------------------------------
# model rebuilt from the config
# ---------------------------------------------------------------------------

def space_weights(cfg):
    """(weights, nodes) of the config's space, as the CLI defines them."""
    kind = cfg["kind"]
    if kind == "uniform":
        n = int(cfg["size"])
        return np.full(n, 1.0 / n), None
    if kind == "gauss-legendre":
        a, b = float(cfg.get("a", 0.0)), float(cfg.get("b", 1.0))
        x, w = np.polynomial.legendre.leggauss(int(cfg["count"]))
        return w / w.sum(), 0.5 * (b - a) * x + 0.5 * (b + a)
    raise ValueError(f"oracle has no space kind {kind!r}")


def potential_table(cfg, nodes):
    """(depth k, table over depth-k words, first symbol most significant)."""
    kind = cfg["kind"]
    if kind == "table":
        return int(cfg["depth"]), np.asarray(cfg["values"], dtype=float)
    if kind == "ising":
        s = np.array([-1.0, 1.0])
        table = cfg["coupling"] * np.outer(s, s) + cfg["external_field"] * s[:, None]
        return 2, table.ravel()
    if kind == "xy":
        table = cfg["coupling"] * np.cos(2.0 * math.pi * np.subtract.outer(nodes, nodes))
        return 2, table.ravel()
    if kind == "renewal":
        # the word 0^j 1 .. pays payoffs[j]; the all-zeros word pays the last
        payoffs = np.asarray(cfg["payoffs"], dtype=float)
        k = len(payoffs)
        zeros = [k - i.bit_length() for i in range(1, 2**k)]
        return k, np.concatenate([payoffs[-1:], payoffs[zeros]])
    raise ValueError(f"oracle has no potential kind {kind!r}")


class Model:
    """One config's weights, table and working depth, with Perron data on demand."""

    def __init__(self, cfg):
        self.weights, nodes = space_weights(cfg["space"])
        self.n = len(self.weights)
        self.k, self.table = potential_table(cfg["potential"], nodes)
        self.d0 = max(self.k - 1, 1)
        self._perron = {}

    def matrix(self, depth, beta=1.0):
        """Sparse transfer matrix on depth-``depth`` words."""
        n, k = self.n, self.k
        size = n**depth
        u = np.arange(size)
        rows, cols, vals = [], [], []
        for a in range(n):
            # f reads a u_1..u_{k-1}; phi reads a u_1..u_{d-1}
            f_au = self.table[a * n ** (k - 1) + u // n ** (depth - k + 1)]
            rows.append(u)
            cols.append(a * n ** (depth - 1) + u // n)
            vals.append(self.weights[a] * np.exp(beta * f_au))
        return scipy.sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(size, size),
        )

    def perron(self, beta=1.0, vectors=True):
        """(lam, h, nu) at the canonical depth: sum(nu) = 1, <h, nu> = 1.

        The Perron root is the same at every working depth.
        """
        key = (beta, vectors)
        if key not in self._perron:
            self._perron[key] = self._solve(beta, vectors)
        return self._perron[key]

    def _solve(self, beta, vectors):
        m = self.matrix(self.d0, beta)
        if m.shape[0] <= DENSE_MAX:
            vals, right = np.linalg.eig(m.toarray())
            i = int(np.argmax(vals.real))
            lam = float(vals[i].real)
            if not vectors:
                return lam, None, None
            lvals, left = np.linalg.eig(m.toarray().T)
            right, left = right[:, i], left[:, int(np.argmax(lvals.real))]
        else:
            vals, right = scipy.sparse.linalg.eigs(m, k=1, which="LR")
            lam = float(vals[0].real)
            if not vectors:
                return lam, None, None
            _, left = scipy.sparse.linalg.eigs(m.T.tocsr(), k=1, which="LR")
            right, left = right[:, 0], left[:, 0]
        # Perron vectors have one phase throughout; the modulus removes it
        h = np.abs(right)
        nu = np.abs(left)
        nu /= nu.sum()
        h /= h @ nu
        return lam, h, nu

    def mu_k(self, lam, h, nu):
        """Equilibrium weights of depth-k words: h(first d0) * w_a e^f(a u) nu(u) / lam."""
        n = self.n
        words = np.arange(n**self.k)
        a, u = words // n ** (self.k - 1), words % n ** (self.k - 1)
        return h[words // n] * self.weights[a] * np.exp(self.table) * nu[u] / lam


# ---------------------------------------------------------------------------
# csv reports
# ---------------------------------------------------------------------------

def parse_csv(text):
    """(scalars, header, rows, candidates) of a ``--format csv`` report."""
    scalars, header, rows, candidates = {}, None, [], []
    for line in text.splitlines():
        if line.startswith("# candidate "):
            beta, reason = line.split()[2:4]
            candidates.append((float(beta), reason))
        elif line.startswith("# "):
            key, _, value = line[2:].partition(" ")
            scalars[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return scalars, header, rows, candidates


def _column(header, rows, name):
    return np.array([float(r[header.index(name)]) for r in rows])


def _close(value, want, rtol, what):
    if not abs(value - want) <= rtol * max(1.0, abs(want)):
        return f"{what} {value!r} differs from the oracle {want!r}"
    return None


def _vec_close(got, want, what):
    if got.shape != want.shape:
        return f"{what} has {got.size} entries, the oracle {want.size}"
    err = float(np.max(np.abs(got - want)))
    if not err <= VEC_RTOL * float(np.max(np.abs(want))):
        return f"{what} deviates from the oracle by {err:.3e}"
    return None


def _first(*problems):
    return next((p for p in problems if p), None)


def check_pressure(model, text):
    lam, _, _ = model.perron(vectors=False)
    p = math.log(lam)
    s, header, rows, _ = parse_csv(text)
    p_inf, p_sup = float(rows[-1][header.index("p_inf")]), float(rows[-1][header.index("p_sup")])
    pad = LAM_RTOL * max(1.0, abs(p))
    if not p_inf - pad <= p <= p_sup + pad:
        return f"bracket [{p_inf!r}, {p_sup!r}] misses the oracle pressure {p!r}"
    est = float(s["estimate"])
    if not p_inf - pad <= est <= p_sup + pad:
        return f"estimate {est!r} outside its own bracket"
    return None


def check_spectral(model, text):
    lam, h, nu = model.perron()
    s, header, rows, _ = parse_csv(text)
    return _first(
        _close(float(s["lam"]), lam, LAM_RTOL, "lam"),
        None if s["converged"] == "1" else "not converged",
        _vec_close(_column(header, rows, "nu"), nu, "nu"),
        _vec_close(_column(header, rows, "h"), h, "h"),
    )


def check_equilibrium(model, text):
    lam, h, nu = model.perron()
    s, header, rows, _ = parse_csv(text)
    mu = _column(header, rows, "mu")
    marginal = mu.reshape(model.n**model.d0, -1).sum(axis=1)
    return _first(
        _close(float(s["lam"]), lam, LAM_RTOL, "lam"),
        _vec_close(marginal, h * nu / (h @ nu), "mu marginal"),
    )


def check_entropy(model, text):
    lam, h, nu = model.perron()
    s, _, _, _ = parse_csv(text)
    integral = float(model.table @ model.mu_k(lam, h, nu))
    gap = float(s["gap"])
    return _first(
        _close(float(s["pressure"]), math.log(lam), LAM_RTOL, "pressure"),
        _close(float(s["integral"]), integral, VEC_RTOL, "integral"),
        None if abs(gap) <= GAP_TOL else f"variational gap {gap!r} is not zero",
    )


def verify_fails(text):
    """Number of FAIL lines in a verify report."""
    return sum(1 for line in text.splitlines() if line.startswith("FAIL "))


def check_verify(model, text, code):
    lines = text.splitlines()
    fails = verify_fails(text)
    checks = sum(1 for line in lines if line.startswith(("ok ", "FAIL ")))
    if code != (1 if fails else 0):
        return f"exit code {code} with {fails} FAIL lines"
    if lines[-1] != f"# {checks - fails} of {checks} checks passed":
        return f"summary {lines[-1]!r} disagrees with {checks} check lines"
    band = next((l for l in lines if l.split()[1:2] == ["eigenvalue-band"]), None)
    if band is not None:
        lam, _, _ = model.perron(vectors=False)
        value = float(band.split("value=")[1].split()[0])
        return _close(value, lam, VERIFY_RTOL, "eigenvalue-band value")
    return None


def check_scan(model, text):
    """Every grid point converged, with lam matching the oracle."""
    s, header, rows, candidates = parse_csv(text)
    if s["n_nonconverged"] != "0" or any(r[header.index("converged")] != "1" for r in rows):
        return "a grid point did not converge"
    betas = _column(header, rows, "beta")
    lams = _column(header, rows, "lam")
    for i in range(len(rows)):
        lam, _, _ = model.perron(beta=betas[i], vectors=False)
        problem = _close(lams[i], lam, LAM_RTOL, f"lam at beta {betas[i]!r}")
        if problem:
            return problem
    return None


def strongest_kink(text):
    """Beta of the first slope-mismatch candidate of a scan report, or None."""
    kinks = [b for b, reason in parse_csv(text)[3] if reason == "slope-mismatch"]
    return kinks[0] if kinks else None


def check_kinks(scans):
    """The strongest kinks of all scans lie within one grid cell of each other and of 0.90."""
    kinks = {label: strongest_kink(text) for label, text in scans.items()}
    if None in kinks.values():
        return f"no slope-mismatch candidate in {sorted(l for l, b in kinks.items() if b is None)}"
    found = kinks.values()
    tol = KINK_CELL + 1e-9
    if max(found) - min(found) > tol or any(abs(b - KINK_BETA) > tol for b in found):
        return f"strongest kinks {kinks} are not within one cell of each other and {KINK_BETA}"
    return None


def check(command, model, text, code):
    """The problem the oracle finds in one command's report, or None."""
    checks = {
        "pressure": check_pressure,
        "spectral": check_spectral,
        "equilibrium": check_equilibrium,
        "entropy": check_entropy,
        "scan": check_scan,
    }
    try:
        if command == "verify":
            return check_verify(model, text, code)
        return checks[command](model, text)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return f"report unreadable by the oracle: {exc!r}"

"""Exact finite-n disk counting statistics for the Mittag-Leffler ensemble.

The ensemble is the 2D determinantal point process with density proportional
to prod |z_k - z_j|^2 prod |z_j|^(2 alpha) exp(-n |z_j|^(2b)).  Rotation
invariance collapses every disk-counting quantity to products over n
independent radial factors: the joint moment generating function of the disk
counts N(D_r1), ..., N(D_rp) is

    E prod_l exp(u_l N(D_rl)) = prod_{j=1}^n (1 + sum_l omega_l P_jl),

where P_jl = P((j+alpha)/b, n r_l^(2b)) is the regularized lower incomplete
gamma function and omega_l are exponential jump weights built from the u's.
Equivalently each particle j lands in annulus l with probability
q_jl = P_jl - P_j,l-1, independently of all others.  The exact cumulants (any
total order up to series.MAX_ORDER) sum the per-row cumulants that
``series.cumulants`` builds from its moments, which are columns of P, and the
sampler draws one uniform U_j per window row and counts particle j in disk l
when U_j < P_jl; everything but the MGF takes the profile at u = 0.

Only an O(sqrt n) window of rows around j ~ b n r_l^(2b) has P_jl away from
0 and 1; every other row is saturated (its prefactor z^a e^-z/Gamma(a) is
below e^-60) and enters each sum in closed form.  ``BernoulliProfile`` is
that window, with its rows of P evaluated on first access, which only the
sampler needs (``bernoulli_profile``).

The log-MGF and the cumulants (means and covariances are orders 1 and 2) sum
their per-row terms with ``_window_sums``, one merged run at a time: by rows,
or, where a run is wide against the scale s on which its terms vary (s = b
sqrt(z) / sqrt(max(order, weight spread, 1)) rows) and the integral is
cheaper, as sum_j f(j) = integral f + (f(A) + f(L))/2 + Gregory's end
differences where row 0 or n - 1 cuts the run.  The summand is analytic in
j, so that Euler-Maclaurin remainder is exponentially small in s (below
1e-18 from s = 3); the integral is composite Gauss-Legendre, checked against
its doubling.  MAX_WINDOW_ROWS bounds only the rows that are summed or
evaluated, so the statistics come back in milliseconds at any n below 2^63.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import series
from .specfun import GL_ORDER, SATURATED_LOG_PREFACTOR, log_prefactor, log_reg_gamma_pq, unit_rule

__all__ = [
    "BernoulliProfile",
    "Disk",
    "DiskSystem",
    "EnsembleParams",
    "bernoulli_profile",
    "joint_cumulants_exact",
    "log_mgf_exact",
    "log_partition_exact",
    "mean_var_exact",
    "omega_weights",
    "support_radius",
]

# Evaluated window rows, summed over the columns, of a profile (which the sampler
# draws from) or of the runs a statistic sums by rows.  Traced for one disk:
# ~75 bytes a row for a profile (0.6 GB here), 84-96 for the log-MGF, means
# and variances, ~208 for cumulants of orders 1-6 (1.7 GB)
MAX_WINDOW_ROWS = 2**23

# Radii closer than this (relative) are treated as equal, which is an input
# error: the product identity needs strictly increasing radii.
_RADII_DISTINCT_RTOL = 1e-12


def is_int(v) -> bool:
    """v is a Python or numpy integer and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def support_radius(b: float) -> float:
    """Edge of the equilibrium support, b^(-1/(2b)), for b > 0.  Raises
    ValueError where it is not a finite float (b below ~0.0039)."""
    try:
        r = b ** (-1.0 / (2.0 * b))
    except (OverflowError, ZeroDivisionError):
        r = math.inf
    if not (isinstance(r, float) and math.isfinite(r)):
        raise ValueError(f"support radius b^(-1/(2b)) is not finite for b = {b!r}")
    return r


@dataclass(frozen=True)
class EnsembleParams:
    """Ensemble triple (b, alpha, n): potential |z|^(2b), charge alpha at 0."""

    b: float
    alpha: float
    n: int

    def __post_init__(self) -> None:
        if not (self.b > 0 and math.isfinite(self.b)):
            raise ValueError(f"b must be finite and > 0, got {self.b!r}")
        if not (self.alpha > -1 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and > -1, got {self.alpha!r}")
        # profile rows are int64 indices
        if not (is_int(self.n) and 1 <= self.n < 2**63):
            raise ValueError(f"n must be an integer in [1, 2^63), got {self.n!r}")
        support_radius(self.b)  # raises where b^(-1/(2b)) leaves double range


@dataclass(frozen=True)
class Disk:
    """One disk: either a fixed radius r or an edge disk parameterized by s.

    An edge disk resolves to r = b^(-1/(2b)) (1 + sqrt(2b) s/sqrt(n))^(1/(2b))
    once n is known.
    """

    u: float
    r: float | None = None
    s: float | None = None

    def __post_init__(self) -> None:
        if (self.r is None) == (self.s is None):
            raise ValueError("exactly one of r (fixed) or s (edge) is required")
        if self.r is not None and not self.r > 0:
            raise ValueError(f"disk radius must be > 0, got {self.r!r}")
        if not math.isfinite(self.u):
            raise ValueError(f"disk weight u must be finite, got {self.u!r}")

    @staticmethod
    def fixed(r: float, u: float = 0.0) -> "Disk":
        return Disk(u=u, r=r)

    @staticmethod
    def edge(s: float, u: float = 0.0) -> "Disk":
        return Disk(u=u, s=s)

    @property
    def is_edge(self) -> bool:
        return self.s is not None


class DiskSystem:
    """Ordered collection of disks; at most one edge disk.  ``u`` is the
    read-only (p,) array of their weights, which only the MGF reads."""

    def __init__(self, disks: Iterable[Disk]):
        self.disks = tuple(disks)
        if not self.disks:
            raise ValueError("at least one disk is required")
        if sum(d.is_edge for d in self.disks) > 1:
            raise ValueError("at most one edge disk is allowed")
        self.u = np.array([d.u for d in self.disks], dtype=float)
        self.u.flags.writeable = False

    def unweighted(self) -> "DiskSystem":
        """The same disks at u = 0."""
        return DiskSystem(replace(d, u=0.0) for d in self.disks)

    def __repr__(self) -> str:
        return f"DiskSystem({list(self.disks)!r})"

    def classify(self, b: float) -> tuple[tuple[str, float], ...]:
        """(kind, x) per disk by the package's one regime rule (n-free):
        ("bulk", r) below r* = support_radius(b), ("outside", r) above it, and
        ("edge", s) for the edge disk or, at s = 0, a fixed r within 1e-12
        (relative) of r*."""
        rstar = support_radius(b)
        regimes = []
        for d in self.disks:
            if d.is_edge:
                regimes.append(("edge", d.s))
            elif abs(d.r - rstar) <= 1e-12 * rstar:
                regimes.append(("edge", 0.0))
            else:
                regimes.append(("bulk" if d.r < rstar else "outside", d.r))
        if [kind for kind, _ in regimes].count("edge") > 1:
            raise ValueError("configuration has more than one edge disk")
        fixed_r = [d.r for d in self.disks if not d.is_edge]
        if any(r2 <= r1 for r1, r2 in zip(fixed_r, fixed_r[1:])):
            raise ValueError("fixed radii must be strictly increasing")
        return tuple(regimes)

    def resolve(self, params: EnsembleParams) -> np.ndarray:
        """(p,) radii, the edge radius resolved at params.n; strictly increasing."""
        self.classify(params.b)
        radii = []
        for d in self.disks:
            if d.is_edge:
                factor = 1.0 + math.sqrt(2.0 * params.b) * d.s / math.sqrt(params.n)
                if factor <= 0:
                    raise ValueError(
                        f"edge disk unresolvable at n={params.n}: "
                        f"1 + sqrt(2b) s/sqrt(n) = {factor!r} <= 0"
                    )
                try:
                    r = support_radius(params.b) * factor ** (1.0 / (2.0 * params.b))
                except OverflowError:
                    r = math.inf
                if not math.isfinite(r):
                    raise ValueError(
                        f"edge disk s = {d.s!r} has no finite radius at "
                        f"b = {params.b!r}, n = {params.n}"
                    )
                radii.append(r)
            else:
                radii.append(d.r)
        radii = np.asarray(radii, dtype=float)
        for r1, r2 in zip(radii, radii[1:]):
            if r2 <= r1 or (r2 - r1) <= _RADII_DISTINCT_RTOL * r2:
                raise ValueError(f"resolved radii must be strictly increasing, got {radii}")
        return radii


def omega_weights(u: np.ndarray) -> np.ndarray:
    """Jump weights omega_l = e^(u_l+...+u_p) - e^(u_{l+1}+...+u_p), l=1..p.

    Computed as exp(tail) * expm1(u_l), which stays accurate for small u; a
    weight too large for a float comes out infinite.
    """
    u = np.asarray(u, dtype=float)
    return _omega(u, _tails(u))


def _omega(u: np.ndarray, U: np.ndarray) -> np.ndarray:
    """``omega_weights(u)`` from its tails U = ``_tails(u)``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(U[1:]) * np.expm1(u)


def _tails(u: np.ndarray) -> np.ndarray:
    """U_l = u_l + ... + u_p for l = 1..p (inf past double range), then U_{p+1} = 0."""
    with np.errstate(over="ignore"):
        return np.concatenate([np.cumsum(u[::-1])[::-1], [0.0]])


def _log_annuli(lp: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """(m, p+1) log annulus probabilities from (m, p) log P and log Q:
    differences of P below 1/2 and of Q above, so a tiny q keeps its
    relative accuracy."""
    p = lp.shape[1]
    out = np.empty((len(lp), p + 1))
    out[:, 0] = lp[:, 0]
    out[:, p] = lq[:, p - 1]
    lower = lp[:, 1:] < math.log(0.5)
    hi = np.where(lower, lp[:, 1:], lq[:, :-1])
    lo = np.where(lower, lp[:, :-1], lq[:, 1:])
    # log(e^hi - e^lo); rows are monotone up to rounding, so clamp the dust
    with np.errstate(divide="ignore", invalid="ignore"):
        out[:, 1:p] = hi + np.log(np.fmax(-np.expm1(lo - hi), 0.0))
    return out


def _first_true(pred, lo: int, hi: int) -> int:
    """Smallest i in [lo, hi) with pred(i), or hi; pred is false then true."""
    return lo + bisect.bisect_left(range(lo, hi), True, key=pred)


def _column_window(params: EnsembleParams, z: float, threshold: float) -> tuple[range, int]:
    """Rows of the column of argument z whose log-prefactor reaches
    `threshold`, and the count `inside` of rows whose shape lies below z.
    g(a) = a log z - z - log Gamma(a), a = (j+1+alpha)/b, is concave and peaks at
    psi(a) = log z, in (z, z + 1/2): those rows form one run, split for one
    bisection per end by the better of rows inside - 1 and inside (bisecting for
    the peak fails past a ~ 1e10, where g's steps fall below its rounding)."""
    n, alpha, b = params.n, params.alpha, params.b

    def shape(j: int) -> float:
        return (j + 1 + alpha) / b

    inside = _first_true(lambda j: shape(j) >= z, 0, n)
    if z == 0.0 or math.isinf(z):
        return range(0), inside

    def g(j: int) -> float:
        return log_prefactor(shape(j), z)

    top = max((max(inside - 1, 0), min(inside, n - 1)), key=g)
    if g(top) < threshold:
        return range(0), inside
    start = _first_true(lambda j: g(j) >= threshold, 0, top)
    stop = _first_true(lambda j: g(j) < threshold, top, n)
    return range(start, stop), inside


def _merge(runs: Sequence[range]) -> list[tuple[int, int]]:
    """The runs, sorted by start, merged where they overlap or touch:
    increasing, disjoint (start, stop) pairs."""
    merged: list[list[int]] = []
    for r in sorted((r for r in runs if r), key=lambda r: r.start):
        if merged and r.start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], r.stop)
        else:
            merged.append([r.start, r.stop])
    return [(start, stop) for start, stop in merged]


def _rows(runs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Increasing rows of disjoint increasing (start, stop) runs."""
    return np.concatenate([np.arange(start, stop) for start, stop in runs] + [np.arange(0)])


class BernoulliProfile:
    """The saturation window of (params, disks) and, on it, the per-particle
    disk probabilities P[j, l] = P((j+1+alpha)/b, n r_l^(2b)); row j is
    particle j+1.

    Per column l: its argument z_l, its run of unsaturated rows
    (``_column_window``; ``runs`` merges them) and the count inside[l] of
    rows whose shape lies below z_l.  Off the window every entry is within
    e^-60 / e^spread (spread = max U - min U of the weights) of 0 or 1, and
    is 1 exactly on the rows j < inside[l]; ``ones`` and ``saturated`` count
    them.  ``rows``, ``log_P``, ``log_Q`` and ``Pw`` are evaluated on first
    access (``bernoulli_profile`` forces it; the statistics never do), and so
    is ``P``, the dense (n, p) view.  (A plain class: a frozen dataclass
    costs ~1 ms of every import.)
    """

    def __init__(self, params: EnsembleParams, z: np.ndarray, columns: tuple[range, ...],
                 inside: np.ndarray, spread: float):
        self.params, self.n, self.z, self.columns = params, params.n, z, columns
        self.inside, self.spread = inside, spread
        self.runs = _merge(columns)
        width = sum(stop - start for start, stop in self.runs)
        # saturated rows inside each disk (rows below `inside` off the window),
        # and per annulus (p+1,): annulus l lies inside disks l..p-1
        ones = [i - sum(max(0, min(stop, i) - start) for start, stop in self.runs)
                for i in inside.tolist()]
        bounds = [0, *ones, self.n - width]
        self.ones = np.array(ones, dtype=inside.dtype)
        self.saturated = np.array([hi - lo for lo, hi in zip(bounds, bounds[1:])], dtype=inside.dtype)

    def check_rows(self, runs: Sequence[tuple[int, int]]) -> None:
        """ValueError, before any row is built, where the rows of `runs` hold
        more than MAX_WINDOW_ROWS evaluated entries (each column's run rows)."""
        width = sum(max(0, min(c.stop, stop) - max(c.start, start))
                    for c in self.columns for start, stop in runs)
        if width > MAX_WINDOW_ROWS:
            raise ValueError(f"{width} window rows at n = {self.n}, over MAX_WINDOW_ROWS = 2^23")

    def evaluate(self, x: np.ndarray, shapes: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(m, p) log P and log Q at row positions x (rows, or real nodes)
        and their shapes (by default (x+1+alpha)/b).  Column l is evaluated
        where x lies in its run and is saturated elsewhere: P = 1 where the
        shape is below z_l, else 0 (on rows, exactly the rows below
        `inside`).  One evaluator call covers every column."""
        if shapes is None:
            shapes = (x + 1 + self.params.alpha) / self.params.b
        below = shapes[:, None] < self.z
        log_P = np.where(below, 0.0, -np.inf)
        log_Q = np.where(below, -np.inf, 0.0)
        on = [(col, np.flatnonzero((x >= c.start) & (x < c.stop)))
              for col, c in enumerate(self.columns) if c]
        on = [(col, i) for col, i in on if i.size]
        if on:
            a = np.concatenate([shapes[i] for _, i in on])
            z = (np.repeat(self.z[[col for col, _ in on]], [i.size for _, i in on]) if len(on) > 1
                 else self.z[on[0][0]])
            lp, lq = log_reg_gamma_pq(a, z)
            start = 0
            for col, i in on:
                log_P[i, col], log_Q[i, col] = lp[start : start + i.size], lq[start : start + i.size]
                start += i.size
        return log_P, log_Q

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """(w,) window rows, increasing; ValueError past MAX_WINDOW_ROWS."""
        self.check_rows(self.runs)
        return _rows(self.runs)

    @functools.cached_property
    def _log_pq(self) -> tuple[np.ndarray, np.ndarray]:
        return self.evaluate(self.rows)

    log_P = property(lambda self: self._log_pq[0], doc="(w, p) log P on the window rows.")
    log_Q = property(lambda self: self._log_pq[1], doc="(w, p) log(1 - P), evaluated directly.")

    @functools.cached_property
    def Pw(self) -> np.ndarray:
        """(w, p) exp(log_P)."""
        return np.exp(self.log_P)

    @functools.cached_property
    def P(self) -> np.ndarray:
        """(n, p) dense profile."""
        P = (np.arange(self.n)[:, None] < self.inside[None, :]).astype(float)
        P[self.rows] = self.Pw
        return P


def _window(params: EnsembleParams, disks: DiskSystem, U: np.ndarray | None = None) -> BernoulliProfile:
    """The window of (params, disks) at the disks' weights.  A row is
    saturated in a column when its prefactor stays below e^-60 after scaling
    by the largest ratio of the weights e^(U_l), U_l = u_l + ... + u_p
    (``_tails(disks.u)``, unless the caller passes them), so the window also
    serves ``log_mgf_exact``; every other caller takes ``disks.unweighted()``."""
    radii = disks.resolve(params)
    if U is None:
        U = _tails(disks.u)
    # past double range, a spread puts every row in the window, a z every row inside
    with np.errstate(over="ignore", invalid="ignore"):
        spread = float(U.max() - U.min())
        z = params.n * radii ** (2.0 * params.b)
    columns, inside = zip(*(_column_window(params, float(zl), SATURATED_LOG_PREFACTOR - spread)
                            for zl in z))
    return BernoulliProfile(params, z, columns, np.array(inside), spread)


def bernoulli_profile(params: EnsembleParams, disks: DiskSystem) -> BernoulliProfile:
    """The incomplete-gamma profile of (params, disks), its window rows
    evaluated.

    Each disk's column is evaluated on its own run of unsaturated rows
    (``_column_window``), and the window is the union of those runs; a
    column whose run is empty is all saturated.  One evaluator call covers
    every column.  Raises ValueError past MAX_WINDOW_ROWS, before any row is
    built."""
    profile = _window(params, disks)
    profile.Pw  # evaluates rows, log_P and log_Q
    return profile


# The window integral.  A run is integrated only where the summand's scale s
# (in rows) is at least _MIN_SCALE, or _MIN_CUT_SCALE where row 0 or n - 1
# cuts it; each coarse panel spans _PANEL_SCALES scales, and the coarse rule
# and its doubling must agree to _CHECK_EPS eps of the terms' rounding scale.
_MIN_SCALE = 3.0
_MIN_CUT_SCALE = 30.0
_PANEL_SCALES = 8.0
_CHECK_EPS = 64.0  # the rules differ by up to ~30 eps at n = 1e18 (evaluator noise near a = 4e17)
# The integral's fixed cost (its points, weights and check) in rows: ~70 us
# against ~0.13 us a row of a one-disk log-MGF, measured at n = 1e3..3.2e4.
_INTEGRAL_COST_ROWS = 512
_EPS = float(np.finfo(float).eps)
# Gregory's end corrections take differences up to order _GREGORY; G_k are the
# coefficients of x / log(1 + x) = 1 + x/2 - x^2/12 + x^3/24 - ...
_GREGORY = 10
_GREGORY_G = series.quotient([1.0] + [0.0] * (_GREGORY + 1),
                             [(-1.0) ** k / (k + 1) for k in range(_GREGORY + 2)])


@functools.cache
def _end_weights(cut: bool) -> np.ndarray:
    """Weights on the rows A, A+1, ... of a run's first row A in
    sum_{j=A}^{L} f(j) = integral_A^L f + (end terms): f(A)/2 where f is
    saturated at A, and where a row cuts the run also Gregory's
    sum_{k=1}^{_GREGORY} G_(k+1) Delta^k f(A).  The formula is symmetric
    under j -> -j, so the last row L takes the same weights on L, L-1, ..."""
    w = np.zeros(_GREGORY + 1 if cut else 1)
    w[0] = 0.5
    for k in range(1, w.size):
        for i in range(k + 1):  # Delta^k f(A) = sum_i (-1)^(k-i) C(k, i) f(A+i)
            w[i] += _GREGORY_G[k + 1] * (-1) ** (k - i) * math.comb(k, i)
    return w


def _panels(window: BernoulliProfile, start: int, stop: int, order: int) -> int:
    """Coarse panels of the integral over the run [start, stop), or 0 where
    rows are cheaper or the remainder is not provably below eps.

    Column l's entries vary on sigma_l = b sqrt(z_l) rows, since P is near
    erfc((a - z)/sqrt(2z))/2 at a = (j+1+alpha)/b.  A summand of order k, or
    the log-MGF at weight spread S, varies on s = min sigma_l / sqrt(max(k,
    S, 1)): it is entire in the row index, or (the log-MGF) analytic in a
    strip of half-width ~ pi sigma / sqrt(2 S) about the real axis, out to
    where 1 + sum_l omega_l P_l first vanishes.  The Euler-Maclaurin remainder
    is then of order e^(-2 pi d) of the run's scale (Trefethen & Weideman,
    SIAM Rev. 56, 2014), below 1e-18 at s >= _MIN_SCALE.  At a cut end,
    s >= _MIN_CUT_SCALE puts Gregory's first omitted difference,
    ~ 0.005 sqrt(11!) s^-11 of f, below 1e-15."""
    sigma = min(window.params.b * math.sqrt(zl) for zl, c in zip(window.z, window.columns)
                if c.start < stop and start < c.stop)
    scale = sigma / math.sqrt(max(order, window.spread, 1.0))
    cut = start == 0 or stop == window.params.n
    if not scale >= (_MIN_CUT_SCALE if cut else _MIN_SCALE):
        return 0
    panels = math.ceil((stop - start) / (_PANEL_SCALES * scale))
    cost = 3 * GL_ORDER * panels + 2 * (_GREGORY + 1) + _INTEGRAL_COST_ROWS
    return panels if cost < stop - start else 0


def _exact_shape(j: int, alpha: float, b: float) -> tuple[float, float]:
    """The shape (j+1+alpha)/b as hi + lo: hi correctly rounded, lo the
    rounded rest (exact rational arithmetic on the floats' ratios)."""
    pa, qa = alpha.as_integer_ratio()
    pb, qb = b.as_integer_ratio()
    num, den = ((j + 1) * qa + pa) * qb, qa * pb
    hi = num / den
    ph, qh = hi.as_integer_ratio()
    return hi, (num * qh - ph * den) / (den * qh)


@functools.cache
def _derivative_matrix() -> np.ndarray:
    """D with (D f)_i = f'(t_i) for the polynomial through f at the nodes t_i
    of ``unit_rule(1)`` on [0, 1] (barycentric weights of Gauss-Legendre
    points: lambda_i ~ (-1)^i sqrt((1 - xi_i^2) w_i), xi = 2t - 1)."""
    t, w = unit_rule(1)
    xi = 2.0 * t - 1.0
    lam = (-1.0) ** np.arange(t.size) * np.sqrt((1.0 - xi) * (1.0 + xi) * w)
    gap = xi[:, None] - xi[None, :]
    np.fill_diagonal(gap, 1.0)
    D = lam[None, :] / lam[:, None] / gap
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return 2.0 * D


@functools.cache
def _two_rules(panels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] of the rules with `panels` and 2 `panels`
    panels, one after the other, and each node's panel count."""
    (t0, w0), (t1, w1) = unit_rule(panels), unit_rule(2 * panels)
    return (np.concatenate([t0, t1]), np.concatenate([w0, w1]),
            np.repeat([panels, 2 * panels], [t0.size, t1.size]).astype(float))


def _integral_points(params: EnsembleParams, start: int, stop: int, panels: int):
    """Points of one integrated run [start, stop): their row positions and
    shapes (the coarse rule's nodes, the fine rule's, the first rows, the
    last rows), and the weights of each group.

    A node's shape a = a_start + (span/b) t is rounded to the nearest double
    at ~eps a, a shift of up to ~eps sqrt(z) of the column scale that does
    not average out over the nodes (it cost the coarse rule ~5e2 eps at
    n = 1e8).  The rounding e = a - fl(a) is known exactly (TwoSum), so the
    weights take the first-order correction f(a) = f(fl(a)) + f'(fl(a)) e,
    with f' from each panel's interpolating polynomial
    (``_derivative_matrix``)."""
    b, alpha = params.b, params.alpha
    span = float(stop - 1 - start)
    t, w, count = _two_rules(panels)
    first, first_rest = _exact_shape(start, alpha, b)
    q = (span / b) * t
    shapes = first + q
    bq = shapes - first
    rounding = (first - (shapes - bq)) + (q - bq) + first_rest
    w = span * w
    w += (b / span) * count * ((w * rounding).reshape(-1, GL_ORDER) @ _derivative_matrix()).ravel()
    lo, hi = _end_weights(start == 0), _end_weights(stop == params.n)
    ends = np.concatenate([start + np.arange(lo.size), stop - 1 - np.arange(hi.size)])
    x = np.concatenate([start + span * t, ends])
    shapes = np.concatenate([shapes, (ends + 1 + alpha) / b])
    split = GL_ORDER * panels
    return x, shapes, (w[:split], w[split:], np.concatenate([lo, hi]))


def _window_sums(window: BernoulliProfile, summand, order: int) -> np.ndarray:
    """Row sums over the window of the terms of summand(log_P, log_Q) (the
    caller adds the saturated rows in closed form).  The summand maps (m, p)
    entries to a (k, m) stack of terms and their (k, m) rounding scale:
    |term|, or more where a term cancels.

    Each merged run of the window takes one of two paths; one evaluator call
    covers the points of both (``_first_pass``):
    * rows: the terms of all row runs, in row order, are summed pairwise
      (numpy), with error at most about log2(w) eps sum_j |x_j| (Higham,
      SIAM J. Sci. Comput. 14, 1993);
    * integral, where ``_panels`` admits it: sum_{j=A}^{L} f(j) =
      integral_A^L f + (f(A) + f(L))/2 + R, with R below eps of the run's
      scale (``_panels``).  The integral is composite 40-node Gauss-Legendre
      at real shapes (``_integral_points``); at an end cut by row 0 or n - 1,
      where f is not saturated, Gregory's differences of f on integer rows
      stand for the Euler-Maclaurin derivative terms (``_end_weights``).
      The rule and its doubling, taken in the same call, must agree to
      _CHECK_EPS eps times the integral of the rounding scale.  A term that
      a column's saturation cuts off inside the run is not smooth there, and
      fails this where the cut is not negligible against the term's own sum
      (P_l Q_h of two runs that barely overlap, a sum of order e^-100).
    A run that fails the check is summed by rows once the first pass's
    points and terms are released, or is a ValueError where its rows would
    pass MAX_WINDOW_ROWS, which bounds only the row path.  ``order`` is the
    summand's order (1 for the log-MGF; the weights' spread counts too).
    The sums of the paths are added exactly (fsum)."""
    plan = [(run, _panels(window, *run, order)) for run in window.runs]
    row_runs = [run for run, panels in plan if not panels]
    window.check_rows(row_runs)
    total, missed = _first_pass(window, row_runs, [(run, panels) for run, panels in plan if panels], summand)
    # a non-finite sum goes back to the caller, who names it
    with np.errstate(over="ignore", invalid="ignore"):
        if missed:
            window.check_rows(row_runs + missed)
            total.append(summand(*window.evaluate(_rows(missed)))[0].sum(axis=1))
        parts = np.array(total)
        if not np.isfinite(parts).all():
            return parts.sum(axis=0)
    return np.array([math.fsum(v) for v in parts.T.tolist()])


def _first_pass(window: BernoulliProfile, row_runs: list, integrated: list, summand):
    """The sums of one evaluator call over the rows of `row_runs` and the
    points of the (run, panels) in `integrated`: the row sum, then the
    integral of each run that passes its check; and the runs that fail it."""
    params = window.params
    rows = _rows(row_runs)
    integrals = [(run, *_integral_points(params, *run, panels)) for run, panels in integrated]
    x = np.concatenate([rows, *(x for _, x, _, _ in integrals)])
    shapes = np.concatenate([(rows + 1 + params.alpha) / params.b, *(a for _, _, a, _ in integrals)])
    terms, scales = summand(*window.evaluate(x, shapes))
    with np.errstate(over="ignore", invalid="ignore"):
        total = [terms[:, : rows.size].sum(axis=1)]
        missed = []
        start = rows.size
        for run, x, _, (w0, w1, w_ends) in integrals:
            coarse = slice(start, start + w0.size)
            fine = slice(coarse.stop, coarse.stop + w1.size)
            ends = slice(fine.stop, start + x.size)
            start += x.size
            tail = terms[:, ends] @ w_ends
            value = terms[:, fine] @ w1 + tail
            tol = _CHECK_EPS * _EPS * (scales[:, fine] @ np.abs(w1) + scales[:, ends] @ np.abs(w_ends))
            if np.all(np.abs(terms[:, coarse] @ w0 + tail - value) <= tol):
                total.append(value)
            else:
                missed.append(run)
    return total, missed


def log_mgf_exact(params: EnsembleParams, disks: DiskSystem) -> float:
    """log E[prod_l exp(u_l N(D_rl))] = sum_j log sum_l q_jl e^(U_l).

    Window rows and nodes use log1p(sum_l omega_l P[j,l]) where that sum
    neither overflows nor cancels, and the log-space sum over annuli
    elsewhere; saturated rows add U_l for their annulus l.  At u = 0 every
    window term is log1p(0) = 0, so the log-MGF is exactly 0.

    The window terms are summed by ``_window_sums``: pairwise over rows, with
    error at most about log2(w) eps sum_j |x_j| (each term x_j already
    carries a rounding of order eps |x_j|), or as an integral over a run
    where the column scale and the weights' spread admit it.  Those sums and
    the p + 1 saturated terms are added exactly (fsum).  Raises ValueError
    where some U_l, or the log-MGF, is past double range (U_l is checked
    before the window is built).
    """
    U = _tails(disks.u)
    if not np.isfinite(U).all():
        raise ValueError(f"weight sums u_l + ... + u_p overflow at u = {disks.u.tolist()}")
    omega = _omega(disks.u, U)

    @np.errstate(over="ignore", invalid="ignore")
    def terms(log_P, log_Q):
        Pw = np.exp(log_P)
        x = Pw @ omega
        scale = Pw @ np.abs(omega)
        direct = np.isfinite(scale) & (2.0 * (1.0 + x) >= 1.0 + scale)
        out = np.log1p(x, where=direct, out=np.zeros_like(x))
        if not direct.all():
            out[~direct] = np.logaddexp.reduce(_log_annuli(log_P[~direct], log_Q[~direct]) + U, axis=1)
        return out[None, :], np.abs(out)[None, :]

    window = _window(params, disks, U)
    sums = _window_sums(window, terms, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        parts = np.array([sums[0], *(window.saturated * U)])
        if not np.isfinite(np.abs(parts).sum()):
            raise ValueError(f"log-MGF past double range at u = {disks.u.tolist()}")
    return math.fsum(parts.tolist())


def log_partition_exact(params: EnsembleParams) -> float:
    """log Z_n from the closed product formula; a ValueError naming (b, alpha)
    where it is past double range."""
    b, alpha, n = params.b, params.alpha, params.n
    try:
        lg = math.fsum(math.lgamma((j + alpha) / b) for j in range(1, n + 1))
    except OverflowError:  # lgamma from shapes ~2.5e305, or the sum past double range
        lg = math.inf
    total = (
        -(n * n) / (2.0 * b) * math.log(n)
        - (1.0 + 2.0 * alpha) / (2.0 * b) * n * math.log(n)
        + n * math.log(math.pi / b)
        + lg
    )
    if not math.isfinite(total):
        raise ValueError(f"log Z_n not finite at b = {b!r}, alpha = {alpha!r}")
    return total


def _normalize_orders(orders: Sequence, p: int) -> list[tuple[int, ...]]:
    normalized = []
    for k in orders:
        if is_int(k) and p != 1:
            raise ValueError("scalar orders are only allowed for a single disk")
        k = tuple(k) if isinstance(k, Iterable) else (k,)
        if not all(map(is_int, k)):
            raise ValueError(f"cumulant multi-index {k!r} has a non-integer entry")
        k = tuple(map(int, k))
        if len(k) != p:
            raise ValueError(f"multi-index {k} does not match p={p} disks")
        if any(v < 0 for v in k) or sum(k) < 1:
            raise ValueError(f"invalid cumulant multi-index {k}")
        if sum(k) > series.MAX_ORDER:
            raise ValueError(f"total order {sum(k)} exceeds supported maximum {series.MAX_ORDER}")
        normalized.append(k)
    return normalized


def joint_cumulants_exact(
    params: EnsembleParams, disks: DiskSystem, orders: Sequence
) -> list[float]:
    """Exact joint cumulants at u = 0 for the requested multi-indices.

    Orders 1 and 2 use the Bernoulli closed forms, a row's mean P[:, l] and
    covariance P[:, lo] Q[:, hi], lo <= hi, with Q = 1 - P from its own log
    (so a P near 1 keeps Q's relative accuracy); their sums are nonnegative,
    so their relative error is at most about log2(w) eps.  Higher orders sum
    over the window the per-row cumulants of ``series.cumulants`` (no finite
    differencing anywhere).  The indicators of nested disks have
    E prod_{l in S} 1{particle in D_rl} = P[:, min S], so every moment is a
    profile column.  A saturated row is deterministic: it adds its indicator
    to a mean and nothing to a cumulant of order >= 2.

    All orders share one ``_window_sums`` call on the window at u = 0.  A
    row sum of the per-row cumulants kappa_j adds error at most about
    log2(w) eps sum_j |kappa_j|.  Each kappa_j of order >= 3 carries more:
    ``series.cumulants`` builds it from its moments, which it cancels far
    below, so its rounding is ~eps times the variances P_j Q_j of its
    indicators, not eps |kappa_j|.  Where the sum cancels too (a mixed
    cumulant of overlapping windows, odd orders of a bulk disk), that
    rounding dominates: two disks at r = 0.5985, 0.6298, n = 1e4, order
    (1, 4) carry 3.3e-15 against a sum of -1.59e-5 (2e-10 relative).
    The disks' weights play no part.
    """
    norm = _normalize_orders(orders, len(disks.disks))

    def terms(log_P, log_Q):
        # an order >= 3 kappa_j cancels to far below its moments: its
        # rounding scales with the variances P Q of its indicators
        Pw = np.exp(log_P)
        out, scales = np.empty((2, len(norm), len(log_P)))
        for row, k in enumerate(norm):
            support = [i for i, v in enumerate(k) if v > 0]
            if sum(k) <= 2:
                lo, hi = min(support), max(support)
                log_term = log_P[:, lo] if sum(k) == 1 else log_P[:, lo] + log_Q[:, hi]
                out[row] = scales[row] = np.exp(log_term)
            else:
                out[row] = series.cumulants(
                    [k[i] for i in support],
                    lambda a: Pw[:, min(i for i, v in zip(support, a) if v)],
                )
                scales[row] = sum(np.exp(log_P[:, i] + log_Q[:, i]) for i in support)
        return out, scales

    window = _window(params, disks.unweighted())
    sums = _window_sums(window, terms, max(map(sum, norm)))
    ones = window.ones
    return [float(v) + (float(ones[k.index(1)]) if sum(k) == 1 else 0.0) for v, k in zip(sums, norm)]


def mean_var_exact(
    params: EnsembleParams, disks: DiskSystem
) -> tuple[np.ndarray, np.ndarray]:
    """Means and covariance matrix of the disk counts: the order-1 and
    order-2 joint cumulants (``joint_cumulants_exact``); the weights play
    no part."""
    p = len(disks.disks)
    eye = np.eye(p, dtype=int)
    lo, hi = np.triu_indices(p)
    cums = joint_cumulants_exact(params, disks, [*map(tuple, eye), *map(tuple, eye[lo] + eye[hi])])
    cov = np.empty((p, p))
    cov[lo, hi] = cov[hi, lo] = cums[p:]
    return np.array(cums[:p]), cov

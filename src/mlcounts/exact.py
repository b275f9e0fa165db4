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
when U_j < P_jl, on the profile at u = 0.

Only an O(sqrt n) window of rows around j ~ b n r_l^(2b) has P_jl away from
0 and 1.  The profile evaluates that window; every other row is saturated
(its prefactor z^a e^-z/Gamma(a) is below e^-60) and enters each sum in
closed form.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import series
from .specfun import SATURATED_LOG_PREFACTOR, log_prefactor, log_reg_gamma_pq

__all__ = [
    "BernoulliProfile",
    "Disk",
    "DiskSystem",
    "EnsembleParams",
    "ResolvedDisks",
    "bernoulli_profile",
    "joint_cumulants_exact",
    "log_mgf_exact",
    "log_partition_exact",
    "mean_var_exact",
    "omega_weights",
    "support_radius",
]

# Radii closer than this (relative) are treated as equal, which is an input
# error: the product identity needs strictly increasing radii.
_RADII_DISTINCT_RTOL = 1e-12


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
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
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


@dataclass(frozen=True)
class ResolvedDisks:
    """Disks resolved at a concrete n: radii, regime labels, weights."""

    radii: np.ndarray  # (p,), strictly increasing
    kinds: tuple[str, ...]  # each "bulk" | "edge" | "outside"
    u: np.ndarray  # (p,)

    @property
    def p(self) -> int:
        return len(self.radii)


class DiskSystem:
    """Ordered collection of disks; at most one edge disk."""

    def __init__(self, disks: Iterable[Disk]):
        self.disks = tuple(disks)
        if not self.disks:
            raise ValueError("at least one disk is required")
        if sum(d.is_edge for d in self.disks) > 1:
            raise ValueError("at most one edge disk is allowed")

    def __repr__(self) -> str:
        return f"DiskSystem({list(self.disks)!r})"

    def classify(self, b: float) -> tuple[tuple[str, ...], float | None]:
        """Regime label per disk and the edge parameter s (n-free).

        A fixed radius within 1e-12 (relative) of the support edge counts as
        an edge disk with s = 0.
        """
        rstar = support_radius(b)
        kinds = []
        s_frak = None
        for d in self.disks:
            if d.is_edge:
                kinds.append("edge")
                s_frak = d.s
            elif abs(d.r - rstar) <= 1e-12 * rstar:
                kinds.append("edge")
                s_frak = 0.0
            elif d.r < rstar:
                kinds.append("bulk")
            else:
                kinds.append("outside")
        if kinds.count("edge") > 1:
            raise ValueError("configuration has more than one edge disk")
        fixed_r = [d.r for d in self.disks if not d.is_edge]
        if any(r2 <= r1 for r1, r2 in zip(fixed_r, fixed_r[1:])):
            raise ValueError("fixed radii must be strictly increasing")
        return tuple(kinds), s_frak

    def resolve(self, params: EnsembleParams) -> ResolvedDisks:
        """Resolve edge radii at params.n and validate strict ordering."""
        kinds, _ = self.classify(params.b)
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
        u = np.array([d.u for d in self.disks], dtype=float)
        return ResolvedDisks(radii=radii, kinds=kinds, u=u)


def omega_weights(u: np.ndarray) -> np.ndarray:
    """Jump weights omega_l = e^(u_l+...+u_p) - e^(u_{l+1}+...+u_p), l=1..p.

    Computed as exp(tail) * expm1(u_l), which stays accurate for small u; a
    weight too large for a float comes out infinite.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(_tails(u)[1:]) * np.expm1(u)


def _tails(u: np.ndarray) -> np.ndarray:
    """U_l = u_l + ... + u_p for l = 1..p, plus the closing U_{p+1} = 0."""
    return np.concatenate([np.cumsum(u[::-1])[::-1], [0.0]])


@dataclass(frozen=True)
class BernoulliProfile:
    """Per-particle disk probabilities P[j, l] = P((j+1+alpha)/b, n r_l^(2b)).

    Row j is particle j+1.  Only the window rows (``rows``, increasing) are
    evaluated, in log form: outside the window every entry is within
    e^-60 / max_l,k e^(U_l - U_k) of 0 or 1, and is 1 exactly on the rows
    j < inside[l] (shape below n r_l^(2b)).  ``P`` is the dense (n, p) view,
    built on first access.
    """

    n: int
    rows: np.ndarray  # (w,) window rows
    log_P: np.ndarray  # (w, p) log P on the window rows
    log_Q: np.ndarray  # (w, p) log(1 - P) on the window rows, evaluated directly
    Pw: np.ndarray  # (w, p) exp(log_P)
    inside: np.ndarray  # (p,) saturated value is 1 on rows j < inside[l]
    ones: np.ndarray  # (p,) saturated rows inside each disk

    @property
    def saturated(self) -> np.ndarray:
        """(p+1,) saturated rows per annulus; annulus l lies inside disks l..p-1."""
        return np.diff(self.ones, prepend=0, append=self.n - len(self.rows))

    @property
    def log_q(self) -> np.ndarray:
        """(w, p+1) log annulus probabilities of the window rows: differences
        of P below 1/2 and of Q above, so a tiny q keeps its relative accuracy."""
        lp, lq = self.log_P, self.log_Q
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

    @cached_property
    def P(self) -> np.ndarray:
        """(n, p) dense profile."""
        P = (np.arange(self.n)[:, None] < self.inside[None, :]).astype(float)
        P[self.rows] = self.Pw
        return P


def _first_true(pred, lo: int, hi: int) -> int:
    """Smallest i in [lo, hi) with pred(i), or hi; pred is false then true."""
    return lo + bisect.bisect_left(range(lo, hi), True, key=pred)


def _column_window(params: EnsembleParams, z: float, threshold: float) -> tuple[range, int]:
    """Rows of the column of argument z whose log-prefactor reaches
    `threshold`, and the count of rows whose shape lies below z.  The
    log-prefactor of a = (j+1+alpha)/b is concave in j, so those rows form one
    run around its maximum: three bisections find the maximum and both ends."""
    n, alpha, b = params.n, params.alpha, params.b

    def shape(j: int) -> float:
        return (j + 1 + alpha) / b

    inside = _first_true(lambda j: shape(j) >= z, 0, n)
    if z == 0.0 or math.isinf(z):
        return range(0), inside

    def g(j: int) -> float:
        return log_prefactor(shape(j), z)

    top = _first_true(lambda j: g(j + 1) <= g(j), 0, n - 1)
    if g(top) < threshold:
        return range(0), inside
    start = _first_true(lambda j: g(j) >= threshold, 0, top)
    stop = _first_true(lambda j: g(j) < threshold, top, n)
    return range(start, stop), inside


def bernoulli_profile(params: EnsembleParams, disks: DiskSystem) -> BernoulliProfile:
    """Evaluate the incomplete-gamma profile for (params, disks) on its window.

    A row is saturated when its prefactor stays below e^-60 after scaling by
    the largest ratio of the disks' MGF weights e^(U_l), U_l = u_l + ... + u_p,
    so the window also serves ``log_mgf_exact`` at these weights; at u = 0 it
    is the window the sampler draws on.  Each disk's column is evaluated on
    its own run of unsaturated rows (``_column_window``), and the window is
    the union of those runs."""
    res = disks.resolve(params)
    U = _tails(res.u)
    threshold = SATURATED_LOG_PREFACTOR - (U.max() - U.min())
    # a z that overflows to inf puts every row inside, with an empty window
    with np.errstate(over="ignore"):
        z = params.n * res.radii ** (2.0 * params.b)
    columns, inside = zip(*(_column_window(params, float(zl), threshold) for zl in z))
    # sort and drop repeats: np.unique hashes, ~0.2 us a row
    rows = np.sort(np.concatenate([np.arange(c.start, c.stop) for c in columns]))
    rows = rows[np.diff(rows, prepend=-1) != 0]
    inside = np.array(inside)
    shapes = (rows + 1 + params.alpha) / params.b
    # entries outside their own column's window are saturated: P = 0 or 1
    log_P = np.where(rows[:, None] < inside, 0.0, -np.inf)
    log_Q = np.where(rows[:, None] < inside, -np.inf, 0.0)
    for col, (c, zl) in enumerate(zip(columns, z)):
        lo, hi = np.searchsorted(rows, [c.start, c.stop])
        log_P[lo:hi, col], log_Q[lo:hi, col] = log_reg_gamma_pq(shapes[lo:hi], float(zl))
    return BernoulliProfile(n=params.n, rows=rows, log_P=log_P, log_Q=log_Q, Pw=np.exp(log_P),
                            inside=inside, ones=inside - np.searchsorted(rows, inside))


def log_mgf_exact(params: EnsembleParams, disks: DiskSystem) -> float:
    """log E[prod_l exp(u_l N(D_rl))] = sum_j log sum_l q_jl e^(U_l).

    Window rows use log1p(sum_l omega_l P[j,l]) where that sum neither
    overflows nor cancels, and the log-space sum over annuli elsewhere;
    saturated rows add U_l for their annulus l.
    """
    profile = bernoulli_profile(params, disks)
    u = disks.resolve(params).u
    U = _tails(u)
    omega = omega_weights(u)
    with np.errstate(over="ignore", invalid="ignore"):
        x = profile.Pw @ omega
        scale = profile.Pw @ np.abs(omega)
        direct = np.isfinite(scale) & (2.0 * (1.0 + x) >= 1.0 + scale)
    terms = np.log1p(x, where=direct, out=np.zeros_like(x))
    if not direct.all():
        terms[~direct] = np.logaddexp.reduce(profile.log_q[~direct] + U, axis=1)
    return math.fsum(terms.tolist() + (profile.saturated * U).tolist())


def log_partition_exact(params: EnsembleParams) -> float:
    """log Z_n from the closed product formula."""
    b, alpha, n = params.b, params.alpha, params.n
    lg = math.fsum(math.lgamma((j + alpha) / b) for j in range(1, n + 1))
    return (
        -(n * n) / (2.0 * b) * math.log(n)
        - (1.0 + 2.0 * alpha) / (2.0 * b) * n * math.log(n)
        + n * math.log(math.pi / b)
        + lg
    )


def _normalize_orders(orders: Sequence, p: int) -> list[tuple[int, ...]]:
    normalized = []
    for k in orders:
        if isinstance(k, (int, np.integer)):
            if p != 1:
                raise ValueError("scalar orders are only allowed for a single disk")
            k = (int(k),)
        k = tuple(int(v) for v in k)
        if len(k) != p:
            raise ValueError(f"multi-index {k} does not match p={p} disks")
        if any(v < 0 for v in k) or sum(k) < 1:
            raise ValueError(f"invalid cumulant multi-index {k}")
        if sum(k) > series.MAX_ORDER:
            raise ValueError(f"total order {sum(k)} exceeds supported maximum {series.MAX_ORDER}")
        normalized.append(k)
    return normalized


def _mean(profile: BernoulliProfile, l: int) -> float:
    return math.fsum(profile.Pw[:, l].tolist() + [float(profile.saturated[: l + 1].sum())])


def _covariance(profile: BernoulliProfile, lo: int, hi: int) -> float:
    """Cov(N_lo, N_hi) for lo <= hi: sum_j P[j,lo] Q[j,hi], Q = 1 - P taken from
    its own log, so a P near 1 keeps Q's relative accuracy; saturated rows add 0."""
    return math.fsum(np.exp(profile.log_P[:, lo] + profile.log_Q[:, hi]).tolist())


def joint_cumulants_exact(
    params: EnsembleParams, disks: DiskSystem, orders: Sequence
) -> list[float]:
    """Exact joint cumulants at u = 0 for the requested multi-indices.

    Orders 1 and 2 use the Bernoulli closed forms; higher orders sum over the
    window the per-row cumulants of ``series.cumulants`` (no finite
    differencing anywhere).  The indicators of nested disks have
    E prod_{l in S} 1{particle in D_rl} = P[:, min S], so every moment is a
    profile column.  A saturated row is deterministic: it adds its indicator
    to a mean and nothing to a cumulant of order >= 2.
    """
    profile = bernoulli_profile(params, disks)
    norm = _normalize_orders(orders, profile.Pw.shape[1])
    out = []
    for k in norm:
        total_order = sum(k)
        support = [i for i, v in enumerate(k) if v > 0]
        if total_order == 1:
            out.append(_mean(profile, support[0]))
        elif total_order == 2:
            out.append(_covariance(profile, min(support), max(support)))
        else:
            kappa = series.cumulants(
                [k[i] for i in support],
                lambda a: profile.Pw[:, min(i for i, v in zip(support, a) if v)],
            )
            out.append(math.fsum(kappa.tolist()))
    return out


def mean_var_exact(
    params: EnsembleParams, disks: DiskSystem
) -> tuple[np.ndarray, np.ndarray]:
    """Means and covariance matrix of the disk counts."""
    profile = bernoulli_profile(params, disks)
    p = profile.Pw.shape[1]
    means = np.array([_mean(profile, l) for l in range(p)])
    cov = np.empty((p, p))
    for l1 in range(p):
        for l2 in range(l1, p):
            cov[l1, l2] = cov[l2, l1] = _covariance(profile, l1, l2)
    return means, cov

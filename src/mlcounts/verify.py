"""Cross-validation experiments: exact vs asymptotic vs Monte Carlo.

Each experiment is deterministic given its inputs (sampling experiments take
explicit seeds) and returns a small result object that the CLI serializes as
a JSON report with a pass flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .asymptotics import ExpansionCoefficients, cumulant_coeffs, theorem_coefficients
from .exact import Disk, DiskSystem, EnsembleParams, is_int, log_mgf_exact
from .sampler import sample_counts

__all__ = [
    "BelowNoiseError",
    "CltResult",
    "CoefficientFit",
    "ResidualScan",
    "clt_experiment",
    "coefficient_fit",
    "residual_scan",
]


class BelowNoiseError(RuntimeError):
    """All residuals are inside the quadrature noise floor; no rate to fit."""

    def __init__(self, message: str, residuals: tuple[float, ...] = ()):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class ResidualScan:
    """Residuals exact - predicted over n, with a fitted power-law rate."""

    n_values: tuple[int, ...]
    residuals: tuple[float, ...]
    fitted_rate: float
    fitted_K: float
    quad_error: float
    used: tuple[bool, ...]  # points above the noise floor that entered the fit


def _validate_n_values(n_values, minimum_count: int, span: float | None) -> tuple[int, ...]:
    ns = tuple(n_values)
    if not all(map(is_int, ns)):
        raise ValueError(f"n_values must be integers, got {list(ns)!r}")
    ns = tuple(map(int, ns))
    if len(ns) < minimum_count:
        raise ValueError(f"need at least {minimum_count} n-values, got {len(ns)}")
    if any(n2 <= n1 for n1, n2 in zip(ns, ns[1:])):
        raise ValueError("n_values must be strictly increasing")
    if ns[0] < 50:
        raise ValueError("each n must be >= 50")
    if span is not None and ns[-1] < span * ns[0]:
        raise ValueError(f"n_values must span at least a factor of {span}")
    return ns


@np.errstate(all="ignore")  # a singular R shows as a bound that is not finite
def _least_squares(A: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """x minimizing ||A x - y||_2 for A (m, k), m >= k, and ||R||_F ||R^-1||_F,
    which bounds A's 2-norm condition number from above.  Householder QR of
    [A | y], then back substitution on [Q^T y | I]: backward stable as
    LAPACK's lstsq is (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 20), without paging in LAPACK."""
    k = A.shape[1]
    W = np.column_stack([A, y])
    for j in range(k):
        v = W[j:, j].copy()
        v[0] += math.copysign(math.sqrt(v @ v), v[0])
        vv = v @ v
        if vv > 0.0:
            W[j:, j:] -= np.outer(v, (2.0 / vv) * (v @ W[j:, j:]))
    R = np.triu(W[:k, :k])
    X = np.column_stack([W[:k, k], np.eye(k)])
    for i in reversed(range(k)):
        X[i] = (X[i] - R[i, i + 1 :] @ X[i + 1 :]) / R[i, i]
    return X[:, 0], math.sqrt((R * R).sum() * (X[:, 1:] * X[:, 1:]).sum())


def residual_scan(params: EnsembleParams, disks: DiskSystem, n_values) -> ResidualScan:
    """Scan r(n) = log_mgf_exact - predicted and fit log|r| ~ rate * log n.

    params.n is ignored; n comes from n_values.  Edge disks re-resolve at
    each n.  Points with |r| <= 100x the aggregate quadrature error estimate
    are excluded from the fit.  Each r errs by about eps max|log-MGF|, so
    fitted_rate (absolute) and fitted_K (relative) err by about that over min|r|
    times ||L^+||_2, L = [log n, 1] the basis of the fit (``_least_squares``;
    4.75 on n = 500..4000 doubling).
    """
    ns = _validate_n_values(n_values, minimum_count=4, span=8.0)
    coeffs = theorem_coefficients(params, disks)  # n-independent
    residuals = [log_mgf_exact(replace(params, n=n), disks) - coeffs.evaluate(n) for n in ns]
    floor = 100.0 * coeffs.quad_error
    used = tuple(abs(r) > floor for r in residuals)
    if sum(used) < 2:
        raise BelowNoiseError(
            f"residuals (max {max(map(abs, residuals)):.3e}) are below the "
            f"quadrature noise floor {floor:.3e}; nothing to fit",
            residuals=tuple(residuals),
        )
    # at least 2 distinct n, so never rank-deficient
    logn = np.log([n for n, u in zip(ns, used) if u])
    logr = np.log([abs(r) for r, u in zip(residuals, used) if u])
    (slope, intercept), _ = _least_squares(np.column_stack([logn, np.ones_like(logn)]), logr)
    return ResidualScan(
        n_values=ns,
        residuals=tuple(residuals),
        fitted_rate=float(slope),
        fitted_K=math.exp(intercept),
        quad_error=coeffs.quad_error,
        used=used,
    )


@dataclass(frozen=True)
class CoefficientFit:
    """Least-squares (C1..C4) recovered from exact log-MGF values."""

    fitted: tuple[float, float, float, float]
    predicted: ExpansionCoefficients
    deviations: tuple[float, float, float, float]


def coefficient_fit(params: EnsembleParams, disks: DiskSystem, n_values) -> CoefficientFit:
    """Fit exact log-MGF against the basis B = {n, sqrt(n), 1, 1/sqrt(n)}, its
    columns scaled to unit norm (``_least_squares``).  Each fitted C_k, and its
    deviation, errs by about eps max|log-MGF| ||B^+||_2: 234 on n = 1000..32000
    doubling (scaled condition number 81; 352 on 500..4000), so C4 of a log-MGF
    near 1e4 carries about 7 significant digits.  ValueError where the scaled
    basis's ||R||_F ||R^-1||_F, never below its condition number, passes 1e10."""
    ns = _validate_n_values(n_values, minimum_count=6, span=None)
    y = np.array([log_mgf_exact(replace(params, n=n), disks) for n in ns])
    narr = np.array(ns, dtype=float)
    basis = np.column_stack([narr, np.sqrt(narr), np.ones_like(narr), 1.0 / np.sqrt(narr)])
    scale = np.linalg.norm(basis, axis=0)
    sol, cond = _least_squares(basis / scale, y)
    if not cond <= 1e10:
        raise ValueError("n-range too narrow: the fit basis is ill-conditioned")
    fitted = tuple(float(v) for v in sol / scale)
    predicted = theorem_coefficients(params, disks)
    target = (predicted.C1, predicted.C2, predicted.C3, predicted.C4)
    return CoefficientFit(
        fitted=fitted,
        predicted=predicted,
        deviations=tuple(f - t for f, t in zip(fitted, target)),
    )


@dataclass(frozen=True)
class CltResult:
    """Empirical covariance of the normalized counts vs the identity."""

    covariance: np.ndarray
    max_abs_deviation: float
    means: np.ndarray


def clt_experiment(
    params: EnsembleParams,
    bulk_radii,
    s_frak: float | None,
    num_samples: int,
    seed: int,
    threads: int = 1,
) -> CltResult:
    """Empirical covariance of the CLT-normalized bulk/edge disk counts.

    Every count, bulk or edge, is normalized from its regime's cumulant
    series (`cumulant_coeffs` at orders 1 and 2): centered at leading n +
    c1 sqrt(n) and scaled by sqrt(c2) n^(1/4).  The limit is a standard
    multivariate normal.  Raises ValueError where c2 <= 0, as for a radius
    outside the support, whose count does not fluctuate at this scale; the
    coefficients raise their own ValueError where they cannot be computed.
    """
    if num_samples < 100:
        raise ValueError(f"need at least 100 samples, got {num_samples!r}")
    n = params.n
    disks = DiskSystem([Disk.fixed(r) for r in bulk_radii]
                       + ([] if s_frak is None else [Disk.edge(s_frak)]))
    norms = []  # (center, scale) of each count, in disk order
    for idx, (mean, var) in enumerate(zip(cumulant_coeffs(1, params, disks),
                                          cumulant_coeffs(2, params, disks))):
        if not var.c > 0.0:
            raise ValueError(f"variance coefficient c2 = {var.c!r} of disk {idx} is not positive "
                             f"at b = {params.b!r}, alpha = {params.alpha!r}")
        norms.append((mean.leading * n + mean.c * math.sqrt(n), math.sqrt(var.c) * n**0.25))
    batch = sample_counts(params, disks, num_samples, seed, threads=threads)
    stats = np.column_stack([(batch.counts[:, idx] - center) / scale
                             for idx, (center, scale) in enumerate(norms)])
    cov = np.atleast_2d(np.cov(stats, rowvar=False))
    dev = float(np.max(np.abs(cov - np.eye(cov.shape[0]))))
    return CltResult(
        covariance=cov,
        max_abs_deviation=dev,
        means=stats.mean(axis=0),
    )

"""Cross-validation experiments: exact vs asymptotic vs Monte Carlo.

Each experiment is deterministic given its inputs (sampling experiments take
explicit seeds) and returns a small result object that the CLI serializes as
a JSON report with a pass flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .asymptotics import (
    ExpansionCoefficients,
    edge_mean_coeffs,
    edge_var_coeffs,
    theorem_coefficients,
)
from .exact import Disk, DiskSystem, EnsembleParams, log_mgf_exact, support_radius
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
    ns = tuple(int(n) for n in n_values)
    if len(ns) < minimum_count:
        raise ValueError(f"need at least {minimum_count} n-values, got {len(ns)}")
    if any(n2 <= n1 for n1, n2 in zip(ns, ns[1:])):
        raise ValueError("n_values must be strictly increasing")
    if ns[0] < 50:
        raise ValueError("each n must be >= 50")
    if span is not None and ns[-1] < span * ns[0]:
        raise ValueError(f"n_values must span at least a factor of {span}")
    return ns


def residual_scan(params: EnsembleParams, disks: DiskSystem, n_values) -> ResidualScan:
    """Scan r(n) = log_mgf_exact - predicted and fit log|r| ~ rate * log n.

    params.n is ignored; n comes from n_values.  Edge disks re-resolve at
    each n.  Points with |r| <= 100x the aggregate quadrature error estimate
    are excluded from the fit.
    """
    ns = _validate_n_values(n_values, minimum_count=4, span=8.0)
    coeffs = theorem_coefficients(params, disks)  # n-independent
    residuals = []
    for n in ns:
        pn = replace(params, n=n)
        residuals.append(log_mgf_exact(pn, disks) - coeffs.evaluate(n))
    floor = 100.0 * coeffs.quad_error
    used = tuple(abs(r) > floor for r in residuals)
    if sum(used) < 2:
        raise BelowNoiseError(
            f"residuals (max {max(map(abs, residuals)):.3e}) are below the "
            f"quadrature noise floor {floor:.3e}; nothing to fit",
            residuals=tuple(residuals),
        )
    logn = np.log([n for n, u in zip(ns, used) if u])
    logr = np.log([abs(r) for r, u in zip(residuals, used) if u])
    slope, intercept = np.polyfit(logn, logr, 1)
    return ResidualScan(
        n_values=ns,
        residuals=tuple(residuals),
        fitted_rate=float(slope),
        fitted_K=float(math.exp(intercept)),
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
    """Fit exact log-MGF against the basis {n, sqrt(n), 1, 1/sqrt(n)}."""
    ns = _validate_n_values(n_values, minimum_count=6, span=None)
    y = np.array([log_mgf_exact(replace(params, n=n), disks) for n in ns])
    narr = np.array(ns, dtype=float)
    basis = np.column_stack([narr, np.sqrt(narr), np.ones_like(narr), 1.0 / np.sqrt(narr)])
    scale = np.linalg.norm(basis, axis=0)
    scaled = basis / scale
    if np.linalg.cond(scaled) > 1e10:
        raise ValueError("n-range too narrow: the fit basis is ill-conditioned")
    sol, *_ = np.linalg.lstsq(scaled, y, rcond=None)
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

    Bulk count j is centered at b r^(2b) n and scaled by sqrt(b r^b) n^(1/4)
    / pi^(1/4); the edge count is centered at n + c1 sqrt(n) and scaled by
    sqrt(c2) n^(1/4) with (c1, c2) the closed-form edge coefficients.  The
    limit is a standard multivariate normal.  Raises ValueError where a
    normalization is meaningless: a bulk radius outside (0, r*), a bulk scale
    that underflows to 0, or an edge c2 that is not positive.
    """
    if num_samples < 100:
        raise ValueError(f"need at least 100 samples, got {num_samples!r}")
    b, alpha, n = params.b, params.alpha, params.n
    rstar = support_radius(b)
    nq = n**0.25
    norms = []  # (center, scale) of each count, bulk disks first
    for r in bulk_radii:
        if not 0 < r < rstar:
            raise ValueError(f"bulk radius must satisfy 0 < r < {rstar}, got {r!r}")
        scale = math.sqrt(b * r**b) * nq / math.pi**0.25
        if scale == 0.0:
            raise ValueError(f"bulk scale sqrt(b r^b) underflows to 0 at b = {b!r}, r = {r!r}")
        norms.append((b * r ** (2.0 * b) * n, scale))
    disk_list = [Disk.fixed(r) for r in bulk_radii]
    if s_frak is not None:
        c1, _, _ = edge_mean_coeffs(b, alpha, s_frak)
        c2, _, _ = edge_var_coeffs(b, alpha, s_frak)
        if not c2 > 0.0:
            raise ValueError(f"edge variance coefficient c2 = {c2!r} is not positive at "
                             f"b = {b!r}, alpha = {alpha!r}, s = {s_frak!r}")
        norms.append((n + c1 * math.sqrt(n), math.sqrt(c2) * nq))
        disk_list.append(Disk.edge(s_frak))
    batch = sample_counts(params, DiskSystem(disk_list), num_samples, seed, threads=threads)
    stats = np.column_stack([(batch.counts[:, idx] - center) / scale
                             for idx, (center, scale) in enumerate(norms)])
    cov = np.atleast_2d(np.cov(stats, rowvar=False))
    dev = float(np.max(np.abs(cov - np.eye(cov.shape[0]))))
    return CltResult(
        covariance=cov,
        max_abs_deviation=dev,
        means=stats.mean(axis=0),
    )

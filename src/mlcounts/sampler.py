"""Monte Carlo sampling of disk counts via the independent-moduli law.

Rotation invariance makes the squared-modulus vector of the ensemble
distributed as independent coordinates G_j/n with G_j ~ Gamma((j+alpha)/b, 1)
(the 2D analogue of Kostlan's observation), so a sample of all p disk counts
is p threshold counts over one vector of n gamma draws.  Each sample owns a
Philox stream keyed by (seed, sample_index): results are reproducible and
independent of execution order or thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exact import DiskSystem, EnsembleParams

__all__ = ["McCumulants", "SampleBatch", "mc_cumulants", "sample_counts"]


@dataclass(frozen=True)
class SampleBatch:
    """Disk counts per sample; counts[s, l] = N(D_{r_l}) in sample s."""

    counts: np.ndarray  # (num_samples, p) int64
    seed: int
    num_samples: int
    n: int
    radii: np.ndarray  # (p,)


def _sample_row(shapes: np.ndarray, thresholds: np.ndarray, seed: int, index: int) -> np.ndarray:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    g = rng.standard_gamma(shapes)
    return np.count_nonzero(g[:, None] < thresholds[None, :], axis=0)


def sample_counts(
    params: EnsembleParams,
    disks: DiskSystem,
    num_samples: int,
    seed: int,
    threads: int = 1,
) -> SampleBatch:
    """Draw `num_samples` independent copies of the joint disk counts."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples!r}")
    res = disks.resolve(params)
    shapes = (np.arange(1, params.n + 1) + params.alpha) / params.b
    # counting R_j < r_l is counting G_j < n r_l^(2b); a threshold that
    # overflows to inf counts every particle, as it should
    with np.errstate(over="ignore"):
        thresholds = params.n * res.radii ** (2.0 * params.b)
    counts = np.empty((num_samples, res.p), dtype=np.int64)

    def fill(lo: int, hi: int) -> None:
        for idx in range(lo, hi):
            counts[idx] = _sample_row(shapes, thresholds, seed, idx)

    if threads <= 1 or num_samples < 2 * threads:
        fill(0, num_samples)
    else:
        step = (num_samples + threads - 1) // threads
        bounds = [(lo, min(lo + step, num_samples)) for lo in range(0, num_samples, step)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda ab: fill(*ab), bounds))
    return SampleBatch(
        counts=counts, seed=seed, num_samples=num_samples, n=params.n, radii=res.radii
    )


@dataclass(frozen=True)
class McCumulants:
    """k-statistics (unbiased cumulant estimates) with jackknife errors.

    values[l, j-1] estimates cumulant order j of disk l; se is the matching
    delete-1 jackknife standard error.
    """

    values: np.ndarray  # (p, max_order)
    se: np.ndarray  # (p, max_order)
    max_order: int


def _kstats(m2: np.ndarray, m3: np.ndarray, m4: np.ndarray, s) -> tuple:
    # unbiased k-statistics from central moments of a size-s sample
    k2 = s / (s - 1.0) * m2
    k3 = s * s / ((s - 1.0) * (s - 2.0)) * m3
    k4 = s * s * ((s + 1.0) * m4 - 3.0 * (s - 1.0) * m2 * m2) / (
        (s - 1.0) * (s - 2.0) * (s - 3.0)
    )
    return k2, k3, k4


def mc_cumulants(batch: SampleBatch, max_order: int = 4) -> McCumulants:
    """Unbiased cumulant estimates through order <= 4 with jackknife SEs."""
    if not 1 <= max_order <= 4:
        raise ValueError(f"max_order must be in 1..4, got {max_order!r}")
    S = batch.num_samples
    if S < 10 * max_order:
        raise ValueError(f"need at least {10 * max_order} samples, got {S}")
    p = batch.counts.shape[1]
    values = np.zeros((p, max_order))
    se = np.zeros((p, max_order))
    for l in range(p):
        x = batch.counts[:, l].astype(float)
        mean = x.mean()
        c = x - mean  # center first: raw power sums of counts^4 overflow 2^53
        pw2, pw3, pw4 = np.sum(c**2), np.sum(c**3), np.sum(c**4)
        m2, m3, m4 = pw2 / S, pw3 / S, pw4 / S
        k2, k3, k4 = _kstats(m2, m3, m4, float(S))
        full = [mean, k2, k3, k4]
        # delete-1 jackknife, vectorized over the deleted index
        Sm = float(S - 1)
        mu_i = -c / Sm  # mean of centered data with sample i removed
        r2 = (pw2 - c**2) / Sm
        r3 = (pw3 - c**3) / Sm
        r4 = (pw4 - c**4) / Sm
        m2_i = r2 - mu_i**2
        m3_i = r3 - 3.0 * mu_i * r2 + 2.0 * mu_i**3
        m4_i = r4 - 4.0 * mu_i * r3 + 6.0 * mu_i**2 * r2 - 3.0 * mu_i**4
        k2_i, k3_i, k4_i = _kstats(m2_i, m3_i, m4_i, Sm)
        loo = [mean + mu_i, k2_i, k3_i, k4_i]
        for j in range(max_order):
            values[l, j] = full[j]
            theta = loo[j]
            se[l, j] = math.sqrt(max((S - 1) / S * np.sum((theta - theta.mean()) ** 2), 0.0))
    return McCumulants(values=values, se=se, max_order=max_order)

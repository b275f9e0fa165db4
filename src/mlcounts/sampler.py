"""Monte Carlo sampling of disk counts via the independent-moduli law.

Rotation invariance makes the squared moduli of the ensemble independent,
|z_j|^(2b) = G_j/n with G_j ~ Gamma((j+alpha)/b, 1) (the 2D analogue of
Kostlan's observation), so particle j lies in disk l exactly when
G_j < n r_l^(2b), and a sample of all p disk counts is p threshold counts
over one vector of gamma draws.

Only the rows of the exact engine's saturation window (prefactor at least
e^-60 in some disk) are drawn.  A row below a disk's window is inside it with
probability at least 1 - e^-60, a row above with probability at most e^-60,
so those rows enter each count as a constant: the law is that of all n
draws up to the e^-60 saturation the exact engine also accepts.

Samples come in blocks of SAMPLE_BLOCK.  Block k draws its (block, w) gammas
on the w window rows, sample by sample, from one Philox stream keyed
(seed, k) (counter-based streams, Salmon et al., SC'11).  Sample s therefore
depends only on (seed, s): results are reproducible, prefix-stable (a longer
run extends a shorter one) and independent of the thread count, which only
spreads the blocks over workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import DiskSystem, EnsembleParams, saturation_window
from .specfun import SATURATED_LOG_PREFACTOR

__all__ = ["SAMPLE_BLOCK", "McCumulants", "SampleBatch", "mc_cumulants", "sample_counts"]

# samples per Philox stream; part of the stream contract
SAMPLE_BLOCK = 256


@dataclass(frozen=True)
class SampleBatch:
    """Disk counts per sample; counts[s, l] = N(D_{r_l}) in sample s."""

    counts: np.ndarray  # (num_samples, p) int64
    seed: int
    num_samples: int


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
    win = saturation_window(params, res.radii, SATURATED_LOG_PREFACTOR)
    shapes = (win.rows + 1 + params.alpha) / params.b
    counts = np.empty((num_samples, res.p), dtype=np.int64)

    def fill(k: int) -> None:
        lo, hi = k * SAMPLE_BLOCK, min((k + 1) * SAMPLE_BLOCK, num_samples)
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, k], dtype=np.uint64)
        g = np.random.Generator(np.random.Philox(key=key)).standard_gamma(
            shapes, size=(hi - lo, len(shapes))
        )
        for l, zl in enumerate(win.z):
            counts[lo:hi, l] = win.ones[l] + np.count_nonzero(g < zl, axis=1)

    # imported here: concurrent.futures (and logging with it) is ~10 ms of
    # every process's import that only sampling needs
    from concurrent.futures import ThreadPoolExecutor

    blocks = range(-(-num_samples // SAMPLE_BLOCK))
    with ThreadPoolExecutor(max_workers=min(threads, len(blocks))) as pool:
        list(pool.map(fill, blocks))
    return SampleBatch(counts=counts, seed=seed, num_samples=num_samples)


@dataclass(frozen=True)
class McCumulants:
    """k-statistics (unbiased cumulant estimates) with jackknife errors.

    values[l, j-1] estimates cumulant order j of disk l; se is the matching
    delete-1 jackknife standard error.
    """

    values: np.ndarray  # (p, max_order)
    se: np.ndarray  # (p, max_order)


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
    return McCumulants(values=values, se=se)

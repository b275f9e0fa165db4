"""Monte Carlo sampling of disk counts on the exact engine's profile.

Rotation invariance makes the squared moduli of the ensemble independent,
|z_j|^(2b) = G_j/n with G_j ~ Gamma((j+alpha)/b, 1) (the 2D analogue of
Kostlan's observation), so particle j lies in disk l exactly when
G_j < n r_l^(2b), with probability P_jl, the exact engine's profile entry.
Under the inverse-transform coupling G_j = F_j^(-1)(U_j), U_j uniform on
[0, 1), that event is U_j < P_jl for every l at once.  A sample of all p
disk counts is therefore p threshold counts over one vector of uniforms
against the profile columns, with the joint law, nesting included, of the
threshold counts over the G_j.

The profile is taken at u = 0, where its window is the rows whose prefactor
reaches e^-60 in some disk.  A row below a disk's window is inside it with
probability at least 1 - e^-60, a row above with probability at most e^-60,
so those rows enter each count as a constant: the law is that of all n
particles up to the e^-60 saturation the exact engine also accepts.  A P_jl
near 1 is rounded to a double, which moves a row's inclusion probability by
at most ~1e-16.

Samples come in blocks of SAMPLE_BLOCK.  Block k draws its (block, w)
uniforms on the w window rows, sample by sample, from one Philox stream
keyed (seed mod 2^64, k) (counter-based streams, Salmon et al., SC'11).
Sample s therefore depends only on (seed, s): results are reproducible,
prefix-stable (a longer run extends a shorter one) and independent of the
thread count, which only spreads the blocks over workers; one worker runs
them in the calling thread.  Philox fills row by row, so a block is drawn
into one reused buffer in runs of samples of at most _DRAW_BUDGET doubles
with the numbers of one (block, w) draw.  Each disk compares only its rows
from the first with Pw < 1 to the last with Pw > 0: a uniform in [0, 1) is
below every Pw = 1 and no Pw = 0, so the rows before count as a constant
and the rows after add nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import DiskSystem, EnsembleParams, bernoulli_profile, is_int

__all__ = ["SAMPLE_BLOCK", "McCumulants", "SampleBatch", "mc_cumulants", "sample_counts"]

# samples per Philox stream; part of the stream contract
SAMPLE_BLOCK = 256
# doubles per draw run (256 KiB), or one sample's w where that is longer:
# Philox fills row by row, so the runs of a block hold the numbers of one
# (block, w) draw and the run size is no part of the stream contract
_DRAW_BUDGET = 1 << 15


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
    """Draw `num_samples` independent copies of the joint disk counts from
    the streams of `seed` over at most `threads` workers.  num_samples and
    threads are ints >= 1 and seed an int, else a ValueError names them."""
    if not (is_int(num_samples) and num_samples >= 1):
        raise ValueError(f"num_samples must be an int >= 1, got {num_samples!r}")
    if not is_int(seed):
        raise ValueError(f"seed must be an int, got {seed!r}")
    if not (is_int(threads) and threads >= 1):
        raise ValueError(f"threads must be an int >= 1, got {threads!r}")
    profile = bernoulli_profile(params, disks.unweighted())
    Pw = profile.Pw
    w, p = Pw.shape
    counts = np.empty((num_samples, p), dtype=np.int64)
    active = []  # (disk, its rows [lo, hi), their Pw)
    for l, col in enumerate(Pw.T):
        lo = int(np.logical_and.accumulate(col == 1.0).sum())  # leading rows with Pw = 1
        hi = w - int(np.logical_and.accumulate(col[::-1] == 0.0).sum())  # before the trailing Pw = 0
        counts[:, l] = profile.ones[l] + lo
        if lo < hi:
            active.append((l, slice(lo, hi), col[lo:hi]))
    blocks = range(-(-num_samples // SAMPLE_BLOCK))
    step = min(max(1, _DRAW_BUDGET // max(w, 1)), SAMPLE_BLOCK, num_samples)  # samples per run
    stream = int(seed) & 0xFFFFFFFFFFFFFFFF

    def fill(ks: range) -> None:
        buf = np.empty((step, w))
        for k in ks:
            key = np.array([stream, k], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            end = min((k + 1) * SAMPLE_BLOCK, num_samples)
            for start in range(k * SAMPLE_BLOCK, end, step):
                stop = min(start + step, end)
                U = rng.random(out=buf[: stop - start])
                for l, rows, col in active:
                    counts[start:stop, l] += np.count_nonzero(U[:, rows] < col, axis=1)

    workers = min(threads, len(blocks))
    if workers == 1:
        fill(blocks)
    else:
        # imported here: concurrent.futures (and logging with it) is ~10 ms
        # of every process's import that only multi-worker sampling needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, [blocks[i::workers] for i in range(workers)]))
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
    if not (is_int(max_order) and 1 <= max_order <= 4):
        raise ValueError(f"max_order must be an int in 1..4, got {max_order!r}")
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
        # powers as products: numpy calls pow() per entry for c**3 and c**4
        c2 = c * c
        c3, c4 = c2 * c, c2 * c2
        pw2, pw3, pw4 = np.sum(c2), np.sum(c3), np.sum(c4)
        m2, m3, m4 = pw2 / S, pw3 / S, pw4 / S
        k2, k3, k4 = _kstats(m2, m3, m4, float(S))
        full = [mean, k2, k3, k4]
        # delete-1 jackknife, vectorized over the deleted index
        Sm = float(S - 1)
        mu_i = -c / Sm  # mean of centered data with sample i removed
        mu2 = mu_i * mu_i
        r2 = (pw2 - c2) / Sm
        r3 = (pw3 - c3) / Sm
        r4 = (pw4 - c4) / Sm
        m2_i = r2 - mu2
        m3_i = r3 - 3.0 * mu_i * r2 + 2.0 * mu2 * mu_i
        m4_i = r4 - 4.0 * mu_i * r3 + 6.0 * mu2 * r2 - 3.0 * mu2 * mu2
        k2_i, k3_i, k4_i = _kstats(m2_i, m3_i, m4_i, Sm)
        loo = [mean + mu_i, k2_i, k3_i, k4_i]
        for j in range(max_order):
            values[l, j] = full[j]
            theta = loo[j]
            se[l, j] = math.sqrt(max((S - 1) / S * np.sum((theta - theta.mean()) ** 2), 0.0))
    return McCumulants(values=values, se=se)

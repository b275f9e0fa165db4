import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from mlcounts.exact import (
    Disk,
    DiskSystem,
    EnsembleParams,
    bernoulli_profile,
    log_mgf_exact,
    mean_var_exact,
)
from mlcounts import sampler
from mlcounts.sampler import SAMPLE_BLOCK, mc_cumulants, sample_counts
from mlcounts.specfun import reg_lower_gamma


def _disks(*radii):
    return DiskSystem([Disk.fixed(r) for r in radii])


def test_reproducible_and_order_independent():
    # four blocks, so that threads=4 runs blocks in parallel
    params = EnsembleParams(b=1.0, alpha=0.0, n=50)
    disks = _disks(0.4, 0.8)
    S = 3 * SAMPLE_BLOCK + 40
    a = sample_counts(params, disks, S, seed=123)
    b = sample_counts(params, disks, S, seed=123)
    np.testing.assert_array_equal(a.counts, b.counts)
    c = sample_counts(params, disks, S, seed=123, threads=4)
    np.testing.assert_array_equal(a.counts, c.counts)
    d = sample_counts(params, disks, S, seed=124)
    assert np.any(d.counts != a.counts)


def test_prefix_stability():
    # sample s depends only on (seed, s): a longer run extends a shorter one,
    # also when the shorter one stops inside a block and the longer one
    # crosses that block's end
    params = EnsembleParams(b=2.0, alpha=0.5, n=30)
    disks = _disks(0.5)
    long = sample_counts(params, disks, 3 * SAMPLE_BLOCK + 5, seed=9)
    for S in (50, SAMPLE_BLOCK + 50):
        short = sample_counts(params, disks, S, seed=9)
        np.testing.assert_array_equal(short.counts, long.counts[:S])


def test_counts_nested_and_bounded():
    params = EnsembleParams(b=0.5, alpha=-0.4, n=40)
    disks = _disks(0.3, 0.9, 1.8)
    batch = sample_counts(params, disks, 500, seed=3)
    assert np.all(batch.counts >= 0)
    assert np.all(batch.counts <= 40)
    assert np.all(np.diff(batch.counts, axis=1) >= 0)


def test_n1_bernoulli_mean():
    params = EnsembleParams(b=1.0, alpha=0.0, n=1)
    r = 0.9
    batch = sample_counts(params, _disks(r), 100_000, seed=11)
    pval = reg_lower_gamma(1.0, r * r)
    assert set(np.unique(batch.counts)) <= {0, 1}
    sigma = math.sqrt(pval * (1 - pval) / batch.num_samples)
    assert abs(batch.counts.mean() - pval) <= 4 * sigma


def test_mean_matches_exact_within_4_sigma():
    params = EnsembleParams(b=1.0, alpha=0.0, n=200)
    disks = _disks(0.6)
    means, cov = mean_var_exact(params, disks)
    batch = sample_counts(params, disks, 20_000, seed=21)
    se = math.sqrt(cov[0, 0] / batch.num_samples)
    assert abs(batch.counts[:, 0].mean() - means[0]) <= 4 * se


def test_empirical_mgf_matches_exact():
    params = EnsembleParams(b=1.0, alpha=0.0, n=200)
    u = 0.2
    disks = DiskSystem([Disk.fixed(0.6, u)])
    batch = sample_counts(params, _disks(0.6), 50_000, seed=5)
    emp = np.exp(u * batch.counts[:, 0]).mean()
    want = math.exp(log_mgf_exact(params, disks))
    assert abs(emp / want - 1.0) <= 5.0 / math.sqrt(batch.num_samples)


def test_block_stream_contract():
    # the documented stream contract: block k (samples k*SAMPLE_BLOCK onward)
    # draws its (block, w) uniforms on the w window rows of the exact engine
    # from one Philox stream keyed (seed, k), and counts particle j in disk l
    # when its uniform lies below the profile entry P_jl at u = 0, whatever
    # the disks' weights; rows below the window count as inside, rows above
    # as outside
    params = EnsembleParams(b=1.5, alpha=0.3, n=2000)
    disks = _disks(0.5, 0.6)
    seed, S = 77, 2 * SAMPLE_BLOCK + 100
    weighted = DiskSystem([Disk.fixed(0.5, 3.0), Disk.fixed(0.6, -2.0)])
    batch = sample_counts(params, weighted, S, seed=seed)
    prof = bernoulli_profile(params, disks)
    assert prof.ones[0] > 0 and prof.rows[-1] < params.n - 1
    for k in range(3):
        lo, hi = k * SAMPLE_BLOCK, min((k + 1) * SAMPLE_BLOCK, S)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))
        U = rng.random((hi - lo, len(prof.rows)))
        want = prof.ones + np.count_nonzero(U[:, :, None] < prof.Pw, axis=1)
        np.testing.assert_array_equal(batch.counts[lo:hi], want)


# SHA-256 of the int64 counts, frozen from the whole-block sampler (one
# (block, w) draw per block, every window row compared in every disk).
# Config B at n = 1e5 (disjoint runs; the edge disk's run is cut by row
# n - 1, the outside disk's is empty; nonzero weights) and config D-like
# overlapping runs at n = 1e4, each for p = 1..4, draw 2 blocks and a partial
# one; the last case has a row longer than a draw run (w = 43,806).
_CONFIG_B = (2.0, 0.5, 10**5, [Disk.fixed(0.45, 0.2), Disk.fixed(0.55, 0.3), Disk.edge(0.3, 0.1),
                               Disk.fixed(1.2, 0.4)])
_CONFIG_D = (1.0, 0.0, 10**4, [Disk.fixed(0.5985), Disk.fixed(0.6298), Disk.fixed(0.66, -0.5),
                               Disk.fixed(0.69, 1.5)])
_STREAM_DIGESTS = {
    ("disjoint", 1): "ce9ebc3a5ded9920013004a569ab4ac1d30c051d8d27aefb9153609d87df3043",
    ("disjoint", 2): "d7eff7b8c454024f3712b1d166f05714400edadfa75e1c98cd776eb2fce27692",
    ("disjoint", 3): "5d7d2ab11e27e9f8b002c543de409b79f3d24a2a872591edd332a52b08c99f05",
    ("disjoint", 4): "9c3d312eb63f2d1fbcd32bc3e025cf3a30d5fc442438f56816d2a72e9aa66796",
    ("overlapping", 1): "fb717bdd9c03f49edd8f6f8230e49e4736d5595fd6afaf15a4bbe82b27035079",
    ("overlapping", 2): "eff07270fc2589cd7edfdcc36823b864e0e196fee06b5f451107561988d7f978",
    ("overlapping", 3): "abbf4f5877670d87ee0c9bdbc9ed585d8f1147ee30233724f66fa69d6fa0890a",
    ("overlapping", 4): "e5260d12ba21c76120f4ea35d87e1d3b9422a1c2d721d6795a6cc94b04d001f8",
    ("long row", 1): "63f4ee2afcbf368d002ca3c47b41d0e448e57250c532055a2061e9375ee4a20f",
}


def _stream_case(kind, p):
    if kind == "long row":
        return EnsembleParams(b=1.0, alpha=0.0, n=10**7), _disks(0.6), SAMPLE_BLOCK + 5, 5
    b, alpha, n, disks = _CONFIG_B if kind == "disjoint" else _CONFIG_D
    return EnsembleParams(b=b, alpha=alpha, n=n), DiskSystem(disks[:p]), 2 * SAMPLE_BLOCK + 100, 2024 + p


def test_stream_cases_cover_their_shapes():
    # the frozen cases hold what their names say
    from mlcounts.exact import _window

    def runs(kind, p):
        params, disks, _, _ = _stream_case(kind, p)
        return _window(params, disks.unweighted()).columns

    b = runs("disjoint", 4)
    assert b[0].stop < b[1].start and b[1].stop < b[2].start and not b[3]
    assert b[2].stop == 10**5
    d = runs("overlapping", 4)
    assert all(x.start < y.start < x.stop for x, y in zip(d, d[1:]))
    params, disks, _, _ = _stream_case("long row", 1)
    assert len(bernoulli_profile(params, disks).rows) > sampler._DRAW_BUDGET


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(_STREAM_DIGESTS))
def test_counts_match_frozen_stream_digest(case, threads):
    params, disks, S, seed = _stream_case(*case)
    counts = sample_counts(params, disks, S, seed=seed, threads=threads).counts
    assert counts.dtype == np.int64 and counts.flags.c_contiguous
    assert hashlib.sha256(counts.tobytes()).hexdigest() == _STREAM_DIGESTS[case]


@pytest.mark.parametrize("rows", [1, 7, 100, 149])
def test_chunked_draw_keeps_the_stream(monkeypatch, rows):
    # a block drawn in runs of `rows` samples gets the numbers of one
    # (block, w) draw
    params = EnsembleParams(b=1.5, alpha=0.3, n=2000)
    disks = _disks(0.5, 0.6)
    w = len(bernoulli_profile(params, disks).rows)
    S = 2 * SAMPLE_BLOCK + 100
    monkeypatch.setattr(sampler, "_DRAW_BUDGET", SAMPLE_BLOCK * w)
    whole = sample_counts(params, disks, S, seed=77).counts
    monkeypatch.setattr(sampler, "_DRAW_BUDGET", rows * w + w - 1)
    np.testing.assert_array_equal(sample_counts(params, disks, S, seed=77, threads=2).counts, whole)


def test_draw_memory_is_bounded(monkeypatch):
    # past the profile, sampling holds two draw runs at most (the buffer
    # and its comparisons), and the whole call, profile evaluation
    # included, under a third of one (block, w) draw (SAMPLE_BLOCK w
    # doubles, 90 MB here)
    params = EnsembleParams(b=1.0, alpha=0.0, n=10**7)
    disks = _disks(0.6)
    built, build_peak = [], []

    def profile_then_reset_peak(params, disks):
        built.append(bernoulli_profile(params, disks))
        build_peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return built[-1]

    # a first Philox stream imports modules (~0.9 MB traced); keep them out
    sample_counts(EnsembleParams(b=1.0, alpha=0.0, n=5), disks, 1, seed=0)
    monkeypatch.setattr(sampler, "bernoulli_profile", profile_then_reset_peak)
    tracemalloc.start()
    try:
        sample_counts(params, disks, SAMPLE_BLOCK, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (prof,) = built
    w = len(prof.rows)
    assert w > 40_000
    arrays = sum(a.nbytes for a in (prof.rows, prof.log_P, prof.log_Q, prof.Pw))
    assert peak < arrays + 2 * 8 * max(sampler._DRAW_BUDGET, w)
    assert max(build_peak[0], peak) < SAMPLE_BLOCK * w * 8 / 3


def _poisson_binomial(probs):
    """PMF of a sum of independent Bernoulli(probs) (Hong, CSDA 2013), O(w^2)."""
    pmf = np.zeros(len(probs) + 1)
    pmf[0] = 1.0
    for m, q in enumerate(probs, start=1):
        pmf[1 : m + 1] = pmf[1 : m + 1] * (1.0 - q) + pmf[:m] * q
        pmf[0] *= 1.0 - q
    return pmf


def test_whole_distribution_matches_poisson_binomial():
    # p = 1: the count is the saturated ones plus a Poisson-binomial sum over
    # the window rows; chi-square over bins with >= 5 expected, tails merged
    params = EnsembleParams(b=1.0, alpha=0.0, n=1000)
    disks = _disks(0.6)
    S = 100_000
    prof = bernoulli_profile(params, disks)
    pmf = _poisson_binomial(prof.Pw[:, 0])
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    batch = sample_counts(params, disks, S, seed=2013)
    k = batch.counts[:, 0] - prof.ones[0]
    assert k.min() >= 0 and k.max() <= len(prof.rows)
    observed = np.bincount(k, minlength=len(pmf)).astype(float)
    expected = S * pmf
    keep = np.flatnonzero(expected >= 5.0)
    lo, hi = keep[0], keep[-1]
    obs = observed[lo : hi + 1].copy()
    exp = expected[lo : hi + 1].copy()
    obs[0] += observed[:lo].sum()
    exp[0] += expected[:lo].sum()
    obs[-1] += observed[hi + 1 :].sum()
    exp[-1] += expected[hi + 1 :].sum()
    stat = float(np.sum((obs - exp) ** 2 / exp))
    assert len(obs) > 20
    assert chi2.sf(stat, len(obs) - 1) > 1e-4


@st.composite
def _sample_configs(draw):
    b = draw(st.floats(0.3, 3.0))
    alpha = draw(st.floats(-0.9, 2.0))
    n = draw(st.integers(1, 2000))
    rstar = b ** (-1 / (2 * b))
    p = draw(st.integers(1, 3))
    scaled = sorted(draw(st.lists(st.floats(0.001, 3.0), min_size=p, max_size=p, unique=True)))
    radii = [rstar * x for x in scaled]
    if any(r2 - r1 <= 1e-9 * r2 for r1, r2 in zip(radii, radii[1:])):
        radii = [rstar * (0.2 + 0.3 * i) for i in range(p)]
    seed = draw(st.integers(-(2**63), 2**64 - 1))
    return EnsembleParams(b=b, alpha=alpha, n=n), radii, seed


@settings(max_examples=25, deadline=None)
@given(_sample_configs())
def test_counts_property_bounded_nested_thread_independent(config):
    params, radii, seed = config
    disks = _disks(*radii)
    S = 2 * SAMPLE_BLOCK + 37
    one = sample_counts(params, disks, S, seed=seed)
    three = sample_counts(params, disks, S, seed=seed, threads=3)
    np.testing.assert_array_equal(one.counts, three.counts)
    assert one.counts.shape == (S, len(radii))
    assert np.all(one.counts >= 0) and np.all(one.counts <= params.n)
    assert np.all(np.diff(one.counts, axis=1) >= 0)


def test_n2_joint_law_matches_density_oracle():
    # the independent-moduli representation is validated, not assumed: for
    # n = 2 the joint count law must reproduce the probabilities implied by
    # the two-particle density, recovered here from quadrature MGF values
    import itertools

    import oracles

    b, alpha, r1, r2 = 1.0, 0.0, 0.6, 1.0
    atoms = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    u_pairs = list(itertools.product((0.0, 0.7, -0.9), (0.0, 0.5, -0.6)))
    design = np.array(
        [[math.exp(u1 * c1 + u2 * c2) for (c1, c2) in atoms] for (u1, u2) in u_pairs]
    )
    target = np.array(
        [math.exp(oracles.radial_log_mgf(b, alpha, 2, (r1, r2), (u1, u2))) for (u1, u2) in u_pairs]
    )
    probs, *_ = np.linalg.lstsq(design, target, rcond=None)
    assert probs.sum() == pytest.approx(1.0, abs=1e-8)
    assert np.all(probs > -1e-9)

    params = EnsembleParams(b=b, alpha=alpha, n=2)
    batch = sample_counts(params, _disks(r1, r2), 40_000, seed=99)
    for (c1, c2), p in zip(atoms, probs):
        freq = np.mean((batch.counts[:, 0] == c1) & (batch.counts[:, 1] == c2))
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / batch.num_samples)
        assert abs(freq - p) <= 4 * sigma + 1e-4


def test_sampler_input_validation():
    params = EnsembleParams(b=1.0, alpha=0.0, n=5)
    with pytest.raises(ValueError):
        sample_counts(params, _disks(0.5), 0, seed=1)


@pytest.mark.parametrize("threads", [0, -2, 1.5, True, "2", None])
def test_threads_must_be_a_positive_int(threads):
    params = EnsembleParams(b=1.0, alpha=0.0, n=5)
    with pytest.raises(ValueError, match="threads"):
        sample_counts(params, _disks(0.5), 10, seed=1, threads=threads)


@pytest.mark.parametrize("name, value", [("num_samples", 2.5), ("num_samples", True), ("num_samples", -3),
                                         ("seed", 1.5), ("seed", None), ("seed", True), ("seed", "7")])
def test_num_samples_and_seed_must_be_ints(name, value):
    # these used to escape as TypeError (True ran as one sample)
    params = EnsembleParams(b=1.0, alpha=0.0, n=5)
    with pytest.raises(ValueError, match=name):
        sample_counts(params, _disks(0.5), **{"num_samples": 10, "seed": 1, name: value})


def test_numpy_integer_arguments_keep_the_stream():
    # a numpy seed used to overflow in the stream key
    params = EnsembleParams(b=1.0, alpha=0.0, n=50)
    for seed in (np.int64(-5), np.uint64(2**63 + 5)):
        want = sample_counts(params, _disks(0.6), 300, seed=int(seed)).counts
        got = sample_counts(params, _disks(0.6), np.int64(300), seed=seed).counts
        np.testing.assert_array_equal(got, want)


# --- mc_cumulants -------------------------------------------------------------


def test_mc_cumulants_constant_counts():
    params = EnsembleParams(b=1.0, alpha=0.0, n=3)
    # enormous disk: always 3 points inside
    batch = sample_counts(params, _disks(50.0), 500, seed=2)
    assert np.all(batch.counts == 3)
    stats = mc_cumulants(batch, max_order=4)
    assert stats.values[0, 0] == 3.0
    np.testing.assert_allclose(stats.values[0, 1:], 0.0, atol=1e-12)


def test_mc_order1_is_sample_mean():
    params = EnsembleParams(b=1.0, alpha=0.0, n=30)
    batch = sample_counts(params, _disks(0.7), 400, seed=4)
    stats = mc_cumulants(batch, max_order=2)
    assert stats.values[0, 0] == pytest.approx(batch.counts[:, 0].mean(), rel=1e-13)


def test_mc_variance_within_4_se_of_exact():
    params = EnsembleParams(b=1.0, alpha=0.0, n=1000)
    disks = _disks(0.6)
    batch = sample_counts(params, disks, 30_000, seed=6)
    stats = mc_cumulants(batch, max_order=2)
    _, cov = mean_var_exact(params, disks)
    assert abs(stats.values[0, 1] - cov[0, 0]) <= 4 * stats.se[0, 1]


def test_mc_kstat_unbiasedness_small_sample():
    # compare against direct h-statistic formulas on a tiny fixed sample
    params = EnsembleParams(b=1.0, alpha=0.0, n=10)
    batch = sample_counts(params, _disks(0.7), 60, seed=8)
    x = batch.counts[:, 0].astype(float)
    S = len(x)
    m = x.mean()
    m2 = ((x - m) ** 2).mean()
    m3 = ((x - m) ** 3).mean()
    stats = mc_cumulants(batch, max_order=3)
    assert stats.values[0, 1] == pytest.approx(S / (S - 1) * m2, rel=1e-12)
    assert stats.values[0, 2] == pytest.approx(S**2 / ((S - 1) * (S - 2)) * m3, rel=1e-11)


def test_mc_insufficient_samples():
    params = EnsembleParams(b=1.0, alpha=0.0, n=5)
    batch = sample_counts(params, _disks(0.5), 20, seed=1)
    with pytest.raises(ValueError):
        mc_cumulants(batch, max_order=4)


@pytest.mark.parametrize("max_order", [True, 2.5, 0, 5])
def test_mc_rejects_bad_max_order(max_order):
    # True used to run as order 1 and 2.5 to escape as TypeError
    batch = sample_counts(EnsembleParams(b=1.0, alpha=0.0, n=5), _disks(0.5), 50, seed=1)
    with pytest.raises(ValueError, match="max_order"):
        mc_cumulants(batch, max_order=max_order)


def test_mc_jackknife_se_scale():
    # SE of the mean must match sigma/sqrt(S)
    params = EnsembleParams(b=1.0, alpha=0.0, n=100)
    batch = sample_counts(params, _disks(0.6), 5000, seed=10)
    stats = mc_cumulants(batch, max_order=1)
    x = batch.counts[:, 0].astype(float)
    want = x.std(ddof=1) / math.sqrt(len(x))
    assert stats.se[0, 0] == pytest.approx(want, rel=1e-10)

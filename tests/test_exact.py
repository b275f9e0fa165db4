import json
import math
import pathlib
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincc, hyp1f1, gammaln

from mlcounts.exact import (
    Disk,
    DiskSystem,
    EnsembleParams,
    _log_annuli,
    bernoulli_profile,
    joint_cumulants_exact,
    log_mgf_exact,
    log_partition_exact,
    mean_var_exact,
    omega_weights,
    support_radius,
)
from mlcounts.asymptotics import bulk_cumulant_coeffs
from mlcounts import series
from mlcounts.series import MAX_ORDER
from mlcounts.specfun import log_reg_gamma_pq

import oracles


def _rng_config(rng):
    b = rng.choice([0.5, 1.0, 2.0])
    alpha = rng.choice([0.0, 0.5, -0.3])
    n = rng.randint(5, 200)
    rstar = b ** (-1 / (2 * b))
    radii = sorted(rng.uniform(0.2, 1.6) * rstar for _ in range(rng.randint(1, 3)))
    if any(r2 - r1 < 1e-6 for r1, r2 in zip(radii, radii[1:])):
        radii = [r + 1e-3 * i for i, r in enumerate(radii)]
    us = [rng.uniform(-1.2, 1.2) for _ in radii]
    params = EnsembleParams(b=b, alpha=alpha, n=n)
    disks = DiskSystem([Disk.fixed(r, u) for r, u in zip(radii, us)])
    return params, disks


# --- parameter and disk validation -------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        EnsembleParams(b=0.0, alpha=0.0, n=10)
    with pytest.raises(ValueError):
        EnsembleParams(b=1.0, alpha=-1.0, n=10)
    with pytest.raises(ValueError):
        EnsembleParams(b=1.0, alpha=0.0, n=0)
    assert support_radius(2.0) == pytest.approx(2.0 ** (-0.25))


def test_support_radius_out_of_range_names_b():
    # b^(-1/(2b)) overflows a float for b below ~0.0039
    for make in (lambda: support_radius(1e-5), lambda: EnsembleParams(b=1e-5, alpha=0.0, n=10)):
        with pytest.raises(ValueError, match=r"b = 1e-05"):
            make()
    assert support_radius(0.004) == pytest.approx(0.004 ** -125.0, rel=1e-12)


def test_edge_radius_out_of_range_names_disk():
    # just above the support-radius cutoff, b^(-1/(2b)) is finite but the
    # edge radius b^(-1/(2b)) (1 + sqrt(2b) s/sqrt(n))^(1/(2b)) is not
    params = EnsembleParams(b=0.00395, alpha=0.0, n=10)
    for disks in (DiskSystem([Disk.edge(3.0, 1.0)]),
                  DiskSystem([Disk.fixed(0.5), Disk.edge(3.0, 1.0)])):
        with pytest.raises(ValueError, match=r"s = 3\.0 .* b = 0\.00395, n = 10"):
            disks.resolve(params)
        with pytest.raises(ValueError, match=r"s = 3\.0"):
            log_mgf_exact(params, disks)
    # the power itself overflowing is reported the same way
    with pytest.raises(ValueError, match=r"s = 1e\+32 .* b = 0\.05, n = 10"):
        DiskSystem([Disk.edge(1e32)]).resolve(EnsembleParams(b=0.05, alpha=0.0, n=10))
    # the same disk at s = 0 resolves to the support radius itself
    assert DiskSystem([Disk.edge(0.0)]).resolve(params)[0] == support_radius(0.00395)


def test_disk_validation():
    with pytest.raises(ValueError):
        Disk(u=0.0)  # neither r nor s
    with pytest.raises(ValueError):
        Disk(u=0.0, r=1.0, s=0.0)  # both
    with pytest.raises(ValueError):
        Disk.fixed(-1.0)
    with pytest.raises(ValueError):
        DiskSystem([Disk.edge(0.0), Disk.edge(1.0)])  # two edges


def test_resolve_orders_and_classifies():
    params = EnsembleParams(b=1.0, alpha=0.0, n=100)
    disks = DiskSystem([Disk.fixed(0.5), Disk.edge(0.0), Disk.fixed(1.5)])
    radii = disks.resolve(params)
    assert radii[0] < radii[1] < radii[2]
    assert radii[1] == pytest.approx(1.0)
    assert disks.classify(params.b) == (("bulk", 0.5), ("edge", 0.0), ("outside", 1.5))


def test_fixed_radius_at_support_edge_is_edge():
    disks = DiskSystem([Disk.fixed(1.0)])
    assert disks.classify(1.0) == (("edge", 0.0),)


def test_resolve_rejects_equal_radii():
    params = EnsembleParams(b=1.0, alpha=0.0, n=10)
    with pytest.raises(ValueError):
        DiskSystem([Disk.fixed(0.5), Disk.fixed(0.5 * (1 + 1e-14))]).resolve(params)
    with pytest.raises(ValueError):
        DiskSystem([Disk.fixed(0.7), Disk.fixed(0.4)]).resolve(params)


def test_edge_resolution_requires_positive_factor():
    params = EnsembleParams(b=1.0, alpha=0.0, n=4)
    with pytest.raises(ValueError):
        DiskSystem([Disk.edge(-3.0)]).resolve(params)  # 1 + sqrt2*s/2 < 0


def _exp_tails(u):
    """Omega_l = e^(u_l+...+u_p) for l=1..p plus the closing Omega_{p+1} = 1."""
    return np.exp(np.concatenate([np.cumsum(u[::-1])[::-1], [0.0]]))


def test_omega_weights_identities():
    rng = random.Random(5)
    for _ in range(50):
        u = np.array([rng.uniform(-2, 2) for _ in range(rng.randint(1, 4))])
        om = omega_weights(u)
        tails = _exp_tails(u)
        # Omega_l = sum_{k >= l} omega_k with omega_{p+1} = 1
        p = len(u)
        for l in range(p):
            assert tails[l] == pytest.approx(om[l:].sum() + 1.0, rel=1e-13)


def test_omega_weights_overflow_to_inf():
    with np.errstate(over="raise"):
        om = omega_weights(np.array([800.0, 0.5]))
    assert math.isinf(om[0]) and om[1] == pytest.approx(math.expm1(0.5), rel=1e-15)


# --- profile ------------------------------------------------------------------


def test_profile_n1_value():
    params = EnsembleParams(b=1.0, alpha=0.0, n=1)
    prof = bernoulli_profile(params, DiskSystem([Disk.fixed(1.0)]))
    assert prof.P[0, 0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)


def test_profile_tiny_radius_column_is_zero():
    params = EnsembleParams(b=1.0, alpha=0.0, n=30)
    prof = bernoulli_profile(params, DiskSystem([Disk.fixed(1e-12), Disk.fixed(0.6)]))
    assert np.all(prof.P[:, 0] < 1e-20)


def test_profile_transition_location():
    # P[j] ~ 1 well below j ~ b n r^(2b), ~ 0 well above, transition O(sqrt n)
    n = 100
    params = EnsembleParams(b=1.0, alpha=0.0, n=n)
    prof = bernoulli_profile(params, DiskSystem([Disk.fixed(0.5)]))
    cut = 25  # b n r^2
    assert np.all(prof.P[:10, 0] > 0.99)
    assert np.all(prof.P[cut + 30 :, 0] < 0.01)
    assert 0.2 < prof.P[cut - 1, 0] < 0.8


def test_profile_invariants_random_sweep():
    rng = random.Random(9)
    for _ in range(25):
        params, disks = _rng_config(rng)
        prof = bernoulli_profile(params, disks)
        assert np.all(np.diff(prof.P, axis=1) >= -1e-13)  # row-monotone
        q = np.exp(_log_annuli(prof.log_P, prof.log_Q))
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)
        # the annuli inside disk l add up to P[j, l]
        np.testing.assert_allclose(np.cumsum(q, axis=1)[:, :-1], prof.Pw, atol=1e-13)
        lhs = 1.0 + prof.Pw @ omega_weights(disks.u)
        rhs = q @ _exp_tails(disks.u)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        # outside the window every row is one-hot: P is 0 or 1
        outside = np.setdiff1d(np.arange(params.n), prof.rows)
        assert np.all((prof.P[outside] == 0.0) | (prof.P[outside] == 1.0))
        assert prof.saturated.sum() == len(outside)


def test_profile_matches_scalar_specfun():
    from mlcounts.specfun import reg_lower_gamma

    params = EnsembleParams(b=2.0, alpha=0.5, n=50)
    disks = DiskSystem([Disk.fixed(0.6), Disk.fixed(0.9)])
    prof = bernoulli_profile(params, disks)
    radii = disks.resolve(params)
    for j in (0, 10, 24, 49):
        for l in (0, 1):
            direct = reg_lower_gamma((j + 1 + 0.5) / 2.0, 50.0 * radii[l] ** 4)
            assert abs(prof.P[j, l] - direct) <= 1e-15


_CONFIG_B = (2.0, 0.5, [Disk.fixed(0.45, 0.2), Disk.fixed(0.55, 0.3), Disk.edge(0.3, 0.1),
                        Disk.fixed(1.2, 0.4)])
_UNION_CASES = {
    # four disks, one at the edge: disjoint windows at n = 1e6, and the
    # outside disk's window is empty at every n
    "disjoint": (10**6, *_CONFIG_B),
    "overlapping": (10**4, 1.0, 0.0, [Disk.fixed(0.6), Disk.fixed(0.63)]),
    "empty column": (1000, 1.0, 0.0, [Disk.fixed(1e-20, 0.5), Disk.fixed(0.6, -0.3)]),
    "all empty": (10**6, 2.0, 0.5, [Disk.fixed(1e-12), Disk.fixed(1.2)]),
}


@pytest.mark.parametrize("case", sorted(_UNION_CASES))
def test_window_is_union_of_column_runs(monkeypatch, case):
    # the window rows are the sorted distinct rows of the per-column runs;
    # the profile makes one evaluator call, over exactly the rows of the
    # non-empty runs at their own z, column after column, and none when
    # every run is empty
    import mlcounts.exact as exact

    runs, zs, calls = [], [], []
    column_window, evaluate = exact._column_window, exact.log_reg_gamma_pq

    def recording_window(params, z, threshold):
        out = column_window(params, z, threshold)
        runs.append(out[0])
        zs.append(z)
        return out

    def counting_evaluate(a, z):
        calls.append((np.array(a), np.broadcast_to(z, np.shape(a)).copy()))
        return evaluate(a, z)

    monkeypatch.setattr(exact, "_column_window", recording_window)
    monkeypatch.setattr(exact, "log_reg_gamma_pq", counting_evaluate)
    n, b, alpha, disks = _UNION_CASES[case]
    rows = bernoulli_profile(EnsembleParams(b=b, alpha=alpha, n=n), DiskSystem(disks)).rows
    want = np.unique(np.concatenate([np.arange(r.start, r.stop) for r in runs]))
    assert rows.dtype == want.dtype and np.array_equal(rows, want)
    live = [(r, z) for r, z in zip(runs, zs) if r]
    if live:
        (a, z), = calls
        assert np.array_equal(a, np.concatenate([(np.arange(r.start, r.stop) + 1 + alpha) / b
                                                 for r, _ in live]))
        assert np.array_equal(z, np.repeat([z for _, z in live], [len(r) for r, _ in live]))
    else:
        assert not calls
    if case == "disjoint":
        assert all(r1.stop < r2.start for r1, r2 in zip(runs, runs[1:3])) and not runs[3]
    elif case == "overlapping":
        assert runs[0].start < runs[1].start < runs[0].stop < runs[1].stop
    elif case == "empty column":
        assert not runs[0] and len(calls[0][0]) == len(runs[1])
    else:
        assert len(rows) == 0 and not calls


def test_union_merges_nested_touching_and_repeated_runs():
    from mlcounts.exact import _merge, _rows

    def _union(runs):
        return _rows(_merge(runs))

    runs = [range(20, 22), range(5, 9), range(0, 3), range(3, 4), range(6, 7), range(0),
            range(8, 12), range(20, 22), range(30, 31)]
    want = np.unique(np.concatenate([np.arange(r.start, r.stop) for r in runs]))
    assert np.array_equal(_union(runs), want)
    assert _union([range(0), range(4, 4)]).size == 0


# --- log MGF ------------------------------------------------------------------


def test_mgf_zero_at_u_zero_exactly():
    params = EnsembleParams(b=1.3, alpha=0.2, n=77)
    disks = DiskSystem([Disk.fixed(0.4), Disk.fixed(0.8)])
    assert log_mgf_exact(params, disks) == 0.0


def test_mgf_single_point_analytic():
    r, u = 0.7, 0.9
    params = EnsembleParams(b=1.0, alpha=0.0, n=1)
    got = log_mgf_exact(params, DiskSystem([Disk.fixed(r, u)]))
    want = math.log(1.0 + (math.exp(u) - 1.0) * (1.0 - math.exp(-(r * r))))
    assert got == pytest.approx(want, rel=1e-14)


def test_mgf_factorization_sweep():
    rng = random.Random(13)
    for _ in range(20):
        params, disks = _rng_config(rng)
        prof = bernoulli_profile(params, disks)
        om = omega_weights(disks.u)
        direct = float(np.prod(1.0 + prof.P @ om))
        assert math.exp(log_mgf_exact(params, disks)) == pytest.approx(direct, rel=1e-12)


def test_mgf_monotone_in_each_u():
    rng = random.Random(17)
    params, disks = _rng_config(rng)
    base = log_mgf_exact(params, disks)
    for k in range(len(disks.disks)):
        bumped = []
        for i, d in enumerate(disks.disks):
            bumped.append(Disk.fixed(d.r, d.u + (0.3 if i == k else 0.0)))
        assert log_mgf_exact(params, DiskSystem(bumped)) > base


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mgf_vs_radial_quadrature_oracle(n, b):
    for alpha in (0.0, 0.5):
        for radii, us in (((0.7,), (0.8,)), ((0.5, 0.9), (0.6, -0.4))):
            params = EnsembleParams(b=b, alpha=alpha, n=n)
            disks = DiskSystem([Disk.fixed(r, u) for r, u in zip(radii, us)])
            got = log_mgf_exact(params, disks)
            want = oracles.radial_log_mgf(b, alpha, n, radii, us)
            assert got == pytest.approx(want, abs=1e-9)


# --- partition function -------------------------------------------------------


def test_partition_n1():
    assert log_partition_exact(EnsembleParams(b=1.0, alpha=0.0, n=1)) == pytest.approx(
        math.log(math.pi), rel=1e-14
    )
    b, alpha = 1.7, 0.3
    got = log_partition_exact(EnsembleParams(b=b, alpha=alpha, n=1))
    want = math.log(math.pi / b) + math.lgamma((1 + alpha) / b)
    assert got == pytest.approx(want, rel=1e-14)


def test_partition_vs_mp_oracle():
    got = log_partition_exact(EnsembleParams(b=2.0, alpha=0.5, n=50))
    want = float(oracles.mp_log_partition(2.0, 0.5, 50))
    assert got == pytest.approx(want, rel=1e-11)


# --- cumulants ----------------------------------------------------------------


def test_first_two_cumulants_closed_forms():
    params = EnsembleParams(b=1.0, alpha=0.0, n=40)
    disks = DiskSystem([Disk.fixed(0.5), Disk.fixed(0.8)])
    prof = bernoulli_profile(params, disks)
    k1a, k2a, k11 = joint_cumulants_exact(params, disks, [(1, 0), (2, 0), (1, 1)])
    assert k1a == pytest.approx(prof.P[:, 0].sum(), rel=1e-13)
    assert k2a == pytest.approx((prof.P[:, 0] * (1 - prof.P[:, 0])).sum(), rel=1e-13)
    assert k11 == pytest.approx((prof.P[:, 0] * (1 - prof.P[:, 1])).sum(), rel=1e-12)


def test_order_two_cumulants_near_p_one_vs_mp():
    # outside the bulk (b = 1, n = 10, r = 1.5, 2) every P is near 1: a
    # variance built from 1 - P lost 8 digits there (4.98223794e-09 against
    # 4.9822379901193446e-09); Q from its own log keeps them
    from mpmath import mp

    params = EnsembleParams(b=1.0, alpha=0.0, n=10)
    (var,) = joint_cumulants_exact(params, DiskSystem([Disk.fixed(2.0)]), [2])
    (cov,) = joint_cumulants_exact(params, DiskSystem([Disk.fixed(1.5), Disk.fixed(2.0)]), [(1, 1)])
    with mp.workdps(40):
        z1, z2 = 10 * mp.mpf(1.5) ** 2, 10 * mp.mpf(2.0) ** 2

        def pq_sum(zp, zq):
            # sum_j P(j, zp) Q(j, zq), rows j = 1..n (shape j at b = 1, alpha = 0)
            return mp.fsum(mp.gammainc(j, 0, zp, regularized=True)
                           * mp.gammainc(j, zq, mp.inf, regularized=True) for j in range(1, 11))

        want_var, want_cov = float(pq_sum(z2, z2)), float(pq_sum(z1, z2))
    assert var == pytest.approx(want_var, rel=1e-13, abs=0.0)
    assert cov == pytest.approx(want_cov, rel=1e-13, abs=0.0)


def test_cumulants_order_cap():
    params = EnsembleParams(b=1.0, alpha=0.0, n=5)
    disks = DiskSystem([Disk.fixed(0.5)])
    assert math.isfinite(joint_cumulants_exact(params, disks, [MAX_ORDER])[0])
    with pytest.raises(ValueError):
        joint_cumulants_exact(params, disks, [MAX_ORDER + 1])
    with pytest.raises(ValueError):
        joint_cumulants_exact(params, disks, [(4, 3)])  # needs p=2 anyway


def test_cumulants_multi_index_shape_checks():
    params = EnsembleParams(b=1.0, alpha=0.0, n=5)
    two = DiskSystem([Disk.fixed(0.5), Disk.fixed(0.9)])
    with pytest.raises(ValueError):
        joint_cumulants_exact(params, two, [2])  # scalar order with p=2
    with pytest.raises(ValueError):
        joint_cumulants_exact(params, two, [(0, 0)])


@pytest.mark.parametrize("orders", [[(1.7,)], [(math.inf,)], [True], [(True,)], [1.7], [(np.float64(2.0),)]])
def test_cumulant_orders_must_be_integers(orders):
    # (1.7,) used to run as order 1, (inf,) to escape as OverflowError, and
    # True to run as order 1
    params, disks = EnsembleParams(b=1.0, alpha=0.0, n=5), DiskSystem([Disk.fixed(0.5)])
    with pytest.raises(ValueError, match="non-integer"):
        joint_cumulants_exact(params, disks, orders)


def test_numpy_integer_orders_and_n():
    params, disks = EnsembleParams(b=1.0, alpha=0.0, n=50), DiskSystem([Disk.fixed(0.5)])
    want = joint_cumulants_exact(params, disks, [1, (3,)])
    assert joint_cumulants_exact(params, disks, [np.int64(1), np.array([3])]) == want
    assert joint_cumulants_exact(EnsembleParams(1.0, 0.0, np.int64(50)), disks, [1, (3,)]) == want
    with pytest.raises(ValueError, match="n must be an integer"):
        EnsembleParams(b=1.0, alpha=0.0, n=True)


def test_cumulants_match_complex_step():
    rng = random.Random(23)
    for _ in range(6):
        params, disks = _rng_config(rng)
        p = len(disks.disks)
        prof = bernoulli_profile(params, disks)
        orders = [tuple(1 if i == k else 0 for i in range(p)) for k in range(p)]
        orders += [tuple(2 if i == k else 0 for i in range(p)) for k in range(p)]
        if p >= 2:
            orders.append(tuple(1 if i in (0, p - 1) else 0 for i in range(p)))
        got = joint_cumulants_exact(params, disks, orders)
        want = oracles.cumulants_by_complex_step(prof.P, p, orders)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-10)


def test_higher_cumulants_vs_univariate_formulas():
    # independent Bernoulli sums: k3 = sum p(1-p)(1-2p), k4 = sum p(1-p)(1-6p+6p^2)
    params = EnsembleParams(b=1.0, alpha=0.0, n=60)
    disks = DiskSystem([Disk.fixed(0.6)])
    prof = bernoulli_profile(params, disks)
    pcol = prof.P[:, 0]
    k3, k4 = joint_cumulants_exact(params, disks, [3, 4])
    assert k3 == pytest.approx(float(np.sum(pcol * (1 - pcol) * (1 - 2 * pcol))), rel=1e-11)
    assert k4 == pytest.approx(
        float(np.sum(pcol * (1 - pcol) * (1 - 6 * pcol + 6 * pcol**2))), rel=1e-10
    )


def _row_cumulants(P, k):
    """kappa_k of each row's nested disk indicators: E prod_{l in S} v_l = P[:, min S]."""
    support = [i for i, v in enumerate(k) if v]
    return series.cumulants(
        [k[i] for i in support], lambda a: P[:, min(i for i, v in zip(support, a) if v)]
    )


def test_recursion_consistent_with_closed_forms():
    params = EnsembleParams(b=2.0, alpha=0.5, n=30)
    disks = DiskSystem([Disk.fixed(0.4), Disk.fixed(0.7)])
    prof = bernoulli_profile(params, disks)
    rec = _row_cumulants(prof.P, (1, 1)).sum()
    closed = (prof.P[:, 0] * (1 - prof.P[:, 1])).sum()
    assert rec == pytest.approx(closed, rel=1e-12)


_FROZEN = json.loads((pathlib.Path(__file__).parent / "data" / "mp_oracles.json").read_text())
_ORACLE = _FROZEN["exact_cumulants"]


def _oracle_case():
    params = EnsembleParams(b=_ORACLE["b"], alpha=_ORACLE["alpha"], n=_ORACLE["n"])
    return params, DiskSystem([Disk.fixed(r) for r in _ORACLE["radii"]])


@pytest.mark.parametrize("key", sorted(_ORACLE["values"]))
def test_high_order_cumulants_vs_mp_oracle(key):
    # orders 7-12, univariate and mixed, against 50-digit mp.diff derivatives
    # of sum_j log sum_l q_jl e^(U_l) on the same window rows
    # (tests/oracles.py::mp_joint_cumulants, frozen by scripts/make_mp_oracles.py).
    # Tolerance: 1e-12 relative through order 8, 1e-11 for orders 9-12, where
    # per-row values of both signs cancel in the sum (3.1e-12 seen at (6, 6))
    k = tuple(int(v) for v in key.split(","))
    got = joint_cumulants_exact(*_oracle_case(), [k])[0]
    assert got == pytest.approx(_ORACLE["values"][key], rel=1e-12 if sum(k) <= 8 else 1e-11, abs=0.0)


def test_frozen_exact_oracle_is_current():
    params, disks = _oracle_case()
    live = oracles.mp_joint_cumulants(bernoulli_profile(params, disks).Pw, [(7, 0)])[0]
    assert live == pytest.approx(_ORACLE["values"]["7,0"], rel=1e-12, abs=0.0)


def test_mean_var_exact_properties():
    params = EnsembleParams(b=1.0, alpha=0.0, n=50)
    disks = DiskSystem([Disk.fixed(0.4), Disk.fixed(0.8)])
    means, cov = mean_var_exact(params, disks)
    ks = joint_cumulants_exact(params, disks, [(1, 0), (0, 1)])
    np.testing.assert_allclose(means, ks, rtol=1e-13)
    np.testing.assert_allclose(cov, cov.T)
    eig = np.linalg.eigvalsh(cov)
    assert np.all(eig >= -1e-12)


def test_mean_var_single_point():
    params = EnsembleParams(b=1.0, alpha=0.0, n=1)
    means, cov = mean_var_exact(params, DiskSystem([Disk.fixed(0.8)]))
    pval = 1.0 - math.exp(-0.64)
    assert means[0] == pytest.approx(pval, rel=1e-14)
    assert cov[0, 0] == pytest.approx(pval * (1 - pval), rel=1e-14)


def test_ginibre_bulk_variance_leading_order():
    # Var ~ r sqrt(n/pi) at leading order
    n, r = 1000, 0.6
    params = EnsembleParams(b=1.0, alpha=0.0, n=n)
    _, cov = mean_var_exact(params, DiskSystem([Disk.fixed(r)]))
    assert cov[0, 0] == pytest.approx(r * math.sqrt(n / math.pi), rel=0.02)


# SHA-256 of mean_var_exact's (means, cov) and of joint_cumulants_exact at every
# order-1 and order-2 multi-index, for p = 1..4, frozen from the engine in
# which mean_var_exact summed its own terms.  The configurations are the
# sampler's stream cases: config B at n = 1e5 (disjoint runs; the edge disk's
# run is cut by row n - 1, the outside disk's is empty) and config D-like
# overlapping runs at n = 1e4, each as chosen (integrals) and forced onto rows,
# and config B at n = 1e8 on the integral path.  Bit-level: another BLAS may
# round the integral's dot products differently.
_SECOND_ORDER_CASES = {
    "disjoint": (2.0, 0.5, 10**5, _CONFIG_B[2]),
    "overlapping": (1.0, 0.0, 10**4, [Disk.fixed(0.5985), Disk.fixed(0.6298), Disk.fixed(0.66, -0.5),
                                      Disk.fixed(0.69, 1.5)]),
    "integral": (2.0, 0.5, 10**8, _CONFIG_B[2]),
}
_SECOND_ORDER_DIGESTS = {
    ("disjoint", "chosen"): "9cb08515eddf613e9a98cd8a1560dd1cdb778da9deb27ce2e1e3958f63ecbb54",
    ("disjoint", "rows"): "d77c73aff3df48ca1a5ff0c10f076036304df9e123b90a1b2ef432f42a1c8f5c",
    ("overlapping", "chosen"): "d493dc564e41858cfe28e6d77fdb362454ec469cd1e667ad6302a7cd817dc8ee",
    ("overlapping", "rows"): "28999e5014a2c76e2dd29f03864cc418ffb5a9231ee314d7143d7124c9ea873e",
    ("integral", "chosen"): "a67de08ca6b35faffd187c96c4887276b82433e94e7960b4b7d22cd942a0e04d",
}


@pytest.mark.parametrize("case", sorted(_SECOND_ORDER_DIGESTS))
def test_second_order_statistics_match_frozen_digest(monkeypatch, case):
    import hashlib

    import mlcounts.exact as exact

    kind, path = case
    b, alpha, n, disks = _SECOND_ORDER_CASES[kind]
    params = EnsembleParams(b, alpha, n)
    if path == "rows":
        monkeypatch.setattr(exact, "_panels", lambda *args: 0)
    else:
        window = exact._window(params, DiskSystem(disks).unweighted())
        assert all(exact._panels(window, *run, 2) for run in window.runs)
    digest = hashlib.sha256()
    for p in range(1, 5):
        system = DiskSystem(disks[:p])
        orders = [tuple(int(i == l) + int(i == h) for i in range(p))
                  for l in range(p) for h in [None, *range(l, p)]]
        means, cov = mean_var_exact(params, system)
        cums = np.array(joint_cumulants_exact(params, system, orders))
        digest.update(means.tobytes() + cov.tobytes() + cums.tobytes())
    assert digest.hexdigest() == _SECOND_ORDER_DIGESTS[case]


# --- window and log-space MGF --------------------------------------------------


def _brute_force(params, disks, orders):
    """Log-MGF, means, covariances and cumulants over all n rows, no window."""
    radii = disks.resolve(params)
    shapes = (np.arange(1, params.n + 1) + params.alpha) / params.b
    logs = [log_reg_gamma_pq(shapes, params.n * r ** (2 * params.b)) for r in radii]
    P = np.exp(np.column_stack([lp for lp, _ in logs]))
    Q = np.exp(np.column_stack([lq for _, lq in logs]))

    p = len(radii)
    log_mgf = math.fsum(np.log1p(P @ omega_weights(disks.u)).tolist())
    means = [math.fsum(P[:, l].tolist()) for l in range(p)]
    cov = [[math.fsum((P[:, min(i, k)] * Q[:, max(i, k)]).tolist()) for k in range(p)]
           for i in range(p)]
    cums = [math.fsum(_row_cumulants(P, k).tolist()) for k in orders]
    return log_mgf, means, cov, cums


@pytest.mark.parametrize("n", [1000, 10000])
@pytest.mark.parametrize(
    "b, alpha, radii",
    [
        (1.0, 0.0, (0.6,)),
        (0.5, 0.25, (1.9,)),
        (1.0, 0.0, (0.3, 0.5, 0.7, 0.9)),  # disjoint windows
        (2.0, 0.5, (0.6, 0.61, 0.62, 0.63)),  # overlapping windows
    ],
)
def test_windowed_reductions_match_brute_force(n, b, alpha, radii):
    us = (0.7, -0.4, 0.3, 0.5)[: len(radii)]
    params = EnsembleParams(b=b, alpha=alpha, n=n)
    disks = DiskSystem([Disk.fixed(r, u) for r, u in zip(radii, us)])
    p = len(radii)
    orders = [tuple(k if i == l else 0 for i in range(p)) for l in range(p) for k in (3, 4, 6)]
    if p > 1:
        orders += [(1, 1, 0, 0), (2, 1, 0, 0), (0, 1, 2, 0), (1, 0, 0, 3)]
    log_mgf, means, cov, cums = _brute_force(params, disks, orders)
    prof = bernoulli_profile(params, disks)
    assert prof.saturated.sum() > 0  # the closed-form rows take part
    assert log_mgf_exact(params, disks) == pytest.approx(log_mgf, rel=1e-12)
    got_means, got_cov = mean_var_exact(params, disks)
    np.testing.assert_allclose(got_means, means, rtol=1e-12)
    np.testing.assert_allclose(got_cov, cov, rtol=1e-12, atol=1e-12)
    for got, want in zip(joint_cumulants_exact(params, disks, orders), cums):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("u", [(300.0, -300.0), (1e308, 1e308)])
def test_u_zero_statistics_take_the_unweighted_window(monkeypatch, u):
    # the weights enter only the MGF: means, covariances and cumulants are
    # bit-identical to the unweighted call and sum over its window, which at
    # these weights is 28,156 rows against 66,509 and all 10^6 weighted
    import mlcounts.exact as exact

    params = EnsembleParams(b=1.0, alpha=0.0, n=10**6)
    plain = DiskSystem([Disk.fixed(0.6), Disk.fixed(0.63)])
    weighted = DiskSystem([Disk.fixed(0.6, u[0]), Disk.fixed(0.63, u[1])])
    assert not weighted.u.flags.writeable and weighted.u.tolist() == list(u)
    assert weighted.unweighted().u.tolist() == [0.0, 0.0]
    orders = [(0, 3), (2, 1)]
    want_means, want_cov = mean_var_exact(params, plain)
    want_cums = joint_cumulants_exact(params, plain, orders)
    want_rows = len(bernoulli_profile(params, plain).rows)
    rows, window = [], exact._window

    def recording_window(*args):
        out = window(*args)
        rows.append(sum(stop - start for start, stop in out.runs))
        return out

    monkeypatch.setattr(exact, "_window", recording_window)
    means, cov = mean_var_exact(params, weighted)
    assert means.tobytes() == want_means.tobytes() and cov.tobytes() == want_cov.tobytes()
    assert joint_cumulants_exact(params, weighted, orders) == want_cums
    assert rows == [want_rows] * 2


def test_mgf_weight_sums_past_double_range_raise():
    # U_1 = u_1 + u_2 overflows: a ValueError naming u, where the log-MGF
    # used to be NaN after an overflow warning
    params = EnsembleParams(b=1.0, alpha=0.0, n=5)
    disks = DiskSystem([Disk.fixed(0.5, 1e308), Disk.fixed(0.6, 1e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"u = \[1e\+308, 1e\+308\]"):
            log_mgf_exact(params, disks)
        # the profile at these weights evaluates every row, without a warning
        assert len(bernoulli_profile(params, disks).rows) == 5
        # finite weight sums whose log-MGF is past double range raise too
        with pytest.raises(ValueError, match=r"log-MGF past double range at u = \[1e\+308\]"):
            log_mgf_exact(params, DiskSystem([Disk.fixed(0.5, 1e308)]))
        # while a huge weight on a disk that every row is all but certain to
        # be in leaves sum_j log Q_j
        assert math.isfinite(log_mgf_exact(params, DiskSystem([Disk.fixed(3.0, -1e308)])))


def _pairwise_rtol(w):
    """Error bound of numpy's pairwise sum of w terms, relative to sum |x_j|:
    eight interleaved runs of up to 16 terms per block of 128, then halving,
    so at most log2(w) + 16 roundings of eps/2 stack on one term."""
    return (math.log2(w) + 16) * np.finfo(float).eps


@pytest.mark.parametrize("k", [3, 5])
def test_odd_bulk_cumulant_sums_within_pairwise_bound(k):
    # odd cumulants of a bulk disk: the leading sqrt(n) terms of the per-row
    # cumulants cancel, and the pairwise sum stays within its bound of the
    # correctly rounded sum of the same terms
    params = EnsembleParams(b=1.0, alpha=0.0, n=10**6)
    disks = DiskSystem([Disk.fixed(0.6)])
    prof = bernoulli_profile(params, disks)
    terms = _row_cumulants(prof.Pw, (k,))
    w, scale, exact_sum = len(terms), math.fsum(np.abs(terms).tolist()), math.fsum(terms.tolist())
    assert abs(exact_sum) < 1e-3 * scale  # the sum does cancel
    got = joint_cumulants_exact(params, disks, [k])[0]
    assert abs(got - exact_sum) <= _pairwise_rtol(w) * scale


@pytest.mark.parametrize("n", [10**4, 10**6])
def test_means_and_covariances_within_pairwise_bound(n):
    # against fsum over the unweighted window, the one mean_var_exact sums
    b, alpha, disks = _CONFIG_B
    disks = DiskSystem(disks)
    params = EnsembleParams(b=b, alpha=alpha, n=n)
    prof = bernoulli_profile(params, disks.unweighted())
    rtol = _pairwise_rtol(len(prof.rows))
    means, cov = mean_var_exact(params, disks)
    p = prof.Pw.shape[1]
    for l in range(p):
        want = math.fsum(prof.Pw[:, l].tolist() + [float(prof.saturated[: l + 1].sum())])
        assert abs(means[l] - want) <= rtol * want
        for h in range(l, p):
            want = math.fsum(np.exp(prof.log_P[:, l] + prof.log_Q[:, h]).tolist())
            assert abs(cov[l, h] - want) <= rtol * want


def _single_disk_log_mgf(n, r, u):
    """sum_j log(Q_j + P_j e^u) over all rows for b = 1, alpha = 0.  log P
    comes from scipy where the row is inside the disk (a < z) and from
    Kummer's function, P = z^a e^-z M(1, a+1, z) / Gamma(a+1), outside, which
    stays finite far below double range."""
    a = np.arange(1, n + 1, dtype=float)
    z = n * r * r
    with np.errstate(divide="ignore"):
        kummer = a * math.log(z) - z - gammaln(a + 1) + np.log(hyp1f1(1.0, a + 1, z))
        log_p = np.where(a < z, np.log(gammainc(a, z)), kummer)
        log_q = np.log(gammaincc(a, z))
    return math.fsum(np.logaddexp(log_p + u, log_q).tolist())


@pytest.mark.parametrize("u", [-40.0, 800.0])
def test_mgf_extreme_weights_vs_log_space(u):
    # -40 used to cancel to a non-positive factor, 800 to overflow the weights;
    # at 800 rows with P down to e^-860 still contribute
    params = EnsembleParams(b=1.0, alpha=0.0, n=10_000)
    got = log_mgf_exact(params, DiskSystem([Disk.fixed(0.6, u)]))
    assert got == pytest.approx(_single_disk_log_mgf(10_000, 0.6, u), rel=1e-13)


@st.composite
def _mgf_configs(draw):
    b = draw(st.floats(0.3, 3.0))
    alpha = draw(st.floats(-0.9, 2.0))
    n = draw(st.integers(1, 2000))
    rstar = b ** (-1 / (2 * b))
    p = draw(st.integers(1, 3))
    scaled = sorted(draw(st.lists(st.floats(0.05, 2.0), min_size=p, max_size=p, unique=True)))
    radii = [rstar * x for x in scaled]
    if any(r2 - r1 <= 1e-9 * r2 for r1, r2 in zip(radii, radii[1:])):
        radii = [rstar * (0.2 + 0.3 * i) for i in range(p)]
    us = draw(st.lists(st.floats(-60.0, 800.0), min_size=p, max_size=p))
    l = draw(st.integers(0, p - 1))
    bump = draw(st.floats(0.01, 50.0))
    return EnsembleParams(b=b, alpha=alpha, n=n), radii, us, l, bump


@settings(max_examples=60, deadline=None)
@given(_mgf_configs())
def test_mgf_property_finite_zero_monotone(config):
    params, radii, us, l, bump = config

    def value(weights):
        return log_mgf_exact(params, DiskSystem([Disk.fixed(r, w) for r, w in zip(radii, weights)]))

    assert value([0.0] * len(radii)) == 0.0
    base = value(us)
    assert math.isfinite(base)
    bumped = list(us)
    bumped[l] += bump
    assert value(bumped) >= base


@settings(max_examples=60, deadline=None)
@given(_mgf_configs())
def test_annulus_probabilities_sum_to_one(config):
    # each window row's annulus probabilities, taken from log P below 1/2 and
    # from log Q above, add up to 1
    params, radii, us, _, _ = config
    profile = bernoulli_profile(params, DiskSystem([Disk.fixed(r, u) for r, u in zip(radii, us)]))
    assert np.all(np.abs(np.exp(_log_annuli(profile.log_P, profile.log_Q)).sum(axis=1) - 1.0) <= 1e-13)


def test_n_past_int64_rejected():
    # profile rows are int64 indices: n = 2^63 used to reach an OverflowError
    assert EnsembleParams(1.0, 0.0, 2**63 - 1).n == 2**63 - 1
    for n in (2**63, 10**19, 10**400):
        with pytest.raises(ValueError, match=f"got {n}"):
            EnsembleParams(1.0, 0.0, n)


def test_window_found_past_1e10():
    # adjacent log-prefactor differences fall below its rounding here: a
    # bisection for the peak found no window rows, and the variance was 0.0
    b = 0.05
    r = 0.8 * support_radius(b)
    params, disks = EnsembleParams(b, 0.0, 10**10), DiskSystem([Disk.fixed(r)])
    assert len(bernoulli_profile(params, disks).rows) == 531_000
    means, cov = mean_var_exact(params, disks)
    assert means[0] == pytest.approx(bulk_cumulant_coeffs(1, b, 0.0, r).evaluate(params.n), rel=1e-14)
    assert cov[0, 0] == pytest.approx(bulk_cumulant_coeffs(2, b, 0.0, r).evaluate(params.n), rel=1e-12)


def test_window_row_cap_raises_before_building_rows(monkeypatch):
    # b = 1, r = 0.6, n = 1e12 needs ~1.4e7 window rows, ~3 GB: the profile,
    # the sampler on it, and the statistics where they must take rows, raise
    # a ValueError naming n and the row count, from the bisections alone
    import mlcounts.exact as exact
    from mlcounts.sampler import sample_counts

    params, disks = EnsembleParams(1.0, 0.0, 10**12), DiskSystem([Disk.fixed(0.6)])
    message = r"^\d{8} window rows at n = 1000000000000, over MAX"
    for call in (bernoulli_profile, lambda p, d: sample_counts(p, d, 10, 1)):
        with pytest.raises(ValueError, match=message):
            call(params, disks)
    monkeypatch.setattr(exact, "_panels", lambda *args: 0)
    for call in (mean_var_exact, log_mgf_exact):
        with pytest.raises(ValueError, match=message):
            call(params, disks)


# --- the window integral --------------------------------------------------------


def test_gregory_end_weights_sum_polynomials_exactly():
    # sum_{j=0}^{N} f(j) = integral_0^N f + end weights on the first and last
    # rows: exact for every polynomial of degree <= 11 (differences to order
    # 10), and f(0)/2 + f(N)/2 alone (a saturated end) exact for degree <= 1
    from mlcounts.exact import _GREGORY, _end_weights

    cut, plain = _end_weights(True), _end_weights(False)
    assert cut.size == _GREGORY + 1 and plain.tolist() == [0.5]
    N = 50
    j = np.arange(N + 1, dtype=float)
    for m in range(_GREGORY + 2):
        f = (j / N) ** m
        total = math.fsum(f.tolist())
        got = N / (m + 1) + f[: cut.size] @ cut + f[::-1][: cut.size] @ cut
        assert got == pytest.approx(total, rel=8 * np.finfo(float).eps)
    assert N / 2 + 0.5 * (0.0 + 1.0) == math.fsum((j / N).tolist())


def _two_product(a, b):
    """p + e = a b exactly (Dekker, with Veltkamp's split)."""
    p = a * b

    def split(x):
        c = 134217729.0 * x
        hi = c - (c - x)
        return hi, x - hi

    (ah, al), (bh, bl) = split(a), split(np.broadcast_to(b, np.shape(a)))
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _row_shape_rounding(rows, alpha, b):
    """(j+1+alpha)/b - fl(fl(j+1+alpha)/b), the rounding of the row path's
    shapes, from error-free transformations (TwoSum, TwoProduct)."""
    J = (rows + 1).astype(float)
    s = J + alpha
    bs = s - J
    e1 = (J - (s - bs)) + (alpha - bs)
    a = s / b
    p, e2 = _two_product(a, b)
    return ((s - p) - e2 + e1) / b


def _path_bound(terms, rounding, b, saturated=0.0):
    """Where the paths may differ: the pairwise bound (log2 w + 16) eps
    sum_j |x_j| over all rows (the saturated ones in closed form), plus the
    row path's own shape rounding, sum_j |dx_j/da| |a_j - fl(a_j)| (exact
    shapes in the integral; 0 where fl is exact, as at b = 1, alpha = 0),
    twice, for the difference quotient standing for the derivative."""
    terms = np.asarray(terms)
    pairwise = (math.log2(max(terms.size, 2)) + 16) * np.finfo(float).eps
    slope = np.gradient(terms) * b if terms.size > 1 else np.zeros_like(terms)
    return pairwise * (np.abs(terms).sum() + saturated) + 2.0 * np.abs(slope * rounding).sum()


def _compare_paths(params, disks, orders):
    """(got, want, bound) for the log-MGF, means, covariances and cumulants,
    the window sums as chosen (got) and forced onto rows (want)."""
    import mlcounts.exact as exact

    prof = bernoulli_profile(params, disks)
    plain = bernoulli_profile(params, disks.unweighted())
    rnd, rnd0 = (_row_shape_rounding(p.rows, params.alpha, params.b) for p in (prof, plain))
    got = [log_mgf_exact(params, disks), *mean_var_exact(params, disks),
           joint_cumulants_exact(params, disks, orders)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_panels", lambda *args: 0)
        want = [log_mgf_exact(params, disks), *mean_var_exact(params, disks),
                joint_cumulants_exact(params, disks, orders)]
    U = np.concatenate([np.cumsum(disks.u[::-1])[::-1], [0.0]])
    omega = omega_weights(disks.u)
    with np.errstate(all="ignore"):
        x = np.log1p(prof.Pw @ omega)
        logspace = ~np.isfinite(x) | (2.0 * (1.0 + prof.Pw @ omega) < 1.0 + prof.Pw @ np.abs(omega))
        x[logspace] = np.logaddexp.reduce(_log_annuli(prof.log_P, prof.log_Q)[logspace] + U, axis=1)
    out = [(got[0], want[0], _path_bound(x, rnd, params.b, np.abs(prof.saturated * U).sum()))]
    P, Q = plain.Pw, np.exp(plain.log_Q)
    p = P.shape[1]
    for l in range(p):
        out.append((got[1][l], want[1][l], _path_bound(P[:, l], rnd0, params.b, plain.ones[l])))
        for h in range(l, p):
            out.append((got[2][l, h], want[2][l, h], _path_bound(P[:, l] * Q[:, h], rnd0, params.b)))
    for k, g, w in zip(orders, got[3], want[3]):
        # a cumulant of order >= 3 cancels inside each row far below the
        # rounding of its moments, so each path's terms carry their own
        # rounding too, found here against 64-bit-mantissa arithmetic
        kappa = _row_cumulants(P, k)
        carried = np.abs(kappa - _row_cumulants(P.astype(np.longdouble), k)).sum()
        out.append((g, w, _path_bound(kappa, rnd0, params.b) + 2.0 * float(carried)))
    return out


@st.composite
def _integral_configs(draw):
    b = draw(st.floats(0.3, 3.0))
    alpha = draw(st.floats(-0.9, 2.0))
    n = int(10 ** draw(st.floats(3.0, 10.0)))
    rstar = b ** (-1 / (2 * b))
    p = draw(st.integers(1, 4))
    scaled = sorted(draw(st.lists(st.floats(0.05, 1.6), min_size=p, max_size=p, unique=True)))
    if draw(st.booleans()):  # a cluster: every window overlaps the next
        scaled = [scaled[0] * (1.0 + 0.02 * i) for i in range(p)]
    radii = [rstar * x for x in scaled]
    if any(r2 - r1 <= 1e-6 * r2 for r1, r2 in zip(radii, radii[1:])):
        radii = [rstar * (0.3 + 0.2 * i) for i in range(p)]
    us = draw(st.lists(st.floats(-50.0, 50.0), min_size=p, max_size=p))
    k = draw(st.integers(3, MAX_ORDER))
    l = draw(st.integers(0, p - 1))
    orders = [tuple(k if i == l else 0 for i in range(p))]
    if p > 1:
        orders.append(tuple(k - 1 if i == 0 else int(i == p - 1) for i in range(p)))
    return EnsembleParams(b, alpha, n), DiskSystem([Disk.fixed(r, u) for r, u in zip(radii, us)]), orders


@settings(max_examples=25, deadline=None)
@given(_integral_configs())
def test_integral_and_row_paths_agree(config):
    # wherever both paths run (windows of at most 40,000 rows, so that the
    # rows stay cheap), the integral agrees with the row sum within the
    # pairwise bound plus the row path's own shape rounding and, for
    # cumulants of order >= 3, the rounding their row terms carry
    import mlcounts.exact as exact
    from hypothesis import assume

    params, disks, orders = config
    windows = [exact._window(params, d) for d in (disks, disks.unweighted())]
    assume(all(sum(stop - start for start, stop in w.runs) <= 40_000 for w in windows))
    assume(any(exact._panels(w, *run, order) for w, order in zip(windows, (1, MAX_ORDER))
               for run in w.runs))
    for got, want, bound in _compare_paths(params, disks, orders):
        assert abs(got - want) <= bound, (got, want, bound)


def test_paths_agree_at_the_switch():
    # the first n at which the one-disk log-MGF takes the integral: the two
    # paths agree there, within the pairwise bound alone (b = 1, alpha = 0:
    # every row shape is exact), and one n below it the rows are taken
    import mlcounts.exact as exact

    disks = DiskSystem([Disk.fixed(0.6, 0.9)])

    def integrates(n):
        window = exact._window(EnsembleParams(1.0, 0.0, n), disks)
        return any(exact._panels(window, *run, 1) for run in window.runs)

    lo, hi = 1000, 100_000
    assert not integrates(lo) and integrates(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if integrates(mid) else (mid, hi)
    for got, want, bound in _compare_paths(EnsembleParams(1.0, 0.0, hi), disks, [(3,), (6,)]):
        assert abs(got - want) <= bound
    below = EnsembleParams(1.0, 0.0, lo)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_panels", lambda *args: 0)
        rows = log_mgf_exact(below, disks)
    assert log_mgf_exact(below, disks) == rows


_LARGE_N = {
    "bulk": (1.0, 0.0, [Disk.fixed(0.6, 0.9)]),
    "edge, b = 2": (2.0, 0.5, [Disk.fixed(0.45, 0.2), Disk.edge(0.3, 0.4)]),
    "edge, b = 1/2": (0.5, 0.25, [Disk.edge(-0.5, 0.8)]),
}


@pytest.mark.parametrize("exponent", [12, 14, 16, 18])
@pytest.mark.parametrize("case", sorted(_LARGE_N))
def test_statistics_past_the_row_cap_match_the_expansion(case, exponent):
    # n = 1e12..1e18: the rows cannot be summed (1.4e7 rows at 1e12, b = 1,
    # r = 0.6), so the expansion is the check: the log-MGF and the means and
    # variances agree with the four-term series within its o(n^-1/2)
    # remainder (bounded by the last term), a few eps of the terms' sizes,
    # and the rounding of an edge disk's argument z = n r^(2b) (its radius
    # and power, (4b + 8) eps relative), which moves s by that times
    # sqrt(n/(2b)): at b = 2, n = 1e18 the variance by 3e-7 relative.  At
    # 1e18 the evaluator's own noise at shapes near 4e17 leaves a mean or
    # variance ~20 eps off (less with more nodes), hence 32 eps there
    from dataclasses import replace

    from mlcounts.asymptotics import cumulant_coeffs, theorem_coefficients

    b, alpha, disks = _LARGE_N[case]
    params, disks = EnsembleParams(b, alpha, 10**exponent), DiskSystem(disks)
    n, rn, eps = params.n, math.sqrt(params.n), np.finfo(float).eps

    def expansions(shift):
        system = DiskSystem(replace(d, s=d.s + shift) if d.is_edge else d for d in disks.disks)
        th = theorem_coefficients(params, system)
        out = [[th.C1 * n, th.C2 * rn, th.C3, th.C4 / rn]]
        for j in (1, 2):
            out += [[s.leading * n, s.c * rn, s.d, s.e / rn] for s in cumulant_coeffs(j, params, system)]
        return out

    shift = (4 * b + 8) * eps * math.sqrt(n / (2 * b))
    means, cov = mean_var_exact(params, disks)
    got = [log_mgf_exact(params, disks), *means, *np.diag(cov)]
    few = [4] + [4 if exponent < 18 else 32] * (len(got) - 1)
    for g, terms, hi, lo, k in zip(got, *map(expansions, (0.0, shift, -shift)), few):
        assert math.isfinite(g)
        moved = abs(math.fsum(hi) - math.fsum(lo)) / 2
        assert abs(g - math.fsum(terms)) <= abs(terms[3]) + k * eps * sum(map(abs, terms)) + moved

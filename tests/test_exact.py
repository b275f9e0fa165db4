import json
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincc, hyp1f1, gammaln

from mlcounts.exact import (
    Disk,
    DiskSystem,
    EnsembleParams,
    bernoulli_profile,
    joint_cumulants_exact,
    log_mgf_exact,
    log_partition_exact,
    mean_var_exact,
    omega_weights,
    support_radius,
)
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
    res = DiskSystem([Disk.edge(0.0)]).resolve(params)
    assert res.radii[0] == support_radius(0.00395)


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
    res = disks.resolve(params)
    assert res.kinds == ("bulk", "edge", "outside")
    assert res.radii[0] < res.radii[1] < res.radii[2]
    assert res.radii[1] == pytest.approx(1.0)
    assert disks.classify(params.b) == (("bulk", "edge", "outside"), 0.0)


def test_fixed_radius_at_support_edge_is_edge():
    disks = DiskSystem([Disk.fixed(1.0)])
    kinds, s = disks.classify(1.0)
    assert kinds == ("edge",)
    assert s == 0.0


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
        q = np.exp(prof.log_q)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)
        # the annuli inside disk l add up to P[j, l]
        np.testing.assert_allclose(np.cumsum(q, axis=1)[:, :-1], prof.Pw, atol=1e-13)
        u = disks.resolve(params).u
        lhs = 1.0 + prof.Pw @ omega_weights(u)
        rhs = q @ _exp_tails(u)
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
    for j in (0, 10, 24, 49):
        for l in (0, 1):
            direct = reg_lower_gamma((j + 1 + 0.5) / 2.0, 50.0 * prof.radii[l] ** 4)
            assert abs(prof.P[j, l] - direct) <= 1e-15


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
        om = omega_weights(disks.resolve(params).u)
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


# --- window and log-space MGF --------------------------------------------------


def _brute_force(params, disks, orders):
    """Log-MGF, means, covariances and cumulants over all n rows, no window."""
    res = disks.resolve(params)
    shapes = (np.arange(1, params.n + 1) + params.alpha) / params.b
    logs = [log_reg_gamma_pq(shapes, params.n * r ** (2 * params.b)) for r in res.radii]
    P = np.exp(np.column_stack([lp for lp, _ in logs]))
    Q = np.exp(np.column_stack([lq for _, lq in logs]))

    p = len(res.radii)
    log_mgf = math.fsum(np.log1p(P @ omega_weights(res.u)).tolist())
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
    assert np.all(np.abs(np.exp(profile.log_q).sum(axis=1) - 1.0) <= 1e-13)

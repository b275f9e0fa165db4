import json
import math
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from mlcounts.exact import Disk, DiskSystem, EnsembleParams, log_mgf_exact
from mlcounts.sampler import SAMPLE_BLOCK
from mlcounts.verify import (
    BelowNoiseError,
    _least_squares,
    clt_experiment,
    coefficient_fit,
    residual_scan,
)

_EPS = float(np.finfo(float).eps)


def _params(n=1000, b=1.0, alpha=0.0):
    return EnsembleParams(b=b, alpha=alpha, n=n)


def test_residual_scan_zero_u_below_noise():
    disks = DiskSystem([Disk.fixed(0.6, 0.0)])
    with pytest.raises(BelowNoiseError) as info:
        residual_scan(_params(), disks, [100, 200, 400, 800])
    assert all(r == 0.0 for r in info.value.residuals)


def test_residual_scan_validation():
    disks = DiskSystem([Disk.fixed(0.6, 1.0)])
    with pytest.raises(ValueError):
        residual_scan(_params(), disks, [100, 200, 400])  # too few
    with pytest.raises(ValueError):
        residual_scan(_params(), disks, [100, 200, 400, 600])  # span < 8
    with pytest.raises(ValueError):
        residual_scan(_params(), disks, [100, 100, 400, 800])  # not increasing
    with pytest.raises(ValueError):
        residual_scan(_params(), disks, [10, 100, 200, 800])  # n too small


def test_n_values_must_be_integers():
    # 500.7 used to be read as 500
    disks = DiskSystem([Disk.fixed(0.6, 1.0)])
    for n_values in ([500.7, 1000, 2000, 4000], [500, 1000, 2000, True], [500.0, 1000, 2000, 4000]):
        with pytest.raises(ValueError, match="n_values must be integers"):
            residual_scan(_params(), disks, n_values)
    with pytest.raises(ValueError, match="n_values must be integers"):
        coefficient_fit(_params(), disks, [500, 1000, 2000, 3000, 5000, 8000.5])


def test_residual_scan_bulk_rate():
    disks = DiskSystem([Disk.fixed(0.6, 1.0)])
    scan = residual_scan(_params(), disks, [200, 400, 800, 1600])
    assert all(u for u in scan.used)
    assert -1.35 <= scan.fitted_rate <= -0.75
    mags = [abs(r) for r in scan.residuals]
    assert all(m2 < m1 for m1, m2 in zip(mags, mags[1:]))
    assert scan.fitted_K > 0


def test_residual_scan_noise_floor_robust_to_tighter_quadrature(monkeypatch):
    import mlcounts.asymptotics as asym

    disks = DiskSystem([Disk.fixed(0.6, 1.0)])
    base = residual_scan(_params(), disks, [200, 400, 800, 1600])
    monkeypatch.setattr(asym, "QUAD_PANELS", asym.QUAD_PANELS * 2)
    tighter = residual_scan(_params(), disks, [200, 400, 800, 1600])
    assert abs(base.fitted_rate - tighter.fitted_rate) <= 0.05


def test_residual_scan_resolves_edge_disks_per_n():
    disks = DiskSystem([Disk.edge(0.3, 0.5)])
    scan = residual_scan(_params(b=2.0, alpha=0.5), disks, [200, 400, 800, 1600])
    assert len(scan.residuals) == 4
    assert abs(scan.residuals[-1]) < abs(scan.residuals[0])


def test_coefficient_fit_recovers_theorem_values():
    disks = DiskSystem([Disk.fixed(0.6, 1.0)])
    fit = coefficient_fit(_params(), disks, [500, 1000, 2000, 3000, 5000, 8000])
    assert abs(fit.deviations[0]) <= 1e-6
    assert abs(fit.deviations[1]) <= 1e-3
    assert fit.fitted[0] == pytest.approx(0.36, abs=1e-6)


def test_coefficient_fit_zero_u():
    disks = DiskSystem([Disk.fixed(0.6, 0.0)])
    fit = coefficient_fit(_params(), disks, [500, 1000, 2000, 3000, 5000, 8000])
    for v in fit.fitted:
        assert abs(v) <= 1e-12


def test_coefficient_fit_validation():
    disks = DiskSystem([Disk.fixed(0.6, 1.0)])
    with pytest.raises(ValueError):
        coefficient_fit(_params(), disks, [500, 1000, 2000, 3000, 5000])  # too few
    with pytest.raises(ValueError, match="n-range too narrow"):  # kappa_2 = 2.2e10 > 1e10
        coefficient_fit(_params(), disks, [1000, 1001, 1002, 1003, 1004, 1005])


def _basis(ns):
    narr = np.array(ns, dtype=float)
    return np.column_stack([narr, np.sqrt(narr), np.ones_like(narr), 1.0 / np.sqrt(narr)])


_FIT_CASES = [
    (1.0, 0.0, Disk.fixed(0.6, 1.0), [1000, 2000, 4000, 8000, 16000, 32000]),
    (1.0, 0.0, Disk.fixed(0.6, 0.9), [500, 1000, 2000, 3000, 5000, 8000]),
    (2.0, 0.5, Disk.edge(0.3, 0.4), [500, 700, 1000, 1500, 2200, 4000]),
    (0.5, 0.25, Disk.fixed(1.5, -0.7), [1000, 2000, 4000, 8000, 16000, 32000]),
]


@pytest.mark.parametrize("b, alpha, disk, ns", _FIT_CASES)
def test_fits_agree_with_lapack(b, alpha, disk, ns):
    # the QR fit and the closed-form rate against LAPACK's lstsq and polyfit,
    # within 8 eps of each coefficient's sensitivity |B^+| |y| (measured: 2)
    params, disks = EnsembleParams(b, alpha, 1000), DiskSystem([disk])
    fit = coefficient_fit(params, disks, ns)
    y = np.array([log_mgf_exact(replace(params, n=n), disks) for n in ns])
    basis = _basis(ns)
    scale = np.linalg.norm(basis, axis=0)
    want = np.linalg.lstsq(basis / scale, y, rcond=None)[0] / scale
    bound = 8.0 * _EPS * (np.abs(np.linalg.pinv(basis)) @ np.abs(y))
    assert np.all(np.abs(np.array(fit.fitted) - want) <= bound)

    scan = residual_scan(params, disks, ns[:1] + [2 * ns[0], 4 * ns[0], 8 * ns[0]])
    x, logr = np.log(scan.n_values), np.log(np.abs(scan.residuals))
    slope, intercept = np.polyfit(x, logr, 1)
    pinv = np.abs(np.linalg.pinv(np.column_stack([x, np.ones_like(x)])))
    rate_bound, log_k_bound = 8.0 * _EPS * (pinv @ np.abs(logr))
    assert abs(scan.fitted_rate - slope) <= rate_bound
    assert abs(math.log(scan.fitted_K) - intercept) <= log_k_bound


@pytest.mark.parametrize("ns", [c[3] for c in _FIT_CASES]
                         + [[1000, 1001, 1002, 1003, 1004, 1005], [1000, 1100, 1200, 1300, 1400, 1500]])
def test_fit_guard_is_never_looser_than_the_condition_number(ns):
    # ||R||_F ||R^-1||_F lies between kappa_2 and k kappa_2 (k = 4 columns)
    basis = _basis(ns)
    scaled = basis / np.linalg.norm(basis, axis=0)
    kappa = np.linalg.cond(scaled)
    _, bound = _least_squares(scaled, np.ones(len(ns)))
    assert kappa * (1 - 1e-6) <= bound <= 4.0 * kappa * (1 + 1e-6)


def test_least_squares_reports_a_singular_basis():
    # a zero column leaves R singular: a guard that is not finite, quietly
    A = np.column_stack([np.ones(5), np.zeros(5), np.arange(5.0)])
    _, bound = _least_squares(A, np.arange(5.0))
    assert not math.isfinite(bound)


def test_verify_fits_run_without_lapack(monkeypatch, capsys):
    # every LAPACK routine numpy reaches (its _umath_linalg gufuncs), the
    # public solvers and polyfit raise: the residual scan, the coefficient
    # fit and `mlcounts verify-residual` never reach them
    import numpy.linalg._umath_linalg as lapack

    from mlcounts import cli

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in dir(lapack):
        if not name.startswith("_") and callable(getattr(lapack, name)):
            monkeypatch.setattr(lapack, name, refuse)
    for name in ("lstsq", "solve", "cond", "pinv", "qr", "svd", "inv", "eig", "eigh", "det",
                 "slogdet", "cholesky", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np, "polyfit", refuse)
    with pytest.raises(AssertionError, match="LAPACK called"):
        np.linalg.lstsq(np.eye(2), np.ones(2))
    disks = DiskSystem([Disk.fixed(0.6, 1.0)])
    residual_scan(_params(), disks, [500, 1000, 2000, 4000])
    coefficient_fit(_params(), disks, [1000, 2000, 4000, 8000, 16000, 32000])
    assert cli.main(["verify-residual", "--b", "1", "--alpha", "0", "--disk", "r=0.6,u=1.0",
                     "--n-values", "500,1000,2000,4000"]) == 0
    assert json.loads(capsys.readouterr().out)["experiment"] == "residual_scan"


def test_clt_bulk_small():
    res = clt_experiment(_params(n=500), [0.6], None, num_samples=4000, seed=31)
    assert res.covariance.shape == (1, 1)
    assert abs(res.covariance[0, 0] - 1.0) <= 0.15
    assert abs(res.means[0]) <= 0.15


def test_clt_bulk_plus_edge_small():
    res = clt_experiment(_params(n=800), [0.6], 0.0, num_samples=5000, seed=32)
    assert res.covariance.shape == (2, 2)
    assert res.max_abs_deviation <= 0.2


def test_clt_requires_samples():
    with pytest.raises(ValueError):
        clt_experiment(_params(n=100), [0.6], None, num_samples=50, seed=1)


def test_clt_deterministic():
    # three blocks and a part, so that threads=3 runs blocks in parallel
    S = 3 * SAMPLE_BLOCK + 17
    a = clt_experiment(_params(n=200), [0.5], None, num_samples=S, seed=7)
    b = clt_experiment(_params(n=200), [0.5], None, num_samples=S, seed=7, threads=3)
    np.testing.assert_allclose(a.covariance, b.covariance, rtol=0, atol=0)


@pytest.mark.parametrize("threads", [0, 1.5, True])
def test_clt_rejects_bad_threads(threads):
    with pytest.raises(ValueError, match="threads"):
        clt_experiment(_params(n=200), [0.5], None, num_samples=300, seed=1, threads=threads)


@pytest.mark.parametrize("b, bulk_r, s, match", [
    (1.0, [2.0], None, r"c2 = 0\.0 of disk 0"),  # outside the support: no fluctuation
    (6000.0, [0.5], None, r"r\^b underflows to 0"),
    (1.0, [], 27.13, r"c2 = 0\.0"),  # where the closed form cancelled to -2e-323
    (1.0, [], 100.0, r"c2 = 0\.0"),
], ids=["radius", "scale", "c2-underflow", "c2-zero"])
def test_clt_rejects_meaningless_normalization(b, bulk_r, s, match):
    # past |s| = 6 the edge series also flags s
    flag = nullcontext() if s is None else pytest.warns(RuntimeWarning, match="edge parameter")
    with flag, pytest.raises(ValueError, match=match):
        clt_experiment(_params(n=400, b=b), bulk_r, s, num_samples=300, seed=1)


def test_clt_bulk_radii_follow_classify():
    # within 1e-12 of r* = 1 a radius is the edge disk at s = 0, and is
    # normalized as that disk (as bulk, it used to return covariance 0.544)
    params = EnsembleParams(1, 0, 1000)
    near = clt_experiment(params, [1 - 1e-13], None, 800, 3)
    edge = clt_experiment(params, [], 0.0, 800, 3)
    np.testing.assert_array_equal(near.covariance, edge.covariance)
    with pytest.raises(ValueError, match="more than one edge disk"):
        clt_experiment(params, [1 - 1e-13], 0.0, 800, 3)

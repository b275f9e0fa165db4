import numpy as np
import pytest

from mlcounts.exact import Disk, DiskSystem, EnsembleParams
from mlcounts.sampler import SAMPLE_BLOCK
from mlcounts.verify import (
    BelowNoiseError,
    clt_experiment,
    coefficient_fit,
    residual_scan,
)


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
    with pytest.raises(ValueError):
        coefficient_fit(_params(), disks, [1000, 1001, 1002, 1003, 1004, 1005])


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


@pytest.mark.parametrize("b, bulk_r, s, match", [
    (1.0, [2.0], None, r"0 < r < 1\.0, got 2\.0"),  # centering b r^(2b) n is meaningless
    (6000.0, [0.5], None, r"sqrt\(b r\^b\) underflows"),
    (1.0, [], 27.13, r"c2 = -2e-323"),  # cancellation in the closed form
    (1.0, [], 100.0, r"c2 = 0\.0"),
], ids=["radius", "scale", "c2-negative", "c2-zero"])
def test_clt_rejects_meaningless_normalization(b, bulk_r, s, match):
    with pytest.raises(ValueError, match=match):
        clt_experiment(_params(n=400, b=b), bulk_r, s, num_samples=300, seed=1)

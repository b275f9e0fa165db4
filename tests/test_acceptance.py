"""Acceptance suite: one test per acceptance criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 3 and 4 evaluate the closed-form mean/variance expansions
at the requested parameters (the general (b, alpha) formulas; see the bulk
and edge coefficient tests for their independent validation).  Criterion 8
checks the production values against a 40-digit evaluation of the same
expansion and measures the remainder rate on the high-precision values,
because the n^-2 remainder at n = 2000 sits below the float64 representation
noise of log Z_n itself (|log Z_n| ~ 1.5e7).
"""

import json
import math
import pathlib
import random

import numpy as np

import mlcounts as mlc
from mlcounts.specfun import A_TEMME, log_reg_gamma_pq

import oracles

DATA = pathlib.Path(__file__).parent / "data"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_special_function_accuracy():
    data = json.loads((DATA / "gammainc_grid.json").read_text())
    worst = 0.0
    for i, a in enumerate(data["a"]):
        for j, lam in enumerate(data["lambda"]):
            worst = max(worst, abs(mlc.reg_lower_gamma(a, lam * a) - data["p"][i][j]))
    # the evaluator switches from scipy to the uniform expansion at A_TEMME:
    # P just below and at the switch must agree
    shapes = np.array([np.nextafter(A_TEMME, 0.0), A_TEMME])
    boundary = 0.0
    for lam in (0.6, 0.9, 0.98, 1.0, 1.01, 1.4, 2.5):
        log_p, _ = log_reg_gamma_pq(shapes, lam * A_TEMME)
        boundary = max(boundary, abs(math.exp(log_p[0]) - math.exp(log_p[1])))
    ok = worst <= 1e-13 and boundary <= 1e-12
    _report(1, ok, f"grid worst abs err {worst:.2e} (<=1e-13), "
                   f"regime boundary {boundary:.2e} (<=1e-12)")


def test_criterion_02_exact_engine_oracle_equivalence():
    worst = 0.0
    for n in (1, 2, 3):
        for b in (0.5, 1.0, 2.0):
            for alpha in (0.0, 0.5):
                for radii, us in (((0.7,), (0.8,)), ((0.5, 0.9), (0.6, -0.4))):
                    params = mlc.EnsembleParams(b=b, alpha=alpha, n=n)
                    disks = mlc.DiskSystem(
                        [mlc.Disk.fixed(r, u) for r, u in zip(radii, us)]
                    )
                    got = mlc.log_mgf_exact(params, disks)
                    want = oracles.radial_log_mgf(b, alpha, n, radii, us)
                    worst = max(worst, abs(got - want))
    ok = worst <= 1e-9
    _report(2, ok, f"36 small-n configurations, worst |exact - quadrature| {worst:.2e} (<=1e-9)")


def test_criterion_03_bulk_mean_variance():
    b, alpha, r, n = 1.0, 0.0, 0.6, 10_000
    params = mlc.EnsembleParams(b=b, alpha=alpha, n=n)
    means, cov = mlc.mean_var_exact(params, mlc.DiskSystem([mlc.Disk.fixed(r)]))
    mean_pred = b * r ** (2 * b) * n + (b - 1 - 2 * alpha) / 2.0
    var_pred = (
        b * r**b / math.sqrt(math.pi) * math.sqrt(n)
        - b / (16 * math.sqrt(math.pi) * r**b) / math.sqrt(n)
    )
    tol = 10.0 * math.log(n) ** 2 / n
    dm, dv = abs(means[0] - mean_pred), abs(cov[0, 0] - var_pred)
    ok = dm <= tol and dv <= tol
    _report(3, ok, f"|mean resid| {dm:.2e}, |var resid| {dv:.2e} (tol {tol:.3f})")


def test_criterion_04_edge_mean_variance():
    b, alpha = 1.0, 0.0
    resids = {}
    for n in (2500, 10_000):
        params = mlc.EnsembleParams(b=b, alpha=alpha, n=n)
        means, cov = mlc.mean_var_exact(params, mlc.DiskSystem([mlc.Disk.fixed(1.0)]))
        c1, d1, e1 = mlc.edge_mean_coeffs(b, alpha, 0.0)
        c2, d2, e2 = mlc.edge_var_coeffs(b, alpha, 0.0)
        rn = math.sqrt(n)
        mean_pred = n + c1 * rn + d1 + e1 / rn
        var_pred = c2 * rn + d2 + e2 / rn
        resids[n] = (abs(means[0] - mean_pred), abs(cov[0, 0] - var_pred))
    dm, dv = resids[10_000]
    shrink_m = resids[2500][0] / max(dm, 1e-300)
    shrink_v = resids[2500][1] / max(dv, 1e-300)
    ok = dm <= 0.1 and dv <= 0.1 and shrink_m >= 2.0 and shrink_v >= 2.0
    _report(4, ok, f"n=1e4 resids mean {dm:.2e} var {dv:.2e} (<=0.1); "
                   f"shrink x{shrink_m:.1f}/x{shrink_v:.1f} from n=2500 (>=2)")


def test_criterion_05_residual_scaling():
    params = mlc.EnsembleParams(b=1.0, alpha=0.0, n=4000)
    disks = mlc.DiskSystem([mlc.Disk.fixed(0.6, 1.0)])
    scan = mlc.residual_scan(params, disks, [500, 1000, 2000, 4000])
    mags = [abs(r) for r in scan.residuals]
    monotone = all(m2 < m1 for m1, m2 in zip(mags, mags[1:]))
    ok = -1.35 <= scan.fitted_rate <= -0.75 and monotone
    _report(5, ok, f"fitted rate {scan.fitted_rate:.3f} in [-1.35,-0.75], "
                   f"residuals {['%.2e' % m for m in mags]} monotone={monotone}")


def test_criterion_06_multi_disk_edge_joint_prediction():
    b, alpha = 2.0, 0.5
    disks = mlc.DiskSystem(
        [
            mlc.Disk.fixed(0.45, 0.3),
            mlc.Disk.fixed(0.55, 0.3),
            mlc.Disk.edge(0.3, 0.3),
            mlc.Disk.fixed(1.2, 0.3),
        ]
    )
    resid = {}
    for n in (1000, 4000):
        params = mlc.EnsembleParams(b=b, alpha=alpha, n=n)
        predicted = mlc.theorem_coefficients(params, disks).evaluate(n)
        resid[n] = abs(mlc.log_mgf_exact(params, disks) - predicted)
    bound = 5.0 * resid[1000] * 0.25 * (math.log(4000) / math.log(1000)) ** 2
    ok = resid[4000] <= bound
    _report(6, ok, f"|resid(4000)| {resid[4000]:.2e} <= ratio bound {bound:.2e} "
                   f"(resid(1000) {resid[1000]:.2e})")


def test_criterion_07_cumulant_parity():
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(3):
        b = rng.uniform(0.5, 2.5)
        alpha = rng.uniform(-0.5, 1.0)
        r = rng.uniform(0.3, 0.95) * b ** (-1 / (2 * b))
        s3 = mlc.bulk_cumulant_coeffs(3, b, alpha, r)
        s2 = mlc.bulk_cumulant_coeffs(2, b, alpha, r)
        s4 = mlc.bulk_cumulant_coeffs(4, b, alpha, r)
        worst = max(worst, abs(s3.c), abs(s3.e), abs(s2.d), abs(s4.d))
    ok = worst <= 1e-10
    _report(7, ok, f"max |c3|,|e3|,|d2|,|d4| over 3 random bulk configs: {worst:.2e} (<=1e-10)")


def test_criterion_08_partition_expansion():
    ok = True
    details = []
    for b, n1, n2 in ((1.0, 1, 1), (0.5, 1, 2)):
        rates_resid = []
        float_dev = 0.0
        for n in (250, 500, 1000, 2000):
            params = mlc.EnsembleParams(b=b, alpha=0.0, n=n)
            prod_val = mlc.zn_expansion(params).value
            mp_val = oracles.mp_zn_expansion(b, 0.0, n, n1, n2)
            mp_exact = oracles.mp_log_partition(b, 0.0, n)
            # production value agrees with the 40-digit evaluation to its
            # own representation noise
            float_dev = max(float_dev, abs(prod_val - float(mp_val)) / (1e-15 * abs(float(mp_val))))
            rates_resid.append(float(mp_exact - mp_val))
        L = np.log([250, 500, 1000, 2000])
        R = np.log(np.abs(rates_resid))
        rate = float(np.polyfit(L, R, 1)[0])
        cbound = max(abs(r) * n**2 for r, n in zip(rates_resid, (250, 500, 1000, 2000)))
        this_ok = rate <= -1.7 and float_dev <= 20.0
        ok = ok and this_ok
        details.append(f"b={b}: rate {rate:.2f} (<=-1.7), C={cbound:.2e}, "
                       f"float dev {float_dev:.1f} ulp-ish")
    _report(8, ok, "; ".join(details))


def test_criterion_09_monte_carlo_consistency():
    # mean/variance against exact values, 1e5 samples
    params = mlc.EnsembleParams(b=1.0, alpha=0.0, n=1000)
    disks = mlc.DiskSystem([mlc.Disk.fixed(0.6)])
    batch = mlc.sample_counts(params, disks, 100_000, seed=20240814)
    stats = mlc.mc_cumulants(batch, max_order=2)
    means, cov = mlc.mean_var_exact(params, disks)
    dm = abs(stats.values[0, 0] - means[0]) / stats.se[0, 0]
    dv = abs(stats.values[0, 1] - cov[0, 0]) / stats.se[0, 1]
    # joint CLT with one bulk disk and the edge disk at s=0, n=4000
    clt = mlc.clt_experiment(
        mlc.EnsembleParams(b=1.0, alpha=0.0, n=4000),
        [0.6],
        0.0,
        n=4000,
        num_samples=100_000,
        seed=7,
    )
    ok = dm <= 4.0 and dv <= 4.0 and clt.max_abs_deviation <= 0.05
    _report(9, ok, f"mean {dm:.2f} SE, var {dv:.2f} SE (<=4); "
                   f"CLT max|Cov - I2| {clt.max_abs_deviation:.4f} (<=0.05)")


def test_criterion_10_joint_cumulant_decay():
    vals = {}
    for n in (1000, 4000):
        params = mlc.EnsembleParams(b=1.0, alpha=0.0, n=n)
        disks = mlc.DiskSystem([mlc.Disk.fixed(0.4), mlc.Disk.fixed(0.7)])
        (k11,) = mlc.joint_cumulants_exact(params, disks, [(1, 1)])
        vals[n] = abs(k11)
    ok = vals[4000] < vals[1000] and vals[4000] <= 0.02
    _report(10, ok, f"|kappa_11| {vals[1000]:.2e} -> {vals[4000]:.2e} "
                    f"(decreasing, <=0.02 at n=4000)")

import json
import math
import pathlib
import random

import numpy as np
import pytest

from mlcounts.specfun import (
    A_TEMME,
    GammaRegime,
    _eta,
    _temme_corr,
    gamma_regime,
    log_barnes_g,
    log_reg_gamma_pq,
    reg_lower_gamma,
)

DATA = pathlib.Path(__file__).parent / "data"


def _eta1(lam):
    return float(_eta(np.array([lam]))[0])


def _temme_R(a, lam):
    """R_a(eta) = exp(-a eta^2/2) (c0 + c1/a)/sqrt(2 pi a), from the evaluator's pieces."""
    eta = _eta(np.array([lam]))
    return math.exp(-0.5 * a * eta[0] ** 2) * float(_temme_corr(np.float64(a), eta, np.array([lam]))[0])


# --- erfc, as P and Q at shape 1/2 --------------------------------------------
# erfc(t) = Q(1/2, t^2) for t >= 0 and 1 + P(1/2, t^2) for t < 0: the erfc
# checks run through log_reg_gamma_pq


def _erfc(t):
    log_p, log_q = log_reg_gamma_pq(np.array([0.5]), t * t)
    return math.exp(log_q[0]) if t >= 0 else 1.0 + math.exp(log_p[0])


def test_erfc_at_zero():
    assert _erfc(0.0) == 1.0


def test_erfc_limits():
    assert 0.0 <= _erfc(30.0) < 1e-300
    assert _erfc(-30.0) == pytest.approx(2.0, abs=1e-15)
    assert _erfc(-5.0) < 2.0


def test_erfc_spot_value():
    # 50-digit oracle: erfc(1) = 0.15729920705028513065877936491739...
    assert _erfc(1.0) == pytest.approx(0.15729920705028513, rel=1e-14)


def test_erfc_symmetry_sweep():
    rng = random.Random(1)
    for _ in range(300):
        t = rng.uniform(-8, 8)
        assert _erfc(t) + _erfc(-t) == pytest.approx(2.0, abs=1e-14)


def test_erfc_monotone():
    # strictly decreasing where both neighbours are representable away from
    # the saturated tails, weakly decreasing everywhere
    ts = [(-5.5 + 11.0 * k / 200) for k in range(201)]
    vals = [_erfc(t) for t in ts]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
    wide = [_erfc(-12 + 24 * k / 100) for k in range(101)]
    assert all(v2 <= v1 for v1, v2 in zip(wide, wide[1:]))


def test_erfc_rejects_nan():
    with pytest.raises(ValueError):
        _erfc(float("nan"))


# --- log-gamma --------------------------------------------------------------


def test_log_gamma_trivia():
    assert math.lgamma(1.0) == 0.0
    assert math.lgamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
    assert math.lgamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)


def test_log_gamma_domain():
    # the evaluator rejects the shapes where log Gamma(a) is not that of a
    # positive argument
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            log_reg_gamma_pq(np.array([bad]), 1.0)


# --- eta mapping ------------------------------------------------------------


def test_eta_fixed_points():
    assert _eta1(1.0) == 0.0
    assert _eta1(2.0) == pytest.approx(math.sqrt(2.0 * (1.0 - math.log(2.0))), rel=1e-14)


def test_eta_near_one():
    # eta = x (1 - x/3 + ...), x = lambda - 1 (exact here): no cancellation
    # left at x ~ 1e-8; abs=0, since approx's default abs=1e-12 is 1e-4 of eta
    lam = 1.0 + 1e-8
    x = lam - 1.0
    assert _eta1(lam) == pytest.approx(x * (1 - x / 3.0), rel=1e-15, abs=0.0)


def test_eta_sign_convention():
    assert _eta1(0.5) < 0
    assert _eta1(1.5) > 0


def test_eta_defining_identity_sweep():
    # eta against eta^2/2 = lambda - 1 - log(lambda) taken in 50 digits at
    # the same double lambda (in doubles the right side itself cancels near
    # lambda = 1), to 1e-15 relative: a random sweep, lambda = 1 +- 10^-k and
    # lambda = 1 +- 2^-k down to one ulp
    from mpmath import mp, mpf

    rng = random.Random(2)
    lams = [rng.uniform(0.05, 6.0) for _ in range(200)]
    lams += [1 + s * 10.0**e for s in (1, -1) for e in range(-12, -1)]
    lams += [1 + s * 2.0**-k for s in (1, -1) for k in range(10, 53)]
    eta = _eta(np.array(lams))
    with mp.workdps(50):
        for lam, ev in zip(lams, eta):
            x = mpf(lam) - 1
            want = mp.sign(x) * mp.sqrt(2 * (x - mp.log(mpf(lam))))
            assert abs(ev - want) <= 1e-15 * abs(want), lam


def test_eta_domain():
    # lambda = z/a: z = 0 is the exact edge P = 0, a negative z is rejected
    log_p, log_q = log_reg_gamma_pq(np.array([3.0 * A_TEMME]), 0.0)
    assert log_p[0] == -np.inf and log_q[0] == 0.0
    with pytest.raises(ValueError):
        log_reg_gamma_pq(np.array([3.0 * A_TEMME]), -3.0 * A_TEMME)


# --- Temme correction R_a ---------------------------------------------------


def test_temme_R_below_threshold_rejected(monkeypatch):
    # only shapes from A_TEMME up reach the uniform expansion
    import mlcounts.specfun as specfun

    seen = []
    real = specfun._temme_log_pq
    monkeypatch.setattr(specfun, "_temme_log_pq", lambda a, z: (seen.extend(a), real(a, z))[1])
    log_reg_gamma_pq(np.array([100.0, np.nextafter(A_TEMME, 0.0), A_TEMME]), 100.0)
    assert seen == [A_TEMME]


def test_temme_R_center_value():
    # c0(0) = -1/3, c1(0) = -1/540 give R ~ (-1/3 - 1/(540 a))/sqrt(2 pi a)
    a = 2.0 * A_TEMME
    got = _temme_R(a, 1.0)
    want = (-1.0 / 3.0 - 1.0 / (540.0 * a)) / math.sqrt(2.0 * math.pi * a)
    assert got == pytest.approx(want, rel=1e-12)


def test_temme_R_vanishes_far_out():
    assert _temme_R(A_TEMME, 10.0) == 0.0


def test_temme_R_matches_oracle_gap():
    # R = erfc-term minus the true P, checked against the 50-digit oracle
    from oracles import reference_reg_lower_gamma

    for lam in (0.9, 0.999, 1.0, 1.004, 1.3):
        a = 3.0 * A_TEMME
        z = lam * a
        want = 0.5 * math.erfc(-_eta1(lam) * math.sqrt(a / 2.0)) - reference_reg_lower_gamma(a, z)
        assert _temme_R(a, lam) == pytest.approx(want, abs=5e-14)


# --- reg_lower_gamma --------------------------------------------------------


def test_p_trivia():
    assert reg_lower_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    assert reg_lower_gamma(3.7, 0.0) == 0.0
    assert reg_lower_gamma(0.5, 1.0) == pytest.approx(math.erf(1.0), rel=1e-13)


def test_p_domain():
    with pytest.raises(ValueError):
        reg_lower_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_lower_gamma(1.0, -0.1)


def test_regime_selection_deterministic():
    assert gamma_regime(25000.0, 100.0) is GammaRegime.TEMME_UNIFORM
    assert gamma_regime(10.0, 5.0) is GammaRegime.SERIES_SMALL_Z
    assert gamma_regime(10.0, 20.0) is GammaRegime.CONTINUED_FRACTION
    assert gamma_regime(2.0, 300.0) is GammaRegime.FIXED_A_LARGE_Z


def test_p_against_frozen_grid():
    data = json.loads((DATA / "gammainc_grid.json").read_text())
    worst = 0.0
    for i, a in enumerate(data["a"]):
        for j, lam in enumerate(data["lambda"]):
            err = abs(reg_lower_gamma(a, lam * a) - data["p"][i][j])
            worst = max(worst, err)
    assert worst <= 1e-13


def test_regime_boundary_continuity():
    # scipy just below A_TEMME and the uniform expansion at A_TEMME agree to
    # <= 1e-12 absolute, in P and in Q
    shapes = np.array([np.nextafter(A_TEMME, 0.0), A_TEMME])
    for lam in (0.6, 0.9, 0.98, 1.0, 1.01, 1.4, 2.5):
        for logs in log_reg_gamma_pq(shapes, lam * A_TEMME):
            assert abs(math.exp(logs[0]) - math.exp(logs[1])) <= 1e-12


@pytest.mark.parametrize(
    "a, z",
    [
        (7.3, 6.0),  # bulk
        (6300.0, 3600.0),  # P below 1e-300: Kummer's function
        (2.0, 1e-200),
        (0.5, 800.0),  # Q below 1e-300: continued fraction
        (1e4, 1.5e4),
        (3e4, 2.2e4),  # uniform expansion, both tails
        (3e4, 4e4),
    ],
)
def test_log_pq_far_below_double_range(a, z):
    import oracles

    log_p, log_q = log_reg_gamma_pq(np.array([a]), z)
    want_p, want_q = oracles.mp_log_gamma_pq(a, z)
    assert log_p[0] == pytest.approx(want_p, rel=1e-12, abs=1e-15)
    assert log_q[0] == pytest.approx(want_q, rel=1e-12, abs=1e-15)


def test_log_pq_column_edges():
    shapes = np.array([0.5, 3.0, 3e4])
    for z, (want_p, want_q) in ((0.0, (-np.inf, 0.0)), (np.inf, (0.0, -np.inf))):
        log_p, log_q = log_reg_gamma_pq(shapes, z)
        assert np.all(log_p == want_p) and np.all(log_q == want_q)
    with pytest.raises(ValueError):
        log_reg_gamma_pq(shapes, -1.0)
    with pytest.raises(ValueError):
        log_reg_gamma_pq(np.array([1.0, 0.0]), 1.0)
    # one column equals the scalar evaluations, row by row
    column = np.exp(log_reg_gamma_pq(np.array([0.7, 40.0, 2.5e4]), 30.0)[0])
    assert list(column) == [reg_lower_gamma(a, 30.0) for a in (0.7, 40.0, 2.5e4)]


def test_p_monotone_in_z_and_a():
    zs = [0.1 * k for k in range(1, 80)]
    vals = [reg_lower_gamma(4.0, z) for z in zs]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    a_grid = [1.0, 2.0, 4.0, 8.0, 16.0]
    vals_a = [reg_lower_gamma(a, 3.0) for a in a_grid]
    assert all(v2 < v1 for v1, v2 in zip(vals_a, vals_a[1:]))


def test_p_random_sweep_vs_oracle():
    from oracles import reference_reg_lower_gamma

    rng = random.Random(7)
    for _ in range(60):
        a = 10.0 ** rng.uniform(0.0, 6.0)
        lam = rng.uniform(0.25, 4.0)
        z = lam * a
        assert reg_lower_gamma(a, z) == pytest.approx(
            reference_reg_lower_gamma(a, z), abs=1e-13
        )


def test_p_small_shape():
    # shape < 1 occurs for alpha near -1; series must stay accurate there
    from oracles import reference_reg_lower_gamma

    for a, z in ((0.05, 0.3), (0.3, 0.01), (0.7, 2.5)):
        assert reg_lower_gamma(a, z) == pytest.approx(
            reference_reg_lower_gamma(a, z), abs=1e-14
        )


# --- Barnes G ---------------------------------------------------------------


def test_barnes_trivia():
    assert abs(log_barnes_g(1.0)) <= 1e-13
    assert abs(log_barnes_g(2.0)) <= 1e-13
    assert abs(log_barnes_g(3.0)) <= 1e-13
    assert log_barnes_g(4.0) == pytest.approx(math.log(2.0), rel=1e-12)


def test_barnes_recurrence_sweep():
    # G(z+1) = Gamma(z) G(z)
    rng = random.Random(11)
    for _ in range(50):
        z = rng.uniform(0.05, 30.0)
        lhs = log_barnes_g(z + 1.0)
        rhs = math.lgamma(z) + log_barnes_g(z)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_barnes_vs_mpmath():
    from mpmath import barnesg, mp, mpf

    rng = random.Random(12)
    with mp.workdps(30):
        for _ in range(25):
            z = 10.0 ** rng.uniform(-1.5, 2.0)
            truth = float(mp.log(barnesg(mpf(z))))
            assert log_barnes_g(z) == pytest.approx(truth, rel=1e-12, abs=1e-12)


def test_barnes_domain():
    with pytest.raises(ValueError):
        log_barnes_g(0.0)


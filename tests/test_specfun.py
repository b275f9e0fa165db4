import importlib.util
import json
import math
import pathlib
import random
import warnings

import numpy as np
import pytest

from mlcounts.specfun import (
    A_UNIFORM,
    ETA_UNIFORM,
    GammaRegime,
    _RGAMMA1P_TAYLOR,
    _TEMME_TAYLOR,
    _eta,
    _temme_sum,
    erfc,
    erfcx,
    gamma_regime,
    log_barnes_g,
    log_reg_gamma_pq,
    reg_lower_gamma,
)

DATA = pathlib.Path(__file__).parent / "data"
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _eta1(lam):
    return float(_eta(np.array([lam]) - 1.0)[0])


def _lam_at(eta):
    """The lambda whose eta is `eta`, by bisection to the last bit."""
    lo, hi = (1e-300, 1.0) if eta < 0 else (1.0, 1e300)
    while True:
        mid = math.sqrt(lo * hi) if hi / lo > 4.0 else 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        lo, hi = (mid, hi) if _eta1(mid) < eta else (lo, mid)


def _temme_R(a, lam):
    """R_a(eta) = exp(-a eta^2/2) sum_k c_k(eta) a^-k / sqrt(2 pi a), from the
    evaluator's pieces."""
    eta = _eta(np.array([lam]) - 1.0)
    corr = float(_temme_sum(np.array([float(a)]), eta)[0])
    return math.exp(-0.5 * a * eta[0] ** 2) * corr / math.sqrt(2.0 * math.pi * a)


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


# --- erfc and erfcx (Cody) --------------------------------------------------


def test_numpy_erfc_matches_math_sweep():
    # every few ulp of math.erfc on [-30, 30], across Cody's switches at
    # 0.46875 and 4; past ~26.5 both leave the normal range
    ts = np.concatenate([np.linspace(-30.0, 30.0, 6001), np.linspace(-4.1, 4.1, 821),
                         [0.46875, np.nextafter(0.46875, 1.0), 4.0, np.nextafter(4.0, 5.0)]])
    want = [math.erfc(t) for t in ts]
    np.testing.assert_allclose(erfc(ts), want, rtol=2e-15, atol=1e-300)
    assert erfc(np.array([0.0]))[0] == 1.0


def test_numpy_erfcx_frozen_oracle():
    # against 50-digit mpmath values up to t = 1e4 (scripts/make_mp_oracles.py)
    table = json.loads((DATA / "mp_oracles.json").read_text())["erfcx"]
    ts = np.array(table["t"])
    assert ts.max() >= 1e4
    np.testing.assert_allclose(erfcx(ts), table["values"], rtol=2e-15, atol=0.0)


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
    # eta against eta^2/2 = x - log(1+x) taken in 50 digits at the same double
    # x = lambda - 1 (in doubles the right side itself cancels near x = 0),
    # to 1e-15 relative: a random sweep, lambda = 1 +- 10^-k and
    # lambda = 1 +- 2^-k down to one ulp
    from mpmath import mp, mpf

    rng = random.Random(2)
    lams = [rng.uniform(0.05, 6.0) for _ in range(200)]
    lams += [1 + s * 10.0**e for s in (1, -1) for e in range(-12, -1)]
    lams += [1 + s * 2.0**-k for s in (1, -1) for k in range(10, 53)]
    xs = np.array(lams) - 1.0
    eta = _eta(xs)
    with mp.workdps(50):
        for x, ev in zip(xs.tolist(), eta):
            want = mp.sign(x) * mp.sqrt(2 * (mpf(x) - mp.log1p(mpf(x))))
            assert abs(ev - want) <= 1e-15 * abs(want), x


def test_eta_domain():
    # lambda = z/a: z = 0 is the exact edge P = 0, a negative z is rejected
    log_p, log_q = log_reg_gamma_pq(np.array([3.0 * A_UNIFORM]), 0.0)
    assert log_p[0] == -np.inf and log_q[0] == 0.0
    with pytest.raises(ValueError):
        log_reg_gamma_pq(np.array([3.0 * A_UNIFORM]), -3.0 * A_UNIFORM)


# --- Temme correction R_a ---------------------------------------------------


def test_temme_R_below_threshold_rejected(monkeypatch):
    # only shapes from A_UNIFORM up, with |eta| <= ETA_UNIFORM, reach the
    # uniform expansion
    import mlcounts.specfun as specfun

    seen = []
    real = specfun._uniform_log_pq
    monkeypatch.setattr(specfun, "_uniform_log_pq",
                        lambda a, eta: (seen.extend(a), real(a, eta))[1])
    shapes = np.array([10.0, np.nextafter(A_UNIFORM, 0.0), A_UNIFORM, 1e4])
    log_reg_gamma_pq(shapes, 1.2 * A_UNIFORM)
    assert seen == [A_UNIFORM]


def test_temme_R_center_value():
    # c_k(0) = -1/3, -1/540, 25/6048, 101/155520, -3184811/3695155200 (Temme
    # 1979); the next term is below 1e-18 of the sum at a = 1000
    a = 1000.0
    c0 = (-1.0 / 3.0, -1.0 / 540.0, 25.0 / 6048.0, 101.0 / 155520.0, -3184811.0 / 3695155200.0)
    want = sum(c / a**k for k, c in enumerate(c0)) / math.sqrt(2.0 * math.pi * a)
    assert _temme_R(a, 1.0) == pytest.approx(want, rel=1e-14)


def test_temme_R_vanishes_far_out():
    # at the branch's edge |eta| = ETA_UNIFORM, e^(-a eta^2/2) has underflowed
    # for large a
    assert _temme_R(1e4, _lam_at(ETA_UNIFORM)) == 0.0
    assert _temme_R(1e4, _lam_at(-ETA_UNIFORM)) == 0.0


def test_temme_R_matches_oracle_gap():
    # R = erfc-term minus the true P, checked against the 50-digit oracle
    from oracles import reference_reg_lower_gamma

    for a in (A_UNIFORM, 3.0 * A_UNIFORM, 6e4):
        for lam in (0.9, 0.999, 1.0, 1.004, 1.3):
            z = lam * a
            erfc_term = 0.5 * math.erfc(-_eta1(lam) * math.sqrt(a / 2.0))
            want = erfc_term - reference_reg_lower_gamma(a, z)
            assert _temme_R(a, lam) == pytest.approx(want, abs=5e-14), (a, lam)


def _derive_frozen_constants():
    spec = importlib.util.spec_from_file_location(
        "derive_frozen_constants", ROOT / "scripts" / "derive_frozen_constants.py")
    derive = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(derive)
    return derive


def test_temme_taylor_table_is_current():
    # one live 60-digit derivation of the c_k Taylor table behind the frozen one
    live = [[float(v) for v in row] for row in _derive_frozen_constants().temme_taylor()]
    assert live == [list(row) for row in _TEMME_TAYLOR]


def test_rgamma1p_table_is_current():
    # the same for the Taylor table of 1/Gamma(1+a) - 1 of the small-shape branch
    live = [float(v) for v in _derive_frozen_constants().rgamma1p_taylor()]
    assert live == _RGAMMA1P_TAYLOR.tolist()


# --- reg_lower_gamma --------------------------------------------------------


def test_p_trivia():
    assert reg_lower_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    assert reg_lower_gamma(3.7, 0.0) == 0.0
    assert reg_lower_gamma(0.5, 1.0) == pytest.approx(math.erf(1.0), rel=1e-13)


def test_p_saturates_past_lgamma_range():
    # lgamma(a) overflows from a ~ 2.5e305: these raised OverflowError, the
    # last after a numpy overflow warning in the continued fraction
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert reg_lower_gamma(3e305, 1.0) == 0.0
        assert reg_lower_gamma(1e308, 1.0) == 0.0
        assert reg_lower_gamma(3e305, 1e306) == 1.0


def test_p_domain():
    with pytest.raises(ValueError):
        reg_lower_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_lower_gamma(1.0, -0.1)


def test_regime_selection_deterministic():
    assert gamma_regime(25000.0, 25100.0) is GammaRegime.TEMME_UNIFORM
    assert gamma_regime(A_UNIFORM, A_UNIFORM) is GammaRegime.TEMME_UNIFORM
    assert gamma_regime(25000.0, 100.0) is GammaRegime.SERIES_SMALL_Z
    assert gamma_regime(10.0, 5.0) is GammaRegime.SERIES_SMALL_Z
    assert gamma_regime(10.0, 20.0) is GammaRegime.CONTINUED_FRACTION
    assert gamma_regime(30.0, 100.0) is GammaRegime.CONTINUED_FRACTION
    assert gamma_regime(2.0, 300.0) is GammaRegime.FIXED_A_LARGE_Z


def test_contfrac_stops_once_rows_converge(monkeypatch):
    # the continued-fraction rows of the r = 0.55 column at b = 2,
    # alpha = 1/2, n = 1000 (z = 91.5) converge within ~10 terms; the loop
    # must stop there rather than run to its cap of 499 terms, and stopping
    # there keeps log Q within the 1e-13 budget of the capped run.  Terms
    # are counted through the module's `range`, so no clock is read.
    import mlcounts.specfun as specfun

    z = 1000 * 0.55**4
    shapes = (np.arange(1000) + 1.5) / 2.0
    rows = [a for a in shapes if gamma_regime(a, z) is GammaRegime.CONTINUED_FRACTION]
    assert len(rows) >= 50
    terms = []

    def counting_range(*args):
        terms.append(0)
        for i in range(*args):
            terms[-1] += 1
            yield i

    monkeypatch.setattr(specfun, "range", counting_range, raising=False)
    log_q = specfun._log_q_contfrac(np.array(rows), z)
    assert len(terms) == 1 and terms[0] <= 40
    monkeypatch.undo()
    monkeypatch.setattr(specfun, "_CONTFRAC_TOL", 0.0)
    capped = specfun._log_q_contfrac(np.array(rows), z)
    np.testing.assert_allclose(log_q, capped, rtol=0.0, atol=1e-13)


def test_p_against_frozen_grid():
    # every grid: the original [1, 1e6] x [0.25, 4], shapes below 1, the band
    # around A_UNIFORM and lambda in 1 +- 0.05 (scripts/make_gammainc_oracle.py)
    grids = json.loads((DATA / "gammainc_grid.json").read_text())["grids"]
    assert min(min(g["a"]) for g in grids) <= 1e-3
    worst = 0.0
    for grid in grids:
        for a, row in zip(grid["a"], grid["p"]):
            for lam, want in zip(grid["lambda"], row):
                worst = max(worst, abs(reg_lower_gamma(a, lam * a) - want))
    assert worst <= 1e-13


def _switches():
    """(a_lo, a_hi, z): adjacent shapes on both sides of a branch switch of
    one column.  At A_UNIFORM: a_lo takes the series (lambda < 1) or the
    continued fraction, a_hi the uniform expansion.  At |eta| = ETA_UNIFORM
    (a moves eta at fixed z): one takes the uniform expansion, the other the
    series (lambda < 1) or the continued fraction (lambda > 1)."""
    out = [(np.nextafter(A_UNIFORM, 0.0), A_UNIFORM, lam * A_UNIFORM)
           for lam in (0.6, 0.9, 0.98, 1.0, 1.01, 1.4, 2.2)]
    for a in (25.0, 60.0, 300.0, 2000.0):
        for eta in (-ETA_UNIFORM, ETA_UNIFORM):
            z = _lam_at(eta) * a
            lo, hi = a / 1.2, a * 1.2
            regime_lo = gamma_regime(lo, z)
            assert regime_lo != gamma_regime(hi, z)
            while True:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                lo, hi = (mid, hi) if gamma_regime(mid, z) is regime_lo else (lo, mid)
            out.append((lo, hi, z))
    return out


def test_regime_boundary_continuity():
    # at every switch between the uniform expansion and the series or the
    # continued fraction, adjacent shapes agree to <= 1e-12 absolute, in P
    # and in Q
    seen = set()
    for a_lo, a_hi, z in _switches():
        regimes = {gamma_regime(a_lo, z), gamma_regime(a_hi, z)}
        assert GammaRegime.TEMME_UNIFORM in regimes and len(regimes) == 2
        seen |= regimes
        for logs in log_reg_gamma_pq(np.array([a_lo, a_hi]), z):
            assert abs(math.exp(logs[0]) - math.exp(logs[1])) <= 1e-12, (a_lo, a_hi, z)
    assert {GammaRegime.SERIES_SMALL_Z, GammaRegime.CONTINUED_FRACTION} <= seen


@pytest.mark.parametrize("z", [1e-8, 0.01, 0.5, 1.0, 1.5, 1.999])
def test_small_shape_switch_continuity(z):
    # series rows take log Q from the small-shape series below a = 1 and from
    # log(1 - P) from a = 1 on: adjacent shapes agree to <= 1e-12 in P and Q
    a = np.array([np.nextafter(1.0, 0.0), 1.0])
    assert {gamma_regime(x, z) for x in a} == {GammaRegime.SERIES_SMALL_Z}
    for logs in log_reg_gamma_pq(a, z):
        assert abs(math.exp(logs[0]) - math.exp(logs[1])) <= 1e-12


@pytest.mark.parametrize(
    "a, z",
    [
        (7.3, 6.0),  # bulk, series
        (2.0, 1e-200),  # P below 1e-300: series
        (1e-10, 0.5),  # Q ~ a E1(z) small: small-shape series
        (1e-6, 0.9),
        (2000.0, 100.0),
        (0.5, 800.0),  # Q below 1e-300: continued fraction
        (50.0, 2000.0),
        (6300.0, 3600.0),  # uniform expansion, both tails
        (1e4, 1.5e4),
        (3e4, 2.2e4),
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


def test_barnes_rejects_infinite_and_overflowing_z():
    # z = inf used to return nan, and so did z past ~1.3e154 (inf - inf),
    # while log G(z) already overflowed from ~1.3e153
    assert math.isfinite(log_barnes_g(1e153))
    for z in (math.inf, 1.3e153, 1e155, 1e300):
        with pytest.raises(ValueError):
            log_barnes_g(z)


def test_incomplete_gamma_rejects_infinite_shapes():
    # a = inf used to return nan
    with pytest.raises(ValueError, match="finite shapes"):
        reg_lower_gamma(math.inf, 1.0)
    with pytest.raises(ValueError, match="finite shapes"):
        log_reg_gamma_pq(np.array([1.0, math.inf]), 2.0)



# --- log-prefactor, broadcast z, Gauss-Legendre rule ----------------------------


def _prefactor_cases():
    """(a, z): shapes from 1 to 1e18, arguments across each saturation window
    (z = a + k sqrt(a), out to past e^-60) and far from it."""
    rng = random.Random(7)
    cases = []
    for e in range(0, 19):
        a = float(10**e) * rng.uniform(1.0, 3.0)
        for k in (-15.0, -11.0, -3.0, -0.4, 0.0, 0.7, 4.0, 11.0, 15.0):
            z = a + k * math.sqrt(a)
            if z > 0:
                cases.append((a, z))
        cases += [(a, 0.36 * a), (a, 3.0 * a), (a, 1e-3)]
    return cases + [(0.3, 2.0), (0.7, 1e-5), (0.05, 40.0)]


def test_log_prefactor_within_its_conditioning():
    # log(z^a e^-z / Gamma(a)) against 50-digit mpmath, within 8 eps of its
    # conditioning |z - a| + a |log(z/a)| + |log a| + 1 (the sizes that an
    # eps change in a or z moves it by); a log z - z - lgamma(a) was 4.5
    # off at a ~ z ~ 4e15 and 19 at 4e17, where that scale is ~1e9 eps
    import mpmath

    from mlcounts.specfun import log_prefactor

    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        for a, z in _prefactor_cases():
            A, Z = mpmath.mpf(a), mpmath.mpf(z)
            want = float(A * mpmath.log(Z) - Z - mpmath.loggamma(A))
            scale = abs(z - a) + a * abs(math.log(z / a)) + abs(math.log(a)) + 1.0
            assert abs(log_prefactor(a, z) - want) <= 8 * eps * scale, (a, z)


def test_log_reg_gamma_pq_broadcasts_z():
    # one call over several columns (z per shape) equals a call per column,
    # bit for bit, in every branch; a scalar z keeps the shape of a, and
    # z = 0 and z = inf are exact per entry
    columns = [(np.array([0.3, 0.9, 5.0, 40.0, 1e3, 2e4]), 0.5),
               (np.array([3.0, 30.0, 900.0, 1e4]), 1e3),
               (np.array([1e5, 2e5]), 1.5e5)]
    a = np.concatenate([c for c, _ in columns])
    z = np.repeat([zl for _, zl in columns], [len(c) for c, _ in columns])
    lp, lq = log_reg_gamma_pq(a, z)
    start = 0
    for c, zl in columns:
        want_p, want_q = log_reg_gamma_pq(c, zl)
        assert lp[start : start + c.size].tobytes() == want_p.tobytes()
        assert lq[start : start + c.size].tobytes() == want_q.tobytes()
        start += c.size
    p, q = log_reg_gamma_pq(2.0, 1.0)
    assert p.shape == q.shape == () and math.exp(p) == pytest.approx(reg_lower_gamma(2.0, 1.0), rel=1e-15)
    lp, lq = log_reg_gamma_pq(np.array([2.0, 2.0, 2.0]), np.array([0.0, math.inf, 1.0]))
    assert lp[:2].tolist() == [-math.inf, 0.0] and lq[:2].tolist() == [0.0, -math.inf]
    assert lp[2] == log_reg_gamma_pq(2.0, 1.0)[0]
    with pytest.raises(ValueError, match=r"got -2\.0"):
        log_reg_gamma_pq([1.0, 2.0], np.array([1.0, -2.0]))


def test_gauss_legendre_rule_without_numpy_polynomial():
    # the 40-node rule from Newton's method on the Legendre recurrence: nodes
    # within 2 ulp of numpy's leggauss; weights within 8 eps (of the largest
    # weight) of a 40-digit rule, where leggauss's own are up to ~180 eps off
    import mpmath

    from mlcounts.specfun import GL_ORDER, _legendre_rule, unit_rule

    eps = np.finfo(float).eps
    x, w = _legendre_rule()
    X, W = np.polynomial.legendre.leggauss(GL_ORDER)
    assert np.max(np.abs(x - X)) <= 2 * eps
    assert np.max(np.abs(w - W)) <= 256 * eps * W.max()
    with mpmath.workdps(40):
        exact = []
        for xi in X:
            root = mpmath.findroot(lambda t: mpmath.legendre(GL_ORDER, t), mpmath.mpf(xi))
            slope = mpmath.diff(lambda t: mpmath.legendre(GL_ORDER, t), root)
            exact.append(float(2 / ((1 - root**2) * slope**2)))
    assert np.max(np.abs(w - np.array(exact))) <= 8 * eps * max(exact)
    nodes, weights = unit_rule(3)
    assert nodes.size == weights.size == 3 * GL_ORDER and not nodes.flags.writeable
    assert math.fsum(weights.tolist()) == pytest.approx(1.0, abs=4 * eps)
    assert weights @ nodes**7 == pytest.approx(1 / 8, rel=1e-14)

import json
import math
import pathlib
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlcounts.asymptotics as asym
from mlcounts.asymptotics import (
    bulk_cumulant_coeffs,
    edge_cumulant_coeffs,
    edge_mean_coeffs,
    edge_var_coeffs,
    outside_cumulant_coeffs,
    theorem_coefficients,
    zn_constant,
    zn_expansion,
)
from mlcounts.exact import Disk, DiskSystem, EnsembleParams, log_mgf_exact, log_partition_exact
from mlcounts.series import MAX_ORDER

import oracles

FROZEN = json.loads((pathlib.Path(__file__).parent / "data" / "mp_oracles.json").read_text())


def _frozen_bulk(u):
    """(C2, C3, C4) of the bulk disk of mp_oracles.json at u (30-digit mpmath)."""
    table = FROZEN["bulk_coeffs"]
    assert (table["b"], table["alpha"], table["r"]) == (1.0, 0.0, 0.6)
    return table["values"][repr(u)]


# --- kernel functions ---------------------------------------------------------
# F(t, s) = log(1 + (s-1) erfc(t)/2) and G = dF/dt, read off the value kernel
# at u = log s


def _F(t, s):
    return asym._value_kernel(math.log(s)).arrays(np.array([t]))[0][0]


def _G(t, s):
    return asym._value_kernel(math.log(s)).arrays(np.array([t]))[2][0]


def test_F_trivia():
    for t in (-3.0, 0.0, 1.7):
        assert _F(t, 1.0) == 0.0
    assert _F(0.0, 2.5) == pytest.approx(math.log(1.75), rel=1e-14)
    assert _F(-9.0, 3.0) == pytest.approx(math.log(3.0), rel=1e-10)


def test_G_trivia():
    assert _G(0.3, 1.0) == 0.0
    assert abs(_G(7.0, 2.0)) < 1e-20
    assert abs(_G(-7.0, 2.0)) < 1e-20


def test_G_is_t_derivative_of_F():
    rng = random.Random(3)
    h = 1e-6
    for _ in range(100):
        t = rng.uniform(-4, 4)
        s = math.exp(rng.uniform(-1.5, 1.5))
        fd = (_F(t + h, s) - _F(t - h, s)) / (2 * h)
        assert fd == pytest.approx(_G(t, s), abs=1e-9)


def test_u_parity_of_symmetrized_F():
    # odd u-derivatives of F(t,e^u) + F(t,e^-u) vanish identically
    rng = random.Random(4)
    t = np.array([rng.uniform(-4, 4) for _ in range(50)])
    for j in range(1, MAX_ORDER + 1, 2):
        f_plus, f_minus, _, _ = asym._derivative_kernel(j).arrays(t)
        assert np.all(f_plus + f_minus == 0.0)
    for j in range(2, MAX_ORDER + 1, 2):
        f_plus, f_minus, _, _ = asym._derivative_kernel(j).arrays(t)
        assert np.all(f_plus - f_minus == 0.0)


def test_u_derivative_series_vs_complex_step():
    # order-1 derivative of F(t, e^u) via complex step
    h = 1e-20
    ts = np.array([-2.0, 0.0, 0.8, 3.0])
    f_plus = asym._derivative_kernel(1).arrays(ts)[0]
    g = asym._derivative_kernel(0).arrays(ts)[2]
    for i, t in enumerate(ts):
        cs = complex(np.log(1 + (np.exp(1j * h) - 1) * math.erfc(t) / 2)).imag / h
        assert f_plus[i] == pytest.approx(cs, rel=1e-12, abs=1e-15)
        # and the G-series order 0 must equal G itself
        assert g[i] == pytest.approx(_G(t, 1.0), abs=1e-15)


def test_derivative_kernel_vs_mp_taylor():
    # every order up to MAX_ORDER of F(t, e^u), F(t, e^-u), G and G^2 against
    # 50-digit Taylor coefficients, to 1e-14 of each column's largest value
    ts = np.array([-6.0, -3.1, -1.2, -0.3, 0.0, 0.45, 1.7, 3.3, 5.2, 7.9])
    want = np.array([oracles.mp_kernel_derivatives(t, MAX_ORDER) for t in ts])  # (t, 4, j)
    for j in range(MAX_ORDER + 1):
        got = np.array(asym._derivative_kernel(j).arrays(ts))
        ref = want[:, :, j].T
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-14 * scale), j


# --- theorem coefficients -----------------------------------------------------


def test_coeffs_zero_at_u_zero():
    params = EnsembleParams(b=1.0, alpha=0.0, n=100)
    disks = DiskSystem([Disk.fixed(0.4), Disk.edge(0.2), Disk.fixed(1.4)])
    C = theorem_coefficients(params, disks)
    assert (C.C1, C.C2, C.C3, C.C4) == (0.0, 0.0, 0.0, 0.0)


def test_c1_formula_and_linearity():
    params = EnsembleParams(b=1.0, alpha=0.0, n=10)
    C = theorem_coefficients(params, DiskSystem([Disk.fixed(0.6, 1.0)]))
    assert C.C1 == pytest.approx(0.36, rel=1e-14)
    C2x = theorem_coefficients(params, DiskSystem([Disk.fixed(0.6, 2.0)]))
    assert C2x.C1 == pytest.approx(0.72, rel=1e-14)
    # outside and edge disks contribute u itself
    Cmix = theorem_coefficients(
        params, DiskSystem([Disk.fixed(0.6, 0.5), Disk.edge(0.3, 0.25), Disk.fixed(1.5, -0.75)])
    )
    assert Cmix.C1 == pytest.approx(1.0 * 0.36 * 0.5 + 0.25 - 0.75, rel=1e-12)


def test_outside_only_prediction_is_un():
    params = EnsembleParams(b=1.0, alpha=0.0, n=500)
    disks = DiskSystem([Disk.fixed(1.5, 0.7)])
    C = theorem_coefficients(params, disks)
    assert (C.C2, C.C3, C.C4) == (0.0, 0.0, 0.0)
    assert C.evaluate(params.n) == pytest.approx(0.7 * 500)
    assert log_mgf_exact(params, disks) == pytest.approx(0.7 * 500, abs=1e-6)


def test_per_disk_breakdown_sums_to_totals():
    params = EnsembleParams(b=2.0, alpha=0.5, n=100)
    disks = DiskSystem(
        [Disk.fixed(0.45, 0.3), Disk.fixed(0.55, -0.2), Disk.edge(0.3, 0.3), Disk.fixed(1.2, 0.3)]
    )
    C = theorem_coefficients(params, disks)
    assert len(C.per_disk) == 4
    for attr in ("C1", "C2", "C3", "C4"):
        assert getattr(C, attr) == pytest.approx(
            math.fsum(getattr(d, attr) for d in C.per_disk), abs=1e-14
        )
    kinds = [d.kind for d in C.per_disk]
    assert kinds == ["bulk", "bulk", "edge", "outside"]


def test_c2_second_derivative_is_bulk_variance_coeff():
    # d^2 C2/du^2 at u=0 equals b r^b / sqrt(pi)
    b, alpha, r = 1.0, 0.0, 0.6
    params = EnsembleParams(b=b, alpha=alpha, n=10)
    h = 1e-3

    def c2(u):
        return theorem_coefficients(params, DiskSystem([Disk.fixed(r, u)])).C2

    fd = (c2(h) - 2 * c2(0.0) + c2(-h)) / h**2
    assert fd == pytest.approx(b * r**b / math.sqrt(math.pi), abs=1e-7)


def test_theorem_prediction_vs_exact_bulk():
    params = EnsembleParams(b=1.0, alpha=0.0, n=4000)
    disks = DiskSystem([Disk.fixed(0.6, 1.0)])
    predicted = theorem_coefficients(params, disks).evaluate(params.n)
    resid = log_mgf_exact(params, disks) - predicted
    assert abs(resid) < 5e-6


def test_theorem_prediction_vs_exact_full_configuration():
    params = EnsembleParams(b=2.0, alpha=0.5, n=4000)
    disks = DiskSystem(
        [Disk.fixed(0.45, 0.3), Disk.fixed(0.55, 0.3), Disk.edge(0.3, 0.3), Disk.fixed(1.2, 0.3)]
    )
    predicted = theorem_coefficients(params, disks).evaluate(params.n)
    resid = log_mgf_exact(params, disks) - predicted
    assert abs(resid) < 5e-6


def test_quadrature_convergence(monkeypatch):
    params = EnsembleParams(b=1.3, alpha=0.2, n=10)
    disks = DiskSystem([Disk.fixed(0.5, 0.8), Disk.edge(-0.4, 0.6)])
    base = theorem_coefficients(params, disks)
    monkeypatch.setattr(asym, "TAIL_T", asym.TAIL_T * 2.0)
    monkeypatch.setattr(asym, "QUAD_PANELS", asym.QUAD_PANELS * 2)
    refined = theorem_coefficients(params, disks)
    for attr in ("C1", "C2", "C3", "C4"):
        assert abs(getattr(base, attr) - getattr(refined, attr)) <= max(
            base.quad_error, 1e-13
        )


@pytest.mark.parametrize("u", [-30.0, -40.0, -50.0])
def test_bulk_coefficients_at_large_negative_u(u):
    # log1p((s-1) erfc(t)/2) used to cancel as s = e^u -> 0: C4 was 0.3 off
    # at u = -30 and u = -40 divided by zero; the integrands decay like
    # e^(|u| - t^2), so a cutoff at TAIL_T alone leaves C4 2.5e-6 off at -50
    params = EnsembleParams(b=1.0, alpha=0.0, n=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        C = theorem_coefficients(params, DiskSystem([Disk.fixed(0.6, u)]))
    assert (C.C2, C.C3, C.C4) == pytest.approx(_frozen_bulk(u), rel=1e-9)


def test_frozen_bulk_oracle_is_current():
    # one live evaluation of the 30-digit oracle behind the frozen table
    assert oracles.mp_bulk_coeffs(1.0, 0.0, 0.6, -30.0) == pytest.approx(_frozen_bulk(-30.0), rel=1e-14)


@pytest.mark.parametrize("u", [710.0, -710.0, 800.0, -800.0])
def test_bulk_coefficients_past_exp_overflow(u):
    # e^|u| overflows a float past |u| ~ 709.78 (and erfc flushes to 0 where
    # e^|u| erfc still counts): the kernel takes that side in log form instead
    # of raising OverflowError from math.expm1
    params = EnsembleParams(b=1.0, alpha=0.0, n=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        C = theorem_coefficients(params, DiskSystem([Disk.fixed(0.6, u)]))
    assert (C.C2, C.C3, C.C4) == pytest.approx(_frozen_bulk(u), rel=1e-9)
    assert math.isfinite(C.quad_error)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_coefficients_continuous_across_exp_overflow(sign):
    # both forms of the kernel agree where the log form takes over, for a
    # bulk disk and the edge disk alike
    params = EnsembleParams(b=1.5, alpha=0.5, n=10)
    below, above = (sign * (asym._LOG_FORM_U + d) for d in (-1e-9, 1e-9))
    for make in (lambda u: Disk.fixed(0.5, u), lambda u: Disk.edge(0.3, u)):
        lo = theorem_coefficients(params, DiskSystem([make(below)]))
        hi = theorem_coefficients(params, DiskSystem([make(above)]))
        assert (hi.C1, hi.C2, hi.C3, hi.C4) == pytest.approx((lo.C1, lo.C2, lo.C3, lo.C4), rel=1e-10)


@st.composite
def _coeff_configs(draw):
    b = draw(st.floats(0.3, 3.0))
    alpha = draw(st.floats(-0.9, 2.0))
    r = b ** (-1 / (2 * b)) * draw(st.floats(0.05, 0.95))
    s = draw(st.floats(-3.0, 3.0))
    us = draw(st.lists(st.floats(-60.0, 60.0), min_size=2, max_size=2))
    return EnsembleParams(b=b, alpha=alpha, n=100), r, s, us


@settings(max_examples=40, deadline=None)
@given(_coeff_configs())
def test_coeffs_property_finite_and_zero_at_u_zero(config):
    params, r, s, (u_bulk, u_edge) = config
    C = theorem_coefficients(params, DiskSystem([Disk.fixed(r, u_bulk), Disk.edge(s, u_edge)]))
    assert all(math.isfinite(v) for v in (C.C1, C.C2, C.C3, C.C4))
    assert math.isfinite(C.quad_error) and C.quad_error >= 0.0
    Z = theorem_coefficients(params, DiskSystem([Disk.fixed(r, 0.0), Disk.edge(s, 0.0)]))
    assert (Z.C1, Z.C2, Z.C3, Z.C4) == (0.0, 0.0, 0.0, 0.0)


def test_rejects_two_edge_like_disks():
    params = EnsembleParams(b=1.0, alpha=0.0, n=100)
    disks = DiskSystem([Disk.fixed(1.0, 0.1), Disk.edge(0.5, 0.1)])  # fixed r = rstar
    with pytest.raises(ValueError):
        theorem_coefficients(params, disks)


# --- cumulant coefficient series ----------------------------------------------


def test_bulk_mean_closed_form():
    # kappa_1 = b r^(2b) n + (b-1-2alpha)/2
    for b, alpha, r in ((1.0, 0.0, 0.6), (2.0, 0.5, 0.5), (0.5, -0.2, 0.9)):
        s1 = bulk_cumulant_coeffs(1, b, alpha, r)
        assert s1.leading == pytest.approx(b * r ** (2 * b), rel=1e-14)
        assert s1.c == pytest.approx(0.0, abs=1e-12)
        assert s1.d == pytest.approx((b - 1 - 2 * alpha) / 2.0, abs=1e-10)
        assert s1.e == pytest.approx(0.0, abs=1e-10)


def test_bulk_variance_closed_form():
    for b, alpha, r in ((1.0, 0.0, 0.6), (2.0, 0.5, 0.5)):
        s2 = bulk_cumulant_coeffs(2, b, alpha, r)
        assert s2.leading == 0.0
        assert s2.c == pytest.approx(b * r**b / math.sqrt(math.pi), rel=1e-11)
        assert s2.d == pytest.approx(0.0, abs=1e-12)
        assert s2.e == pytest.approx(-b / (16 * math.sqrt(math.pi) * r**b), rel=1e-9)


def test_bulk_parity_structure():
    s3 = bulk_cumulant_coeffs(3, 1.0, 0.0, 0.6)
    assert s3.c == 0.0 and abs(s3.e) <= 1e-12
    assert s3.d != 0.0
    s4 = bulk_cumulant_coeffs(4, 2.0, 0.5, 0.5)
    assert abs(s4.d) <= 1e-12
    assert s4.c != 0.0


def test_bulk_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bulk_cumulant_coeffs(MAX_ORDER + 1, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        bulk_cumulant_coeffs(1, 1.0, 0.0, 1.2)  # outside the bulk
    with pytest.raises(ValueError, match=r"b = 1e-05"):
        bulk_cumulant_coeffs(2, 1e-5, 0.0, 0.5)  # support radius past double range
    # 0.7^2000 is subnormal, so C4 ~ b / r^b overflows; 0.3^700 is 0
    with pytest.raises(ValueError, match=r"b = 2000, r = 0\.7"):
        bulk_cumulant_coeffs(2, 2000, 0.0, 0.7)
    params = EnsembleParams(b=700.0, alpha=0.0, n=1)
    with pytest.raises(ValueError, match=r"b = 700\.0, r = 0\.3"):
        theorem_coefficients(params, DiskSystem([Disk.fixed(0.3, 1.0)]))


@st.composite
def _parity_configs(draw):
    b = draw(st.floats(0.3, 3.0))
    alpha = draw(st.floats(-0.9, 2.0))
    r = b ** (-1 / (2 * b)) * draw(st.floats(0.05, 0.95))
    return b, alpha, r, draw(st.integers(1, MAX_ORDER))


@settings(max_examples=40, deadline=None)
@given(_parity_configs())
def test_bulk_parity_property(config):
    # odd orders: c_j is exactly 0 and e_j vanishes; even orders: d_j vanishes
    # ("vanishes": within 1e-10 of the nonzero coefficients, as criterion 07).
    # e_j is b/r^b times integrals whose odd parts cancel, so its zero is
    # measured on that scale too: at r = 0.05 r*, b = 3 (b/r^b = 4e4) the
    # rounding left in e_11 is 2.7e-10
    b, alpha, r, j = config
    s = bulk_cumulant_coeffs(j, b, alpha, r)
    if j % 2:
        assert s.c == 0.0
        assert abs(s.e) <= 1e-10 * max(1.0, abs(s.d), b / r**b)
    else:
        assert abs(s.d) <= 1e-10 * max(1.0, abs(s.c), abs(s.e))


def test_expansion_derivatives_match_cumulant_series():
    # u-derivatives of C2(u), C3(u), C4(u) for one bulk disk reproduce
    # (c_j, d_j, e_j); derivatives taken by Cauchy-circle integration
    b, alpha, r = 1.4, 0.3, 0.55
    for j in (1, 2, 3, 4):
        want = bulk_cumulant_coeffs(j, b, alpha, r)
        dc2, dc3, dc4 = oracles.bulk_coeff_derivatives(b, alpha, r, j)
        assert dc2 == pytest.approx(want.c, abs=1e-8)
        assert dc3 == pytest.approx(want.d, abs=1e-8)
        assert dc4 == pytest.approx(want.e, abs=1e-8)


@pytest.mark.parametrize("j", [7, 9, 12])
def test_high_order_bulk_coeffs_vs_mp_formula_derivatives(j):
    # (c_j, d_j, e_j) against j-th u-derivatives at 0 of the whole bulk
    # formulas (C2, C3, C4): a 50-digit Cauchy integral of the integrals
    # themselves, not of the kernel the engine differentiates
    # (tests/oracles.py::mp_bulk_coeff_derivatives, frozen by
    # scripts/make_mp_oracles.py)
    table = FROZEN["bulk_derivatives"]
    assert (table["b"], table["alpha"], table["r"]) == (1.0, 0.0, 0.6)
    s = bulk_cumulant_coeffs(j, 1.0, 0.0, 0.6)
    for got, want in zip((s.c, s.d, s.e), table["values"][str(j)]):
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_frozen_bulk_derivative_oracle_is_current():
    # one live evaluation of the formulas at a node of the Cauchy circle
    node = FROZEN["bulk_derivatives"]["node"]
    live = oracles.mp_bulk_node(1.0, 0.0, 0.6, complex(*node["u"]), dps=30)
    assert live == pytest.approx([complex(*v) for v in node["values"]], rel=1e-14, abs=0.0)


def test_edge_closed_forms_at_zero():
    # displayed mean/variance coefficients at s = 0
    b, alpha = 1.0, 0.0
    c1, d1, e1 = edge_mean_coeffs(b, alpha, 0.0)
    assert c1 == pytest.approx(-1.0 / math.sqrt(2 * math.pi), rel=1e-14)
    assert d1 == pytest.approx((b - 1 - 2 * alpha) / 4.0, abs=1e-15)
    assert e1 == pytest.approx(1.0 / (12 * math.sqrt(2 * math.pi)), rel=1e-14)
    c2, d2, e2 = edge_var_coeffs(b, alpha, 0.0)
    assert c2 == pytest.approx(1.0 / (2 * math.sqrt(math.pi)), rel=1e-14)
    assert d2 == pytest.approx((1 + 2 * alpha - b) / 8.0 - b / (12 * math.pi), rel=1e-14)
    assert e2 == pytest.approx(-1.0 / (32 * math.sqrt(math.pi)), rel=1e-14)


def test_edge_c1_negative_c2_positive():
    for s in (-2.0, -0.5, 0.0, 0.7, 2.5):
        c1, _, _ = edge_mean_coeffs(1.3, 0.1, s)
        c2, _, _ = edge_var_coeffs(1.3, 0.1, s)
        assert c1 < 0.0
        assert c2 > 0.0


def test_edge_closed_forms_far_tail():
    # e^(-s^2) is 0 here: e1 and e2 take their limit where s^4 overflowed
    c1, d1, e1 = edge_mean_coeffs(1.0, 0.0, -1e200)
    assert (c1, d1, e1) == (pytest.approx(-math.sqrt(2.0) * 1e200, rel=1e-15), 0.0, 0.0)
    assert edge_var_coeffs(1.0, 0.0, 40.0) == (0.0, 0.0, 0.0)
    # s^2 overflows, so e2 holds inf * erfc(sqrt(2) s) = inf * 0: a ValueError naming s
    with pytest.raises(ValueError, match=r"s = 1e\+200"):
        edge_var_coeffs(1.0, 0.0, 1e200)


def test_edge_quadrature_matches_closed_forms():
    for s in (-1.0, 0.0, 0.7):
        for b, alpha in ((1.0, 0.0), (2.0, 0.5)):
            got1 = edge_cumulant_coeffs(1, b, alpha, s)
            c1, d1, e1 = edge_mean_coeffs(b, alpha, s)
            assert got1.leading == 1.0
            assert got1.c == pytest.approx(c1, abs=1e-9)
            assert got1.d == pytest.approx(d1, abs=1e-9)
            assert got1.e == pytest.approx(e1, abs=1e-9)
            got2 = edge_cumulant_coeffs(2, b, alpha, s)
            c2, d2, e2 = edge_var_coeffs(b, alpha, s)
            assert got2.leading == 0.0
            assert got2.c == pytest.approx(c2, abs=1e-9)
            assert got2.d == pytest.approx(d2, abs=1e-9)
            assert got2.e == pytest.approx(e2, abs=1e-9)


def test_extreme_edge_parameter_is_flagged():
    with pytest.warns(RuntimeWarning) as record:
        series = edge_cumulant_coeffs(1, 1.0, 0.0, 7.5)
    assert any("edge parameter" in str(w.message) for w in record)
    assert math.isfinite(series.c)  # predictions still returned
    params = EnsembleParams(b=1.0, alpha=0.0, n=10000)
    with pytest.warns(RuntimeWarning), warnings.catch_warnings():
        warnings.simplefilter("always")
        theorem_coefficients(params, DiskSystem([Disk.edge(-6.5, 0.4)]))


def test_edge_series_evaluate():
    s1 = edge_cumulant_coeffs(1, 1.0, 0.0, 0.0)
    n = 10000
    want = n + s1.c * math.sqrt(n) + s1.d + s1.e / math.sqrt(n)
    assert s1.evaluate(n) == pytest.approx(want, rel=1e-15)


def test_outside_series():
    assert outside_cumulant_coeffs(1).leading == 1.0
    s = outside_cumulant_coeffs(3)
    assert (s.leading, s.c, s.d, s.e) == (0.0, 0.0, 0.0, 0.0)


# --- partition expansion --------------------------------------------------------


def test_zn_constant_ginibre_is_zeta_prime():
    from mlcounts.specfun import ZETA_PRIME_MINUS_ONE

    z = zn_expansion(EnsembleParams(b=1.0, alpha=0.0, n=100))
    assert z.includes_constant
    assert z.constant == zn_constant(1.0, 0.0, 1, 1)
    assert z.constant == pytest.approx(ZETA_PRIME_MINUS_ONE, rel=1e-12)


def test_zn_residual_small_for_b1():
    for n in (250, 1000):
        params = EnsembleParams(b=1.0, alpha=0.0, n=n)
        resid = log_partition_exact(params) - zn_expansion(params).value
        assert abs(resid) <= 5.0 / n**2


def test_zn_expansion_matches_mp_oracle():
    for b, alpha, n1, n2 in ((1.0, 0.0, 1, 1), (0.5, 0.0, 1, 2), (1.5, 0.25, 3, 2)):
        params = EnsembleParams(b=b, alpha=alpha, n=500)
        z = zn_expansion(params)
        assert z.includes_constant and z.constant == zn_constant(b, alpha, n1, n2)
        truth = float(oracles.mp_zn_expansion(b, alpha, 500, n1, n2))
        # absolute tolerance scaled to the value's own float noise floor
        assert z.value == pytest.approx(truth, abs=1e-15 * abs(truth) + 1e-10)


@pytest.mark.parametrize("b", [3.0, math.pi / 3.0], ids=["rational", "irrational"])
def test_zn_expansion_past_double_range_raises(b):
    with pytest.raises(ValueError, match=r"alpha = 1e\+300"):
        zn_expansion(EnsembleParams(b=b, alpha=1e300, n=10))


def test_zn_irrational_b_flag():
    z = zn_expansion(EnsembleParams(b=math.pi / 3.0, alpha=0.0, n=100))
    assert not z.includes_constant
    assert z.constant is None


def test_zn_constant_fit_from_exact():
    # fit the constant from exact log Z_n at large n; must match the formula
    b, alpha = 1.0, 0.0
    fits = []
    for n in (500, 1000, 2000):
        params = EnsembleParams(b=b, alpha=alpha, n=n)
        z = zn_expansion(params)
        fits.append(z.constant + log_partition_exact(params) - z.value)
    for f in fits:
        assert f == pytest.approx(zn_expansion(EnsembleParams(b=b, alpha=alpha, n=500)).constant, abs=1e-6)

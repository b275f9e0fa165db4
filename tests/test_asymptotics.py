import json
import math
import pathlib
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mlcounts.asymptotics as asym
from mlcounts.asymptotics import (
    bulk_cumulant_coeffs,
    cumulant_coeffs,
    edge_cumulant_coeffs,
    edge_mean_coeffs,
    edge_var_coeffs,
    outside_cumulant_coeffs,
    theorem_coefficients,
    zn_constant,
    zn_expansion,
)
from mlcounts.exact import (Disk, DiskSystem, EnsembleParams, log_mgf_exact, log_partition_exact,
                            support_radius)
from mlcounts.series import MAX_ORDER
from mlcounts.verify import clt_experiment

import oracles

FROZEN = json.loads((pathlib.Path(__file__).parent / "data" / "mp_oracles.json").read_text())


def _frozen_bulk(u):
    """(C2, C3, C4) of the bulk disk of mp_oracles.json at u (30-digit mpmath)."""
    table = FROZEN["bulk_coeffs"]
    assert (table["b"], table["alpha"], table["r"]) == (1.0, 0.0, 0.6)
    return table["values"][repr(u)]


# --- kernel functions ---------------------------------------------------------
# F(t, s) = log(1 + (s-1) erfc(t)/2) and G = dF/dt, read off the value kernel
# at u = log s; its rows are F, G and G^2 at e^u and e^-u:
F_PLUS, F_MINUS, G_PLUS, G_MINUS, SQ_PLUS, SQ_MINUS = range(6)
SWAP_SIDES = [F_MINUS, F_PLUS, G_MINUS, G_PLUS, SQ_MINUS, SQ_PLUS]


def _F(t, s):
    return asym._value_kernel(math.log(s))(np.array([t]))[F_PLUS][0]


def _G(t, s):
    return asym._value_kernel(math.log(s))(np.array([t]))[G_PLUS][0]


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
        f_plus, f_minus = asym._derivative_kernel(j)(t)[[F_PLUS, F_MINUS]]
        assert np.all(f_plus + f_minus == 0.0)
    for j in range(2, MAX_ORDER + 1, 2):
        f_plus, f_minus = asym._derivative_kernel(j)(t)[[F_PLUS, F_MINUS]]
        assert np.all(f_plus - f_minus == 0.0)


@pytest.mark.parametrize("u", [0.0, 0.7, -2.5, 30.0, -650.0, 800.0])
def test_value_kernel_sides_and_reflection(u):
    # the e^-u rows at u are the e^u rows at -u, bit for bit, for t of either
    # sign; G(t, e^-u) and its square are the reflection of the e^u side,
    # G(t, e^-u) = -G(-t, e^u), exactly; F(t, e^-u) = F(-t, e^u) - u
    t = np.array([-6.0, -3.1, -1.2, -0.3, 0.45, 1.7, 3.3, 5.2, 7.9])
    rows = asym._value_kernel(u)(t)
    assert np.array_equal(asym._value_kernel(-u)(t), rows[SWAP_SIDES])
    mirror = asym._value_kernel(u)(-t)
    assert np.array_equal(rows[G_MINUS], -mirror[G_PLUS])
    assert np.array_equal(rows[SQ_MINUS], mirror[SQ_PLUS])
    assert rows[F_MINUS] == pytest.approx(mirror[F_PLUS] - u, rel=0.0, abs=1e-15 * max(1.0, abs(u)))


def test_derivative_kernel_sides_and_reflection():
    # the e^-u rows are (-1)^j times the e^u rows, and G(t, e^-u) and its
    # square the reflection of the e^u side, exactly, at every order
    t = np.array([-6.0, -3.1, -1.2, -0.3, 0.45, 1.7, 3.3, 5.2, 7.9])
    for j in range(MAX_ORDER + 1):
        kernel = asym._derivative_kernel(j)
        rows, mirror = kernel(t), kernel(-t)
        assert np.array_equal(rows[[F_MINUS, G_MINUS, SQ_MINUS]],
                              (-1.0) ** j * rows[[F_PLUS, G_PLUS, SQ_PLUS]]), j
        assert np.array_equal(rows[G_MINUS], -mirror[G_PLUS]), j
        assert np.array_equal(rows[SQ_MINUS], mirror[SQ_PLUS]), j


def test_u_derivative_series_vs_complex_step():
    # order-1 derivative of F(t, e^u) via complex step
    h = 1e-20
    ts = np.array([-2.0, 0.0, 0.8, 3.0])
    f_plus = asym._derivative_kernel(1)(ts)[F_PLUS]
    g = asym._derivative_kernel(0)(ts)[G_PLUS]
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
        got = asym._derivative_kernel(j)(ts)[[F_PLUS, F_MINUS, G_PLUS, SQ_PLUS]]
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


@pytest.mark.parametrize("disk", [Disk.fixed(0.5, 1e5), Disk.edge(-2.0, -1e5)], ids=["bulk", "edge"])
def test_unconverged_quadrature_raises(disk):
    # at |u| = 1e5 the last rule still misses QUAD_RTOL (the bulk's last two
    # rules differ by 2.4e-4): a ValueError naming the disk, where C4 used to
    # come back as -6996401447488.0 with quad_error 3.4e14
    params = EnsembleParams(b=1.0, alpha=0.0, n=10)
    with pytest.raises(ValueError, match=r"not converged .* u = (-)?100000\.0"):
        theorem_coefficients(params, DiskSystem([disk]))


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


@pytest.mark.parametrize("j", [True, 1.0, 2.5])
def test_cumulant_order_must_be_an_int(j):
    # True used to run as j = 1
    with pytest.raises(ValueError, match="cumulant order"):
        cumulant_coeffs(j, EnsembleParams(1.0, 0.0, 1), DiskSystem([Disk.fixed(0.5)]))
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


@pytest.mark.parametrize("j", [7, 9, 12])
def test_high_order_edge_coeffs_vs_mp_formula_derivatives(j):
    # the edge's (c_j, d_j, e_j) against j-th u-derivatives at 0 of the whole
    # edge formulas in their literal two-interval form, not the single
    # reflected interval the engine integrates
    # (tests/oracles.py::mp_edge_coeff_derivatives, frozen by
    # scripts/make_mp_oracles.py)
    table = FROZEN["edge_derivatives"]
    assert (table["b"], table["alpha"]) == (1.5, 0.5)
    assert sorted(table["values"]) == ["-1.0", "0.7"]
    for s, values in table["values"].items():
        series = edge_cumulant_coeffs(j, 1.5, 0.5, float(s))
        for got, want in zip((series.c, series.d, series.e), values[str(j)]):
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (s, got, want)


def test_frozen_edge_derivative_oracle_is_current():
    # one live evaluation of the edge formulas at a node of the Cauchy circle
    node = FROZEN["edge_derivatives"]["node"]
    live = oracles.mp_edge_node(1.5, 0.5, node["s"], complex(*node["u"]), dps=30)
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


def test_bulk_coeffs_follow_classify_at_support_edge():
    # r = 1 - 1e-13 is within 1e-12 of r* = 1: classify calls it the edge disk
    # at s = 0, so there are no bulk coefficients (it used to return c = 0.5642)
    r = 1.0 - 1e-13
    with pytest.raises(ValueError, match=r"bulk radius must satisfy .*\(edge\)"):
        bulk_cumulant_coeffs(2, 1.0, 0.0, r)
    (edge,) = cumulant_coeffs(2, EnsembleParams(1.0, 0.0, 1), DiskSystem([Disk.fixed(r)]))
    assert edge == edge_cumulant_coeffs(2, 1.0, 0.0, 0.0)
    assert edge.c == pytest.approx(0.5 / math.sqrt(math.pi), rel=1e-12)  # 0.2821


def test_cumulant_coeffs_one_series_per_disk_in_its_regime():
    params = EnsembleParams(2.0, 0.5, 7)  # n is unused
    disks = DiskSystem([Disk.fixed(0.5), Disk.edge(0.3), Disk.fixed(1.5)])
    for j in (1, 2, 5):
        assert cumulant_coeffs(j, params, disks) == (
            bulk_cumulant_coeffs(j, 2.0, 0.5, 0.5),
            edge_cumulant_coeffs(j, 2.0, 0.5, 0.3),
            outside_cumulant_coeffs(j),
        )
    with pytest.raises(ValueError, match="cumulant order"):
        cumulant_coeffs(0, params, disks)


@pytest.mark.parametrize("call", [
    lambda: bulk_cumulant_coeffs(2, 1.0, -5.0, 0.5),
    lambda: edge_cumulant_coeffs(2, 1.0, -5.0, 0.3),
    lambda: edge_mean_coeffs(1.0, -5.0, 0.3),  # used to return (-0.222, 1.627, -4.109)
    lambda: edge_var_coeffs(1.0, -1.0, 0.3),
    lambda: edge_mean_coeffs(-1.0, 0.0, 0.3),
], ids=["bulk", "edge", "mean", "var", "mean-b"])
def test_per_regime_coefficients_check_b_and_alpha(call):
    with pytest.raises(ValueError, match=r"(alpha|b) must be finite"):
        call()


@pytest.mark.parametrize("closed_form", [edge_mean_coeffs, edge_var_coeffs])
def test_edge_closed_forms_past_double_range_name_inputs(closed_form):
    # b^1.5 used to raise a bare OverflowError from b ~ 1.6e205 on
    with pytest.raises(ValueError, match=r"not finite at b = 1e\+250, alpha = 0\.0, s = 0\.3"):
        closed_form(1e250, 0.0, 0.3)


def test_edge_coefficients_past_double_range_raise():
    # (2b)^1.5 overflows at b = 1e300: a ValueError naming b and s, for the
    # log-MGF coefficients and the cumulant coefficients alike
    params = EnsembleParams(b=1e300, alpha=0.0, n=10)
    with pytest.raises(ValueError, match=r"b = 1e\+300, s = 0\.0"):
        theorem_coefficients(params, DiskSystem([Disk.edge(0.0, 1.0)]))
    with pytest.raises(ValueError, match=r"b = 1e\+300, s = 0\.5"):
        edge_cumulant_coeffs(2, 1e300, 0.0, 0.5)


def test_edge_quadrature_matches_closed_forms():
    # the quadrature's j = 1, 2 series against the closed forms: the check on
    # the normalization clt_experiment takes from cumulant_coeffs (worst 1.7e-14)
    for b in (0.5, 1.0, 1.5, 2.0, 3.7):
        for alpha in (-0.4, 0.0, 0.25, 0.5, 2.0):
            for s in (-5.0, -3.0, -1.0, -0.3, 0.0, 0.4, 1.0, 2.5, 4.0, 6.0):
                got1 = edge_cumulant_coeffs(1, b, alpha, s)
                got2 = edge_cumulant_coeffs(2, b, alpha, s)
                assert (got1.leading, got2.leading) == (1.0, 0.0)
                closed = edge_mean_coeffs(b, alpha, s) + edge_var_coeffs(b, alpha, s)
                for got, want in zip((got1.c, got1.d, got1.e, got2.c, got2.d, got2.e), closed):
                    assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (b, alpha, s, got, want)


EPS = 2.0**-52


def _edge_vs_bulk(b, alpha, s, j=None, u=None):
    """(got, want, err, terms) for each edge coefficient at s << 0: the order-j
    cumulant series (c, d, e) with j given, else (C1, C2, C3, C4) at weight u.

    The edge radius obeys r^(2b) = r*^(2b) (1 + sqrt(2b) s/sqrt(n)), so at
    fixed s the bulk series re-expands into the edge one, up to O(e^(-s^2)):
    c = c_b + [j = 1] sqrt(2b) s, d = d_b + c_b sqrt(2b) s/2 and
    e = e_b - c_b b s^2/4, and C1 = u, C2 = C2_b + sqrt(2b) s u,
    C3 = C3_b + C2_b sqrt(2b) s/2, C4 = C4_b - C2_b b s^2/4.  The subscript b
    is the bulk at r*: c and C2 scale as r^b, d and C3 do not depend on r,
    and e and C4 scale as r^-b, so it is the bulk at r*/2 scaled by 2^b.
    `err` is the edge's quad_error plus the bulk's, carried through 2^b and
    the largest factor in s that multiplies a bulk value; `terms` is the
    sum of |terms| on the right.
    """
    params, grow, k = EnsembleParams(b, alpha, 1), 2.0**b, math.sqrt(2.0 * b)
    bulk_disks = DiskSystem([Disk.fixed(support_radius(b) / 2.0, 0.0 if u is None else u)])
    if j is None:
        edge = theorem_coefficients(params, DiskSystem([Disk.edge(s, u)]))
        bulk = theorem_coefficients(params, bulk_disks)
        got, lead = (edge.C1, edge.C2, edge.C3, edge.C4), u
        c_b, d_b, e_b = bulk.C2 * grow, bulk.C3, bulk.C4 / grow
    else:
        edge = edge_cumulant_coeffs(j, b, alpha, s)
        bulk = cumulant_coeffs(j, params, bulk_disks)[0]
        got, lead = (edge.leading, edge.c, edge.d, edge.e), float(j == 1)
        c_b, d_b, e_b = bulk.c * grow, bulk.d, bulk.e / grow
    pairs = [(lead, 0.0), (c_b, k * s * lead), (d_b, c_b * k * s / 2.0),
             (e_b, -c_b * b * s * s / 4.0)]
    err = edge.quad_error + grow * (1.0 + k * abs(s) + b * s * s) * bulk.quad_error
    return [(g, base + shift, err, abs(base) + abs(shift)) for g, (base, shift) in zip(got, pairs)]


def _assert_matches_bulk(b, alpha, s, j=None, u=None):
    # 4x the quadrature errors (the largest deviation seen was 0.89x, j = 10 at
    # s = -300) plus 16 eps of the terms, the rounding of the re-expansion,
    # which turns absolute below the smallest normal double (at subnormal u)
    for got, want, err, terms in _edge_vs_bulk(b, alpha, s, j, u):
        assert math.isfinite(got)
        quad_bound, floor = 4.0 * err, 16.0 * sys.float_info.min
        case = (b, alpha, s, j, u, got, want, err)
        assert abs(got - want) <= quad_bound + 16.0 * EPS * terms + floor, case
        if s <= -300.0:  # there the quadrature errors alone carry it
            assert abs(got - want) <= quad_bound + floor, case


@settings(max_examples=40, deadline=None)
@given(b=st.floats(0.5, 4.0), alpha=st.floats(-1.0, 1.0, exclude_min=True),
       j=st.integers(1, MAX_ORDER), u=st.floats(-5.0, 5.0))
@example(b=1.0, alpha=0.0, j=12, u=-3.0)
@example(b=1.0, alpha=0.0, j=5, u=0.7)
@example(b=1.0, alpha=0.0, j=5, u=5.0)
@example(b=3.7, alpha=0.3, j=12, u=0.7)
def test_edge_far_inside_is_the_bulk_re_expanded(b, alpha, j, u):
    # each edge coefficient is a polynomial in s over s-free moments, so it
    # stays finite and converged at any s << 0 (order 12 used to raise
    # "quadrature not converged" at s = -90, order 5 at s = -300), unflagged
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (-9.0, -15.0, -40.0, -90.0, -300.0):
            _assert_matches_bulk(b, alpha, s, j=j)
            _assert_matches_bulk(b, alpha, s, u=u)


def test_extreme_edge_parameter_is_flagged():
    with pytest.warns(RuntimeWarning) as record:
        series = edge_cumulant_coeffs(1, 1.0, 0.0, 7.5)
    assert any("edge parameter" in str(w.message) for w in record)
    assert math.isfinite(series.c)  # predictions still returned
    with warnings.catch_warnings():  # below s = -6 nothing is flagged
        warnings.simplefilter("error")
        _assert_matches_bulk(1.0, 0.0, -6.5, u=0.4)


@pytest.mark.parametrize("call", [
    lambda: edge_cumulant_coeffs(1, 1.0, 0.0, 7.5),
    lambda: cumulant_coeffs(1, EnsembleParams(1.0, 0.0, 1), DiskSystem([Disk.edge(7.5)])),
    lambda: theorem_coefficients(EnsembleParams(1.0, 0.0, 1), DiskSystem([Disk.edge(7.5, 1.0)])),
    lambda: clt_experiment(EnsembleParams(1.0, 0.0, 400), [], 7.5, 100, 1),
], ids=["edge", "cumulant", "theorem", "clt"])
def test_extreme_edge_flag_blames_the_caller(call):
    # at any call depth the flag points at the first frame outside the package
    # (it used to name a line of asymptotics.py for edge_cumulant_coeffs)
    with pytest.warns(RuntimeWarning, match="edge parameter") as record:
        call()
    assert record and all(w.filename == __file__ for w in record)


def test_extreme_edge_flag_states_each_side():
    # past s = 6 the coefficients are their saturated limits, and flagged;
    # below s = -6 they grow as polynomials in s, the bulk's re-expanded,
    # and are not flagged
    with pytest.warns(RuntimeWarning, match=r"s = 7\.5 .*saturated limits"):
        edge_cumulant_coeffs(12, 1.0, 0.0, 7.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (-80.0, -90.0):
            _assert_matches_bulk(1.0, 0.0, s, j=12)


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


def test_zn_constant_past_double_range_raises():
    # its Barnes G arguments pass ~1e153: nan, now a ValueError naming alpha
    with pytest.raises(ValueError, match=r"log Z_n constant not finite at b = 3\.0, alpha = 1e\+300"):
        zn_constant(3.0, 1e300, 3, 1)


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

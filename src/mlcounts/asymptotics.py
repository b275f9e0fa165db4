"""Large-n predictions for the disk counting statistics.

The log-MGF expands as C1 n + C2 sqrt(n) + C3 + C4/sqrt(n) + o(1).  All four
coefficients are built from the two kernel functions

    F(t, s) = log(1 + (s-1) erfc(t)/2),      G(t, s) = dF/dt,

integrated against low-degree polynomials.  Bulk disks (r inside the
equilibrium support), one optional edge disk (radius pinned to the support
edge at scale s/sqrt(n)), and outside disks each contribute their own terms.

Each regime's (C1, C2, C3, C4) is written once and runs over a kernel that
returns F(t, e^u) and F(t, e^-u) (its `f`), or G(t, e^u) and G(t, e^u)^2
(its `g`), on a t-array, either as values at u (the log-MGF) or as exact
j-th u-derivatives at u = 0 (the cumulant coefficients, any order up to
series.MAX_ORDER).  The derivatives need no numerical differentiation:
F(t, e^u) is the cumulant generating function of a Bernoulli(erfc(t)/2)
variable and G(t, e^u) a quotient of series in e^u - 1, both taken from the
power-series engine in ``series``.

Every integral goes through `quad`: Gauss-Legendre on equal panels, with the
panel count doubled until two successive rules agree to QUAD_RTOL; the
difference of the last two rules is the reported `quad_error`.
Semi-infinite integrals are truncated at sqrt(T^2 + |u|), T = sqrt(-log tol) + 2
with tol = 1e-16: every integrand here is O(e^{|u| - t^2}) (F decays like
erfc, G carries an explicit Gaussian, each scaled by at most e^|u|), so the
discarded tail is below poly(T) e^{-T^2} ~ 1e-24 of the integrand's scale,
far under QUAD_RTOL.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import series
from .exact import DiskSystem, EnsembleParams, support_radius
from .specfun import ZETA_PRIME_MINUS_ONE, erfc, erfcx, log_barnes_g

__all__ = [
    "CumulantSeries",
    "DiskContribution",
    "ExpansionCoefficients",
    "ZnExpansion",
    "bulk_cumulant_coeffs",
    "edge_cumulant_coeffs",
    "edge_mean_coeffs",
    "edge_var_coeffs",
    "outside_cumulant_coeffs",
    "theorem_coefficients",
    "zn_expansion",
]

TAIL_T = math.sqrt(-math.log(1e-16)) + 2.0  # ~8.07
QUAD_PANELS = 8  # panels of the first rule on every interval
QUAD_RTOL = 1e-13  # successive rules agree to this, relative to max(1, |value|)
_QUAD_DOUBLINGS = 6
_GL_ORDER = 40  # nodes per panel

_SQRT_PI = math.sqrt(math.pi)
# past this |u| the e^|u| side of the value kernel is taken in log form: erfc
# flushes to 0 below ~e^-708, and from |u| ~ 670 on, e^|u| times what it drops
# is no longer negligible (e^|u| itself overflows past log(DBL_MAX) ~ 709.78)
_LOG_FORM_U = 600.0


# ---------------------------------------------------------------------------
# kernels


class _Kernel(NamedTuple):
    """What a regime's formula integrates.

    `f(t)` returns F(t, e^u) and F(t, e^-u), and `g(t)` returns G(t, e^u) and
    G(t, e^u)^2, on a t-array, as values at u or as exact j-th u-derivatives
    at u = 0; `lin` is u in the same form; past |t| = `tail` every integrand
    has dropped below e^(-TAIL_T^2) of its scale.
    """

    f: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    g: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    lin: float
    tail: float


def _value_kernel(u: float) -> _Kernel:
    """The kernel at u.

    With c = erfc(|t|)/2 <= 1/2, F(t, e^u) = log1p((e^u - 1) c) for t >= 0
    and u + log1p((e^-u - 1) c) for t < 0, so the log1p argument never falls
    below -1/2: nothing cancels as e^u -> 0 or oo, and F is exactly 0 at
    u = 0.  G = -(e^u - 1) e^(-t^2 - F)/sqrt(pi).  The integrands decay like
    e^(|u| - t^2), hence the tail sqrt(TAIL_T^2 + |u|).

    Past |u| = _LOG_FORM_U the e^|u| side is taken in log form, so that
    neither e^|u| overflowing nor erfc underflowing breaks it:
    log(1 + (e^v - 1) c) = v + log(c + (1-c) e^-v), summed in log space with
    log c = log(erfcx(|t|)/2) - t^2, and log(e^u - 1) = u + log1p(-e^-u) in G.
    """

    def log1p_expm1(v, c, t):
        # log(1 + (e^v - 1) c)
        if v <= _LOG_FORM_U:
            return np.log1p(math.expm1(v) * c)
        log_c = np.log(erfcx(np.abs(t)) / 2.0) - t * t
        return v + np.logaddexp(log_c, np.log1p(-c) - v)

    def f(t):
        c = erfc(np.abs(t)) / 2.0
        neg = t < 0.0
        lp, lm = log1p_expm1(u, c, t), log1p_expm1(-u, c, t)
        return np.where(neg, u + lm, lp), np.where(neg, -u + lp, lm)

    def g(t):
        f_plus = f(t)[0]
        if u > _LOG_FORM_U:
            g = -np.exp(u + math.log1p(-math.exp(-u)) - t * t - f_plus) / _SQRT_PI
        else:
            g = -math.expm1(u) * np.exp(-t * t - f_plus) / _SQRT_PI
        return g, g * g

    return _Kernel(f, g, u, math.sqrt(TAIL_T**2 + abs(u)))


def _derivative_kernel(j: int) -> _Kernel:
    """The kernel as exact j-th u-derivatives at u = 0 (j <= MAX_ORDER).

    With c = erfc(t)/2, the j-th derivative F_j of
    F(t, e^u) = log(1 + c(e^u - 1)) is the Bernoulli cumulant kappa_j(c);
    F(t, e^-u) gives (-1)^j F_j, so the parity zeros of F(t, e^u) +- F(t, e^-u)
    are exact.  G(t, e^u) = -g0 (e^u - 1)/(1 + c(e^u - 1)),
    g0 = e^(-t^2)/sqrt(pi), is a quotient of series.  All are built at |t|, where c <= 1/2 and nothing cancels, and
    reflected (c -> 1 - c): F_j(-t) = [j = 1] + (-1)^j F_j(t),
    G_j(-t) = (-1)^(j+1) G_j(t), (G^2)_j(-t) = (-1)^j (G^2)_j(t).
    """
    expm1 = series.inverse_factorials(j)
    expm1[0] = 0.0  # e^u - 1
    fact = math.factorial(j)

    def f(t):
        c = erfc(np.abs(t)) / 2.0
        kappa = series.cumulants((j,), lambda a: c) if j else np.zeros_like(c)
        flip = t < 0.0
        f_plus = np.where(flip, float(j == 1), 0.0) + np.where(flip, (-1.0) ** j, 1.0) * kappa
        return f_plus, (-1) ** j * f_plus

    def g(t):
        c = erfc(np.abs(t)) / 2.0
        g0 = np.exp(-t * t) / _SQRT_PI
        gs = [g0 * r for r in series.quotient(-expm1, [1.0, *(c * e for e in expm1[1:])])]
        g_sq = sum(gs[i] * gs[j - i] for i in range(j + 1))
        flip = t < 0.0
        sign = np.where(flip, (-1.0) ** j, 1.0)
        return np.where(flip, -sign, 1.0) * gs[j] * fact, sign * g_sq * fact

    return _Kernel(f, g, float(j == 1), TAIL_T)


# ---------------------------------------------------------------------------
# quadrature


@functools.cache
def _unit_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of `panels` equal Gauss-Legendre panels on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    half = 0.5 / panels
    starts = np.arange(panels) / panels
    nodes = (starts[:, None] + half * (x + 1.0)).ravel()
    weights = np.tile(half * w, panels)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def quad(f, lo: float, hi: float) -> tuple[list, float]:
    """Integral from lo to hi (signed) of f, which maps a t-array to a stack
    of integrands (k, t).

    Returns (value, error): the rule with QUAD_PANELS panels is doubled until
    two successive rules agree to QUAD_RTOL; error is the summed absolute
    difference of the last two.  The first two rules always run, so f takes
    their nodes in one call.  The k values are Python floats, so that
    arithmetic on them overflows to inf without a numpy warning.
    """
    span = hi - lo
    panels = 2 * QUAD_PANELS
    x0, w0 = _unit_rule(QUAD_PANELS)
    x, w = _unit_rule(panels)
    both = f(lo + span * np.concatenate((x0, x)))
    prev, value = both[:, : x0.size] @ (span * w0), both[:, x0.size :] @ (span * w)
    while True:
        diff = np.abs(value - prev)
        if np.all(diff <= QUAD_RTOL * np.maximum(1.0, np.abs(value))):
            break
        if panels == QUAD_PANELS << _QUAD_DOUBLINGS:
            break
        panels *= 2
        x, w = _unit_rule(panels)
        prev, value = value, f(lo + span * x) @ (span * w)
    return value.tolist(), float(np.sum(diff))


# ---------------------------------------------------------------------------
# log-MGF expansion coefficients C1..C4


@dataclass(frozen=True)
class DiskContribution:
    index: int
    kind: str
    C1: float
    C2: float
    C3: float
    C4: float


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Coefficients of n, sqrt(n), 1, 1/sqrt(n) in the log-MGF expansion."""

    C1: float
    C2: float
    C3: float
    C4: float
    quad_error: float
    per_disk: tuple[DiskContribution, ...] = ()

    def evaluate(self, n: int) -> float:
        rn = math.sqrt(n)
        return self.C1 * n + self.C2 * rn + self.C3 + self.C4 / rn


def _finite(what: str, values: tuple, **inputs) -> tuple:
    """`values`, or a ValueError naming `inputs` where one is not finite."""
    if not all(math.isfinite(v) for v in values):
        named = ", ".join(f"{key} = {value!r}" for key, value in inputs.items())
        raise ValueError(f"{what} not finite at {named}")
    return values


def _flag_extreme_s(s_frak: float) -> None:
    if abs(s_frak) > 6.0:
        warnings.warn(
            f"edge parameter s = {s_frak} is far outside the Gaussian window; "
            "the e^(-s^2) factors underflow and the returned coefficients are "
            "effectively their saturated limits",
            RuntimeWarning,
            stacklevel=4,  # the caller of the public entry point
        )


def _bulk(b: float, alpha: float, r: float, kernel: _Kernel) -> tuple[tuple[float, ...], float]:
    """(C1, C2, C3, C4) of a bulk disk and the quadrature error."""
    rb = r**b
    if rb == 0.0:  # C4 divides by r^b
        raise ValueError(f"r^b underflows to 0 at b = {b!r}, r = {r!r}")

    def f_terms(t):
        f_plus, f_minus = kernel.f(t)
        f_sum = f_plus + f_minus
        return np.stack([f_sum, t * (f_plus - f_minus), t * t * f_sum])

    def g_terms(t):
        # polynomials in t^2: numpy's t**k for k >= 3 calls pow() per entry
        g, g_sq = kernel.g(t)
        t2 = t * t
        poly = (5.0 * t2 - 1.0) / 3.0
        poly_e = t * (21.0 + t2 * (50.0 * t2 - 193.0)) / 18.0
        return np.stack([g * poly, g * poly_e, g_sq * poly**2])

    (f_sum, f_odd, f_t2), f_err = quad(f_terms, 0.0, kernel.tail)
    (g_poly, g_e, g_sq), g_err = quad(g_terms, -kernel.tail, kernel.tail)
    C1 = b * r ** (2.0 * b) * kernel.lin
    C2 = math.sqrt(2.0) * b * rb * f_sum
    C3 = -(0.5 + alpha) * kernel.lin + 4.0 * b * f_odd + b * g_poly
    C4 = (
        6.0 * math.sqrt(2.0) * b / rb * f_t2
        - b / (math.sqrt(2.0) * rb) * g_e
        - b / (2.0 * math.sqrt(2.0) * rb) * g_sq
    )
    return _finite("bulk coefficients", (C1, C2, C3, C4), b=b, r=r), f_err + g_err


def _edge(b: float, alpha: float, sf: float, kernel: _Kernel) -> tuple[tuple[float, ...], float]:
    """(C1, C2, C3, C4) of the edge disk at parameter sf and the quadrature error."""
    _flag_extreme_s(sf)

    def f_terms(t, side: int, s: float):
        # the F(t, e^-u) integrands at s = sf and the F(t, e^u) ones at s = -sf
        f = kernel.f(t)[side]
        return np.stack([f, (2.0 * t - s) * f, (3.0 * t * t - 2.0 * s * t) * f])

    def g_terms(t):
        g, g_sq = kernel.g(t)
        t2 = t * t
        poly = (5.0 * t2 + 3.0 * sf * t - 1.0) / 3.0
        poly_e = (
            t * (21.0 + t2 * (50.0 * t2 - 193.0))
            + 6.0 * sf * (1.0 + t2 * (10.0 * t2 - 29.0))
            - 9.0 * sf * sf * t * (3.0 - 2.0 * t2)
        ) / 18.0
        return np.stack([g * poly, g * poly_e, g_sq * poly**2])

    (m0, m1, m2), m_err = quad(lambda t: f_terms(t, 1, sf), 0.0, kernel.tail)
    (p0, p1, p2), p_err = quad(lambda t: f_terms(t, 0, -sf), 0.0, -sf)
    (g_poly, g_e, g_sq), g_err = quad(g_terms, -(kernel.tail + abs(sf)), -sf)
    f_minus_at_s = kernel.f(np.array([sf]))[1][0]
    g_at_minus_s = kernel.g(np.array([-sf]))[0][0]
    C2 = math.sqrt(2.0 * b) * (m0 + sf * kernel.lin + p0)
    C3 = (0.5 + alpha) * f_minus_at_s - 2.0 * b * m1 + 2.0 * b * p1 + b * g_poly
    try:
        C4 = (
            (2.0 * b) ** 1.5 * (m2 + p2)
            - b**1.5 / math.sqrt(2.0) * g_e
            - b**1.5 / (2.0 * math.sqrt(2.0)) * g_sq
            + (
                (0.5 + alpha) * (2.0 * sf * sf - 1.0) / (3.0 * math.sqrt(2.0)) * math.sqrt(b)
                + (1.0 + 6.0 * alpha + 6.0 * alpha * alpha) / (12.0 * math.sqrt(2.0 * b))
            )
            * g_at_minus_s
        )
    except OverflowError:  # b^1.5 leaves double range
        C4 = math.inf
    coeffs = (kernel.lin, float(C2), float(C3), float(C4))
    return _finite("edge coefficients", coeffs, b=b, s=sf), m_err + p_err + g_err


def theorem_coefficients(params: EnsembleParams, disks: DiskSystem) -> ExpansionCoefficients:
    """C1..C4 for the given disk configuration (independent of params.n)."""
    b, alpha = params.b, params.alpha
    kinds, s_frak = disks.classify(b)
    per_disk = []
    error = 0.0
    for idx, (disk, kind) in enumerate(zip(disks.disks, kinds)):
        if kind == "bulk":
            contrib, err = _bulk(b, alpha, disk.r, _value_kernel(disk.u))
        elif kind == "edge":
            contrib, err = _edge(b, alpha, s_frak, _value_kernel(disk.u))
        else:
            contrib, err = (disk.u, 0.0, 0.0, 0.0), 0.0
        error += err
        per_disk.append(DiskContribution(idx, kind, *contrib))
    return ExpansionCoefficients(
        C1=math.fsum(d.C1 for d in per_disk),
        C2=math.fsum(d.C2 for d in per_disk),
        C3=math.fsum(d.C3 for d in per_disk),
        C4=math.fsum(d.C4 for d in per_disk),
        quad_error=error,
        per_disk=tuple(per_disk),
    )


# ---------------------------------------------------------------------------
# cumulant coefficient series (bulk / edge / outside)


@dataclass(frozen=True)
class CumulantSeries:
    """kappa_j ~ leading*n + c*sqrt(n) + d + e/sqrt(n) for one regime."""

    leading: float
    c: float
    d: float
    e: float
    quad_error: float = 0.0

    def evaluate(self, n: int) -> float:
        rn = math.sqrt(n)
        return self.leading * n + self.c * rn + self.d + self.e / rn


def _check_order(j: int) -> None:
    if not (isinstance(j, int) and 1 <= j <= series.MAX_ORDER):
        raise ValueError(f"cumulant order must be an integer in 1..{series.MAX_ORDER}, got {j!r}")


def bulk_cumulant_coeffs(j: int, b: float, alpha: float, r: float) -> CumulantSeries:
    """Coefficients (c_j, d_j, e_j) for a fixed disk strictly inside the bulk."""
    _check_order(j)
    rstar = support_radius(b)
    if not 0 < r < rstar:
        raise ValueError(f"bulk radius must satisfy 0 < r < {rstar}, got {r!r}")
    coeffs, err = _bulk(b, alpha, r, _derivative_kernel(j))
    return CumulantSeries(*coeffs, err)


def edge_cumulant_coeffs(j: int, b: float, alpha: float, s_frak: float) -> CumulantSeries:
    """Coefficients (c_j, d_j, e_j) for the edge disk at parameter s."""
    _check_order(j)
    coeffs, err = _edge(b, alpha, s_frak, _derivative_kernel(j))
    return CumulantSeries(*coeffs, err)


def outside_cumulant_coeffs(j: int) -> CumulantSeries:
    """Cumulants for a disk strictly outside the bulk: kappa_1 = n + o(1), rest o(1)."""
    _check_order(j)
    return CumulantSeries(1.0 if j == 1 else 0.0, 0.0, 0.0, 0.0)


def edge_mean_coeffs(b: float, alpha: float, s: float) -> tuple[float, float, float]:
    """Closed forms (c1, d1, e1) of the edge mean expansion, via erfc."""
    E = math.erfc(s)
    gaus = math.exp(-s * s)
    c1 = math.sqrt(b) * s / math.sqrt(2.0) * E - math.sqrt(b) / math.sqrt(2.0 * math.pi) * gaus
    d1 = -0.5 * (0.5 + alpha - b / 2.0) * E - b * s / (3.0 * _SQRT_PI) * gaus
    # past |s| ~ 27.3 e^(-s^2) is 0, and so is its product with s^4 (which may overflow)
    e1 = gaus and (
        gaus
        / math.sqrt(2.0 * math.pi)
        * (
            (b * (2.0 + 4.0 * alpha) - 1.0 - 6.0 * alpha - 6.0 * alpha * alpha) / (12.0 * math.sqrt(b))
            + (3.0 * b - 2.0 - 4.0 * alpha) * s * s / 6.0 * math.sqrt(b)
            - 2.0 * s**4 / 9.0 * b**1.5
        )
    )
    return _finite("edge mean coefficients", (c1, d1, e1), b=b, alpha=alpha, s=s)


def edge_var_coeffs(b: float, alpha: float, s: float) -> tuple[float, float, float]:
    """Closed forms (c2, d2, e2) of the edge variance expansion, via erfc."""
    E = math.erfc(s)
    E2 = math.erfc(math.sqrt(2.0) * s)
    gaus = math.exp(-s * s)
    c2 = (
        math.sqrt(b) / (2.0 * _SQRT_PI) * E2
        + math.sqrt(b) * gaus / math.sqrt(2.0 * math.pi) * (1.0 - E)
        + math.sqrt(b) * s / math.sqrt(2.0) * E * (0.5 * E - 1.0)
    )
    d2 = (
        -b / (12.0 * math.pi) * gaus * gaus
        + b * s / (2.0 * math.sqrt(2.0 * math.pi)) * E2
        + b * s / (3.0 * _SQRT_PI) * gaus * (1.0 - E)
        + (b - 1.0 - 2.0 * alpha) / 4.0 * E * (0.5 * E - 1.0)
    )
    e2_gaus = gaus and (  # 0 past |s| ~ 27.3, as in edge_mean_coeffs
        gaus
        / (12.0 * math.sqrt(2.0 * math.pi * b))
        * (
            1.0
            - 2.0 * b
            + 6.0 * alpha
            - 4.0 * b * alpha
            + 6.0 * alpha * alpha
            + 2.0 * (2.0 - 3.0 * b + 4.0 * alpha) * b * s * s
            + 8.0 * b * b / 3.0 * s**4
        )
        * (1.0 - E)
    )
    e2 = (
        e2_gaus
        - b**1.5 * s / (72.0 * math.sqrt(2.0) * math.pi) * gaus * gaus
        - b**1.5 * (1.0 + 4.0 * s * s) / (32.0 * _SQRT_PI) * E2
    )
    return _finite("edge variance coefficients", (c2, d2, e2), b=b, alpha=alpha, s=s)


# ---------------------------------------------------------------------------
# partition function expansion


@dataclass(frozen=True)
class ZnExpansion:
    """log Z_n expansion; `constant` is the b-rational Barnes-G constant."""

    value: float
    includes_constant: bool
    constant: float | None


# the Barnes-G constant needs b = n1/n2 with n1, n2 at most this
_MAX_DENOMINATOR = 64


def _rationalize(b: float) -> tuple[int, int] | None:
    from fractions import Fraction  # with decimal, ~4 ms of import only zn needs

    frac = Fraction(b).limit_denominator(_MAX_DENOMINATOR)
    if frac.numerator < 1 or frac.numerator > _MAX_DENOMINATOR:
        return None
    if abs(float(frac) - b) > 1e-9 * max(1.0, abs(b)):
        return None
    return frac.numerator, frac.denominator


def zn_constant(b: float, alpha: float, n1: int, n2: int) -> float:
    """The constant term for rational b = n1/n2, via zeta'(-1) and Barnes G."""
    total = n1 * n2 * ZETA_PRIME_MINUS_ONE
    total += (b * (n2 - n1) + 2.0 * n1 * alpha) / (4.0 * b) * math.log(2.0 * math.pi)
    total -= (
        (1.0 - 3.0 * b + b * b + 6.0 * alpha - 6.0 * b * alpha + 6.0 * alpha * alpha)
        / (12.0 * b)
        * math.log(n1)
    )
    for jj in range(1, n2 + 1):
        for kk in range(1, n1 + 1):
            total -= log_barnes_g((jj + alpha / b - 1.0) / n2 + kk / n1)
    return total


def zn_expansion(params: EnsembleParams) -> ZnExpansion:
    """Asymptotic log Z_n through O(1/n).

    The 1/n coefficient (2a-b+1)(2a^2-2ab+2a-b)/(24b) comes from carrying the
    Euler-Maclaurin expansion of sum_j log Gamma((j+alpha)/b) one order past
    the constant; it vanishes at (b, alpha) = (1, 0).  For b not expressible
    as n1/n2 with n1, n2 <= _MAX_DENOMINATOR the Barnes-G constant is omitted
    and `includes_constant` is False.
    """
    b, alpha, n = params.b, params.alpha, params.n
    logn = math.log(n)
    value = (
        -(3.0 + 2.0 * math.log(b)) / (4.0 * b) * n * n
        - 0.5 * n * logn
        + (
            math.log(2.0 * math.pi) / 2.0
            + (b - 2.0 * alpha - 1.0) * (1.0 + math.log(b)) / (2.0 * b)
            + math.log(math.pi / b)
        )
        * n
        + (1.0 - 3.0 * b + b * b + 6.0 * alpha - 6.0 * b * alpha + 6.0 * alpha * alpha)
        / (12.0 * b)
        * logn
    )
    value += (
        (2.0 * alpha - b + 1.0)
        * (2.0 * alpha * alpha - 2.0 * alpha * b + 2.0 * alpha - b)
        / (24.0 * b)
        / n
    )
    rat = _rationalize(b)
    g = None if rat is None else zn_constant(b, alpha, *rat)
    total = value if g is None else value + g
    _finite("log Z_n expansion", (total,), b=b, alpha=alpha)
    return ZnExpansion(total, g is not None, g)

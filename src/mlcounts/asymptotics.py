"""Large-n predictions for the disk counting statistics.

The log-MGF expands as C1 n + C2 sqrt(n) + C3 + C4/sqrt(n) + o(1).  Bulk
disks (r inside the equilibrium support), one optional edge disk (radius at
the support edge plus s/sqrt(n)) and outside disks each contribute terms
built from F(t, s) = log(1 + (s-1) erfc(t)/2) and G = dF/dt.  Both obey one
reflection, from erfc(-t) = 2 - erfc(t): F(-t, e^u) = u + F(t, e^-u),
G(-t, e^u) = -G(t, e^-u).

By parts and the reflection, every F integral is one of G, so one formula
serves both regimes: exact polynomials in s over eleven moments
M_k = int t^k G(t, e^-u), k <= 5, and S_k = int t^k G(t, e^-u)^2, k <= 4,
from one `quad`.  The edge disk takes them over [max(s, -T), T] at its s; a
bulk disk is the same formula at s = 0, scaled by sqrt(b) r^b, over the
whole line, which the reflection folds onto [0, T].  The kernel gives G and
G^2 at e^u and e^-u from one erfc call: as values at u (the log-MGF), or as
exact j-th u-derivatives at u = 0 (the cumulant coefficients, up to
series.MAX_ORDER), G(t, e^u) being a quotient of series in e^u - 1.

`quad` is Gauss-Legendre on equal panels, doubled until two successive rules
agree to QUAD_RTOL or to their rounding floor; their difference (or the
floor) is the reported `quad_error`, and a last rule that misses is a
ValueError.  Semi-infinite integrals stop at
sqrt(T^2 + |u|), T = sqrt(-log 1e-16) + 2: every integrand is
O(e^{|u| - t^2}), so the discarded tail is below poly(T) e^{-T^2} ~ 1e-24 of
the integrand's scale, far under QUAD_RTOL.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import series
from .exact import Disk, DiskSystem, EnsembleParams, is_int, support_radius
from .specfun import ZETA_PRIME_MINUS_ONE, erfc, erfcx, log_barnes_g, unit_rule

__all__ = [
    "CumulantSeries",
    "DiskContribution",
    "ExpansionCoefficients",
    "ZnExpansion",
    "bulk_cumulant_coeffs",
    "cumulant_coeffs",
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
QUAD_NOISE = 1e-14  # or to this times the integral of |f|: its rounding
_QUAD_DOUBLINGS = 6

_SQRT_PI = math.sqrt(math.pi)
_SQRT2 = math.sqrt(2.0)
# past this |u| the e^|u| side of the value kernel is taken in log form: erfc
# flushes to 0 below ~e^-708, and from |u| ~ 670 on, e^|u| times what it drops
# is no longer negligible (e^|u| itself overflows past log(DBL_MAX) ~ 709.78)
_LOG_FORM_U = 600.0


# ---------------------------------------------------------------------------
# kernels


class _Kernel(NamedTuple):
    """What a regime's formula integrates.

    Called on a t-array, the kernel returns the rows G(t, e^u), G(t, e^-u),
    G(t, e^u)^2, G(t, e^-u)^2, as values at u or as exact j-th
    u-derivatives at u = 0.  `half` computes them at t = |t| only, where
    c = erfc(t)/2 <= 1/2 and nothing cancels; the reflection
    G(-t, e^+-u) = -G(t, e^-+u) gives t < 0.  `lin` is u in the same form,
    C1's factor; past |t| = `tail` every integrand has dropped below
    e^(-TAIL_T^2) of its scale.  `named` (u or j) joins a regime's inputs in
    its error messages.
    """

    half: Callable[[np.ndarray], np.ndarray]
    lin: float
    tail: float
    named: dict

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite value is reported by name
    def __call__(self, t: np.ndarray) -> np.ndarray:
        rows = self.half(np.abs(t))
        neg = t < 0.0
        if not neg.any():
            return rows
        flipped = rows[[1, 0, 3, 2]]
        flipped[:2] *= -1.0
        return np.where(neg, flipped, rows)


def _value_kernel(u: float) -> _Kernel:
    """The kernel at u: both sides from one helper, `side(v)` at v = +-u.

    With c = erfc(t)/2 <= 1/2 at t >= 0, G(t, e^v) = -(e^v - 1) e^(-t^2)/
    (sqrt(pi) (1 + (e^v - 1) c)), a quotient whose denominator never falls
    below 1/2, so nothing cancels as e^v -> 0 or oo, and G is exactly 0 at
    u = 0.  The integrands decay like e^(|u| - t^2), hence the tail
    sqrt(TAIL_T^2 + |u|).  Past v = _LOG_FORM_U, where e^v overflows and
    erfc underflows, G = -1/(sqrt(pi) (erfcx(t)/2 + e^(t^2)/(e^v - 1))).
    """

    def side(v, t, t2, c):  # G(t, e^v)
        if v <= _LOG_FORM_U:
            return -math.expm1(v) * np.exp(-t2) / (_SQRT_PI * (1.0 + math.expm1(v) * c))
        return -1.0 / (_SQRT_PI * (erfcx(t) / 2.0 + np.exp(t2 - v - math.log1p(-math.exp(-v)))))

    def half(t):
        t2 = t * t
        c = erfc(t) / 2.0
        g_plus, g_minus = side(u, t, t2, c), side(-u, t, t2, c)
        return np.stack([g_plus, g_minus, g_plus * g_plus, g_minus * g_minus])

    return _Kernel(half, u, math.sqrt(TAIL_T**2 + abs(u)), {"u": u})


def _derivative_kernel(j: int) -> _Kernel:
    """The kernel as exact j-th u-derivatives at u = 0 (j <= MAX_ORDER).

    With c = erfc(t)/2 and g0 = e^(-t^2)/sqrt(pi), G(t, e^u) = -g0 (e^u - 1)/
    (1 + c(e^u - 1)) is a quotient of series in u.  The e^-u side is (-1)^j
    times the e^u side, so the parity zeros of the bulk coefficients are
    exact.
    """
    expm1 = series.inverse_factorials(j)
    expm1[0] = 0.0  # e^u - 1
    fact = math.factorial(j)
    sign = (-1.0) ** j

    def half(t):
        c = erfc(t) / 2.0
        g0 = np.exp(-t * t) / _SQRT_PI
        gs = [g0 * r for r in series.quotient(-expm1, [1.0, *(c * e for e in expm1[1:])])]
        g = gs[j] * fact
        g_sq = sum(gs[i] * gs[j - i] for i in range(j + 1)) * fact
        return np.stack([g, sign * g, g_sq, sign * g_sq])

    return _Kernel(half, float(j == 1), TAIL_T, {"j": j})


# ---------------------------------------------------------------------------
# quadrature


def _named(inputs: dict) -> str:
    return ", ".join(f"{key} = {value!r}" for key, value in inputs.items())


# overflow in an integrand shows as a non-finite value, for the caller to report
@np.errstate(over="ignore", invalid="ignore")
def quad(f, lo: float, hi: float, what: str, **inputs) -> tuple[list, np.ndarray]:
    """Integral from lo to hi (signed) of f, which maps a t-array to a stack
    of integrands (k, t), and each row's error: the difference of its last
    two rules, or the rounding floor where the row stopped on that.

    The rule with QUAD_PANELS panels is doubled until, in every row, two
    successive rules agree to QUAD_RTOL or to the rounding of the sum
    (QUAD_NOISE times the integral of |f|, which doubling cannot lower); a
    row that stops on the floor reports max(difference, floor).  The first
    two rules always run, so f takes their nodes in one call.  A last rule
    that still misses is a ValueError naming `what` and `inputs`.  A
    non-finite value is returned as it is, without a numpy warning, for the
    caller to report.  The k values are Python floats, so that arithmetic
    on them overflows to inf without a numpy warning.
    """
    span = hi - lo
    panels = 2 * QUAD_PANELS
    x0, w0 = unit_rule(QUAD_PANELS)
    x, w = unit_rule(panels)
    both = f(lo + span * np.concatenate((x0, x)))
    prev, rows = both[:, : x0.size] @ (span * w0), both[:, x0.size :]
    while True:
        value = rows @ (span * w)
        diff = np.abs(value - prev)
        converged = diff <= QUAD_RTOL * np.maximum(1.0, np.abs(value))
        if np.all(converged) or not np.all(np.isfinite(value)):
            break
        floor = QUAD_NOISE * (np.abs(rows) @ (abs(span) * w))
        if np.all(converged | (diff <= floor)):
            diff = np.where(converged, diff, np.maximum(diff, floor))
            break
        if panels == QUAD_PANELS << _QUAD_DOUBLINGS:
            raise ValueError(f"{what}: quadrature not converged at {_named(inputs)}")
        panels *= 2
        x, w = unit_rule(panels)
        prev, rows = value, f(lo + span * x)
    return value.tolist(), diff


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
        raise ValueError(f"{what} not finite at {_named(inputs)}")
    return values


def _coefficients(b: float, alpha: float, s: float, rho: float, kernel: _Kernel, kind: str,
                  named: dict) -> tuple[tuple[float, ...], float]:
    """(C1, C2, C3, C4) of a bulk or edge disk and the quadrature error; `named`
    (b and r or s, then the kernel's u or j) joins the error messages.

    The edge formula's F integrals (over [0, oo) of F(t, e^-u), the s u term
    and over [0, -s] of F(t, e^u)) join, by the reflection, into one over
    [s, oo) of F(t, e^-u) W', W = (t - s) t^k, which is -G(t, e^-u) W by
    parts; its G integral over t <= -s is reflected onto the same interval,
    and its point term (1/2 + alpha) F(s, e^-u) is -(1/2 + alpha) M_0, as
    F(oo, e^-u) = 0.  So C2..C4 are exact polynomials in s over the moments
    M_k of t^k G(t, e^-u), k <= 5, and S_k of t^k G(t, e^-u)^2, k <= 4, on
    [s, tail] clipped to [-tail, tail], with rows scaled by (rho, 1, 1/rho)
    and C1 = rho^2 lin.  The edge disk takes them at its s with rho = 1.  A
    bulk disk is the same formula at s = 0, rho = sqrt(b) r^b, over the
    whole line, its point terms at their s -> -oo limits (the C4 one is 0):
    the reflection folds each moment onto [0, tail], even k of M taking
    G(t, e^-u) - G(t, e^u) and odd k the sum, S_k the reverse, so the
    parity zeros stay exact.  The error carries each moment's rule
    difference through its |weight|; the rounding, about eps sum |terms|,
    grows like |s| in C3 and s^2 in C4.
    """
    edge = kind == "edge"

    def moments(t):
        g_plus, g_minus, sq_plus, sq_minus = kernel(t)
        if edge:
            rows = (g_minus, g_minus, sq_minus, sq_minus)
        else:
            rows = (g_minus - g_plus, g_minus + g_plus, sq_minus + sq_plus, sq_minus - sq_plus)

        def powers(even, odd, count):  # by products: numpy's t**k (k >= 3) calls pow() per entry
            out = [even, odd * t]
            while len(out) < count:
                out.append(out[-2] * t * t)
            return out

        return np.stack(powers(*rows[:2], 6) + powers(*rows[2:], 5))

    lo = min(max(s, -kernel.tail), kernel.tail) if edge else 0.0
    what = f"{kind} coefficients"
    m, diff = quad(moments, lo, kernel.tail, what, **named)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is reported by name
        weights = np.array([  # C2, C3 and C4 less the C4 point term, on M_0..M_5, S_0..S_4
            [s, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, -3.0 * s, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [6.0 * s, 27.0 * s * s - 21.0, -102.0 * s, 121.0 - 18.0 * s * s, 60.0 * s, -50.0,
             -1.0, -6.0 * s, 10.0 - 9.0 * s * s, 30.0 * s, -25.0],
        ]) * [[math.sqrt(2.0 * b) * rho], [b / 3.0], [b * math.sqrt(b) / (18.0 * _SQRT2) / rho]]
        weights[1, 0] -= 0.5 + alpha
        C2, C3, C4 = (weights @ m).tolist()
        err = float(np.sum(np.abs(weights) @ diff))
    if edge:
        C4 -= (
            (0.5 + alpha) * (2.0 * s * s - 1.0) / (3.0 * _SQRT2) * math.sqrt(b)
            + (1.0 + 6.0 * alpha + 6.0 * alpha * alpha) / (12.0 * math.sqrt(2.0 * b))
        ) * float(kernel(np.array([s]))[1, 0])  # the formula's G(-s, e^u) is -G(s, e^-u)
    return _finite(what, (rho * rho * kernel.lin, C2, C3, C4), **named), err


def _per_disk(params: EnsembleParams, disks: DiskSystem, kernel: Callable) -> list[tuple]:
    """(kind, (C1, C2, C3, C4), quadrature error) of each disk, with kernel(disk),
    in its regime from DiskSystem.classify: the one branch on a regime."""
    b, alpha = params.b, params.alpha
    out = []
    for disk, (kind, x) in zip(disks.disks, disks.classify(b)):
        k = kernel(disk)
        if kind == "bulk":
            rb = x**b
            if rb == 0.0:  # C4 divides by r^b
                raise ValueError(f"r^b underflows to 0 at b = {b!r}, r = {x!r}")
            coeffs, err = _coefficients(b, alpha, 0.0, math.sqrt(b) * rb, k, kind,
                                         {"b": b, "r": x, **k.named})
        elif kind == "edge":
            if x > 6.0:
                warnings.warn(f"edge parameter s = {x} is far outside the Gaussian window; the "
                              "e^(-s^2) factors underflow and the returned coefficients are "
                              "effectively their saturated limits", RuntimeWarning, stacklevel=2)
            coeffs, err = _coefficients(b, alpha, x, 1.0, k, kind, {"b": b, "s": x, **k.named})
        else:
            coeffs, err = (k.lin, 0.0, 0.0, 0.0), 0.0
        out.append((kind, coeffs, err))
    return out


def theorem_coefficients(params: EnsembleParams, disks: DiskSystem) -> ExpansionCoefficients:
    """C1..C4 for the given disk configuration (independent of params.n)."""
    parts = _per_disk(params, disks, lambda disk: _value_kernel(disk.u))
    per_disk = tuple(DiskContribution(i, kind, *c) for i, (kind, c, _) in enumerate(parts))
    totals = (math.fsum(getattr(d, name) for d in per_disk) for name in ("C1", "C2", "C3", "C4"))
    return ExpansionCoefficients(*totals, quad_error=sum(e for *_, e in parts), per_disk=per_disk)


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


def cumulant_coeffs(j: int, params: EnsembleParams,
                    disks: DiskSystem) -> tuple[CumulantSeries, ...]:
    """The order-j cumulant series of each disk in its regime: the cumulant
    twin of `theorem_coefficients` (params.n is unused)."""
    if not (is_int(j) and 1 <= j <= series.MAX_ORDER):
        raise ValueError(f"cumulant order must be an integer in 1..{series.MAX_ORDER}, got {j!r}")
    kernel = _derivative_kernel(j)
    parts = _per_disk(params, disks, lambda disk: kernel)
    return tuple(CumulantSeries(*coeffs, err) for _, coeffs, err in parts)


def bulk_cumulant_coeffs(j: int, b: float, alpha: float, r: float) -> CumulantSeries:
    """Coefficients (c_j, d_j, e_j) for a fixed disk strictly inside the bulk."""
    params, disks = EnsembleParams(b, alpha, 1), DiskSystem([Disk.fixed(r)])
    ((kind, _),) = disks.classify(b)
    if kind != "bulk":
        raise ValueError(
            f"bulk radius must satisfy 0 < r < {support_radius(b)}, got {r!r} ({kind})")
    return cumulant_coeffs(j, params, disks)[0]


def edge_cumulant_coeffs(j: int, b: float, alpha: float, s_frak: float) -> CumulantSeries:
    """Coefficients (c_j, d_j, e_j) for the edge disk at parameter s."""
    return cumulant_coeffs(j, EnsembleParams(b, alpha, 1), DiskSystem([Disk.edge(s_frak)]))[0]


def outside_cumulant_coeffs(j: int) -> CumulantSeries:
    """Cumulants for a disk outside the bulk (here the plane): kappa_1 = n + o(1), rest o(1)."""
    return cumulant_coeffs(j, EnsembleParams(1.0, 0.0, 1), DiskSystem([Disk.fixed(math.inf)]))[0]


def edge_mean_coeffs(b: float, alpha: float, s: float) -> tuple[float, float, float]:
    """Closed forms (c1, d1, e1) of the edge mean expansion, via erfc."""
    EnsembleParams(b, alpha, 1)  # checks (b, alpha)
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
            - 2.0 * s**4 / 9.0 * (b * math.sqrt(b))  # inf past double range, as in _coefficients
        )
    )
    return _finite("edge mean coefficients", (c1, d1, e1), b=b, alpha=alpha, s=s)


def edge_var_coeffs(b: float, alpha: float, s: float) -> tuple[float, float, float]:
    """Closed forms (c2, d2, e2) of the edge variance expansion, via erfc."""
    EnsembleParams(b, alpha, 1)  # checks (b, alpha)
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
        - b * math.sqrt(b) * s / (72.0 * math.sqrt(2.0) * math.pi) * gaus * gaus
        - b * math.sqrt(b) * (1.0 + 4.0 * s * s) / (32.0 * _SQRT_PI) * E2
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


def _log_coefficient(b: float, alpha: float) -> float:
    """Coefficient of log n in log Z_n (and of log n1 in its constant)."""
    return (1.0 - 3.0 * b + b * b + 6.0 * alpha - 6.0 * b * alpha + 6.0 * alpha * alpha) / (12.0 * b)


def zn_constant(b: float, alpha: float, n1: int, n2: int) -> float:
    """The constant term for rational b = n1/n2, via zeta'(-1) and Barnes G;
    a ValueError naming (b, alpha) where it is past double range."""
    total = n1 * n2 * ZETA_PRIME_MINUS_ONE
    total += (b * (n2 - n1) + 2.0 * n1 * alpha) / (4.0 * b) * math.log(2.0 * math.pi)
    total -= _log_coefficient(b, alpha) * math.log(n1)
    try:
        for jj in range(1, n2 + 1):
            for kk in range(1, n1 + 1):
                total -= log_barnes_g((jj + alpha / b - 1.0) / n2 + kk / n1)
    except ValueError:  # its arguments are > 0, so log G(z) is past double range
        total = math.inf
    return _finite("log Z_n constant", (total,), b=b, alpha=alpha)[0]


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
        + _log_coefficient(b, alpha) * logn
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

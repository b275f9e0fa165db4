"""Special functions: the regularized incomplete gamma function and friends.

The exact engine reduces to the regularized incomplete gamma functions
P(a, z) = gamma(a, z)/Gamma(a) and Q = 1 - P on a column of shapes a for one
argument z.  ``log_reg_gamma_pq`` evaluates log P and log Q on such a column
in one array pass:

* a < A_TEMME: ``scipy.special.gammainc`` / ``gammaincc``; where one of them
  leaves double range, its log comes from Kummer's function (P) or the
  Legendre continued fraction (Q);
* a >= A_TEMME: the uniform large-a (Temme) expansion
  P = erfc(-eta sqrt(a/2))/2 - R_a(eta), eta^2/2 = lambda - 1 - log(lambda),
  lambda = z/a, written in log form on its tail side.

The uniform regime keeps two correction terms, R_a(eta) ~
exp(-a eta^2/2)/sqrt(2 pi a) * (c0(eta) + c1(eta)/a), which caps its accuracy
at ~|c2|/(a^2 sqrt(2 pi a)); A_TEMME = 20000 keeps that below 3e-14 absolute.
Also: ``reg_lower_gamma`` (one scalar P), ``gamma_regime`` (the classical
regime of (a, z); kept only for the traced benchmark run of
perfbench/spans.py, until that run reads a native trace) and log Barnes G.
All pure, thread-safe.
scipy.special is imported inside the evaluators that call it, so importing
this module (and the sampler and partition-function paths built on it) does
not load scipy.
"""

from __future__ import annotations

import enum
import math

import numpy as np

__all__ = [
    "A_TEMME",
    "SATURATED_LOG_PREFACTOR",
    "GammaRegime",
    "gamma_regime",
    "log_barnes_g",
    "log_prefactor",
    "log_reg_gamma_pq",
    "reg_lower_gamma",
]

# Uniform-asymptotics threshold.  Tunable; must stay high enough that the
# truncated two-term R_a meets the 1e-13 absolute budget (error ~ a^-2.5).
A_TEMME = 20000.0

# Below this |eta| the closed forms for c0, c1 cancel badly; switch to their
# Taylor expansions about eta = 0.
_C_TAYLOR_CUTOFF = 1e-2

# A prefactor z^a e^-z / Gamma(a) below exp(this) keeps P within ~1e-24 of
# 0 or 1, far below the 1e-13 absolute budget: such (a, z) are saturated.
SATURATED_LOG_PREFACTOR = -60.0

# 1/(2k+3), k = 0..17: the atanh series of x - log(1+x) in t^2 = (x/(2+x))^2
# <= 1/9, truncated below 1e-17 relative.
_LOG1P_MINUS_SERIES = tuple(1.0 / (2.0 * k + 3.0) for k in range(18))

# Below this log, scipy's P or Q nears the end of double range; the tail
# formulas take over.
_LOG_TINY = math.log(1e-300)

# zeta'(-1); 30 digits, mpmath dps=60 (scripts/derive_frozen_constants.py).
ZETA_PRIME_MINUS_ONE = -0.165421143700450929213919066243

# Taylor coefficients about eta = 0 of c0(eta) = 1/(lambda-1) - 1/eta and
# c1(eta) = 1/eta^3 - 1/(lambda-1)^3 - 1/(lambda-1)^2 - 1/(12(lambda-1)),
# with lambda(eta) the inverse of the eta mapping.  Generated at 60-digit
# precision by scripts/derive_frozen_constants.py; c0(0) = -1/3,
# c1(0) = -1/540 are the removable-singularity limits.
_C0_TAYLOR = (
    -1.0 / 3.0,
    1.0 / 12.0,
    -2.0 / 135.0,
    1.0 / 864.0,
    1.0 / 2835.0,
    -1.7875514403292181e-04,
    3.9192631785224378e-05,
    -2.1854485106799922e-06,
    -1.8540622107151600e-06,
    8.2967113409530860e-07,
    -1.7665952736826079e-07,
    6.7078535434014986e-09,
)
_C1_TAYLOR = (
    -1.0 / 540.0,
    -1.0 / 288.0,
    1.0 / 378.0,
    -9.9022633744855967e-04,
    2.0576131687242798e-04,
    -4.0187757201646091e-07,
    -1.8098550334489978e-05,
    7.6491609160811101e-06,
    -1.6120900894563446e-06,
    4.6471278028074343e-09,
    1.3786334469157210e-07,
    -5.7525456035177050e-08,
)


class GammaRegime(enum.Enum):
    """Classical evaluation regime of P(a, z); exactly one per (a, z)."""

    SERIES_SMALL_Z = "series_small_z"
    CONTINUED_FRACTION = "continued_fraction"
    TEMME_UNIFORM = "temme_uniform"
    FIXED_A_LARGE_Z = "fixed_a_large_z"


def _horner(coeffs, x):
    """sum_k coeffs[k] x^k, elementwise."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


# Decorator for the array helpers below: they evaluate closed forms on every
# entry before replacing some, and the replaced ones may overflow harmlessly.
_QUIET = np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _log1p_minus(x: np.ndarray) -> np.ndarray:
    """x - log(1+x) for x > -1, accurate through the cancellation region."""
    out = x - np.log1p(x)
    small = np.abs(x) < 0.5
    # with t = x/(2+x): x - log(1+x) = x t - 2 t^3 sum_{k>=0} t^(2k)/(2k+3), |t| <= 1/3
    xs = x[small]
    t = xs / (2.0 + xs)
    out[small] = xs * t - 2.0 * t**3 * _horner(_LOG1P_MINUS_SERIES, t * t)
    return out


@_QUIET
def _eta(lam: np.ndarray) -> np.ndarray:
    """eta with eta^2/2 = lambda - 1 - log(lambda), sign(eta) = sign(lambda - 1);
    _log1p_minus keeps full relative accuracy as lambda -> 1."""
    x = lam - 1.0
    return np.copysign(np.sqrt(2.0 * _log1p_minus(x)), x)


def log_prefactor(a: float, z: float) -> float:
    """log(z^a e^-z / Gamma(a)) for a > 0, z > 0: P(a, z) and Q(a, z) differ
    from {0, 1} by at most a modest multiple of this prefactor.  Cancellation
    costs ~1e-9 absolute at a = 1e6, irrelevant for a saturation test."""
    return a * math.log(z) - z - math.lgamma(a)


@_QUIET
def _temme_corr(a: np.ndarray, eta: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """R_a(eta) exp(a eta^2/2) = (c0(eta) + c1(eta)/a) / sqrt(2 pi a)."""
    x = lam - 1.0
    c0 = 1.0 / x - 1.0 / eta
    c1 = 1.0 / (eta * eta * eta) - 1.0 / (x * x * x) - 1.0 / (x * x) - 1.0 / (12.0 * x)
    near = np.abs(eta) < _C_TAYLOR_CUTOFF
    c0[near] = _horner(_C0_TAYLOR, eta[near])
    c1[near] = _horner(_C1_TAYLOR, eta[near])
    return (c0 + c1 / a) / np.sqrt(2.0 * math.pi * a)


@_QUIET
def _temme_log_pq(a: np.ndarray, z: float) -> tuple[np.ndarray, np.ndarray]:
    """log P, log Q from the uniform expansion.  With t = eta sqrt(a/2),
    Q = e^(-t^2) (erfcx(t)/2 + corr) and P = e^(-t^2) (erfcx(-t)/2 - corr);
    the one on the tail side of t is taken in that log form, the other as
    log1p of minus the first."""
    from scipy.special import erfcx

    lam = z / a
    eta = _eta(lam)
    t = eta * np.sqrt(0.5 * a)
    upper = t >= 0.0
    corr = _temme_corr(a, eta, lam)
    log_tail = -t * t + np.log(0.5 * erfcx(np.abs(t)) + np.where(upper, corr, -corr))
    log_bulk = np.log1p(-np.exp(log_tail))
    return np.where(upper, log_bulk, log_tail), np.where(upper, log_tail, log_bulk)


def _log_q_contfrac(a: np.ndarray, z: float) -> np.ndarray:
    """log Q(a, z) for z well above a: the Legendre continued fraction
    Q = z^a e^-z / Gamma(a) / (z+1-a - 1(1-a)/(z+3-a - 2(2-a)/(z+5-a - ...))),
    by modified Lentz.  Where Q is below double range it converges in ~15
    steps."""
    from scipy.special import gammaln

    b = z + 1.0 - a
    c = np.full_like(a, np.inf)
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h = h * c * d
        if np.all(np.abs(c * d - 1.0) < 1e-16):
            break
    return a * math.log(z) - z - gammaln(a) + np.log(h)


@_QUIET
def _scipy_log_pq(a: np.ndarray, z: float) -> tuple[np.ndarray, np.ndarray]:
    """log P, log Q from scipy; below double range, the tail side in log form:
    P = z^a e^-z / Gamma(a+1) M(1, a+1, z) (Kummer) or the continued fraction."""
    from scipy.special import gammainc, gammaincc, gammaln, hyp1f1

    log_p = np.log(gammainc(a, z))
    log_q = np.log(gammaincc(a, z))
    tail = log_p < _LOG_TINY
    at = a[tail]
    log_p[tail] = at * math.log(z) - z - gammaln(at + 1.0) + np.log(hyp1f1(1.0, at + 1.0, z))
    tail = log_q < _LOG_TINY
    log_q[tail] = _log_q_contfrac(a[tail], z)
    return log_p, log_q


def gamma_regime(a: float, z: float) -> GammaRegime:
    """Classical regime of (a, z); ``log_reg_gamma_pq`` uses the uniform
    expansion in TEMME_UNIFORM and scipy everywhere else."""
    if not a > 0:
        raise ValueError(f"gamma_regime requires a > 0, got {a!r}")
    if not z >= 0:
        raise ValueError(f"gamma_regime requires z >= 0, got {z!r}")
    if a >= A_TEMME:
        return GammaRegime.TEMME_UNIFORM
    if z < a + 1.0:
        return GammaRegime.SERIES_SMALL_Z
    if log_prefactor(a, z) < SATURATED_LOG_PREFACTOR:
        return GammaRegime.FIXED_A_LARGE_Z
    return GammaRegime.CONTINUED_FRACTION


def log_reg_gamma_pq(a, z: float) -> tuple[np.ndarray, np.ndarray]:
    """log P(a_i, z) and log Q(a_i, z), Q = 1 - P, for an array of shapes
    a_i > 0 and one z >= 0.

    Shapes below A_TEMME go through ``scipy.special.gammainc``/``gammaincc``;
    from A_TEMME up, the two-term uniform expansion (scipy drifts to ~4e-11
    at a = 1e6).  Both logs are evaluated directly and stay finite far below
    double range, so exp of either has absolute error below 1e-13 and a tiny
    P or Q keeps its relative accuracy.
    """
    a = np.asarray(a, dtype=float)
    if not z >= 0:
        raise ValueError(f"incomplete gamma requires z >= 0, got {z!r}")
    if not np.all(a > 0):
        raise ValueError("incomplete gamma requires shapes a > 0")
    if z == 0.0 or math.isinf(z):
        zero, minus_inf = np.zeros_like(a), np.full_like(a, -np.inf)
        return (minus_inf, zero) if z == 0.0 else (zero, minus_inf)
    log_p = np.empty_like(a)
    log_q = np.empty_like(a)
    small = a < A_TEMME
    log_p[small], log_q[small] = _scipy_log_pq(a[small], z)
    log_p[~small], log_q[~small] = _temme_log_pq(a[~small], z)
    return log_p, log_q


def reg_lower_gamma(a: float, z: float) -> float:
    """Regularized lower incomplete gamma P(a, z) = gamma(a, z)/Gamma(a)."""
    return math.exp(log_reg_gamma_pq(np.array([a], dtype=float), z)[0][0])


# Barnes G.  log G(1+w) = (w^2/2) log w - 3w^2/4 + (w/2) log 2pi
#   - (1/12) log w + zeta'(-1) + sum_k B_{2k+2}/(4k(k+1)) w^{-2k};
# the tail below lists B_{2k+2}/(4k(k+1)) for k = 1..6 as exact rationals.
_BARNES_TAIL = (
    -1.0 / 240.0,
    1.0 / 1008.0,
    -1.0 / 1440.0,
    1.0 / 1056.0,
    -691.0 / 327600.0,
    1.0 / 144.0,
)
_BARNES_MIN_W = 9.0


def _log_barnes_g_asymptotic(w: float) -> float:
    lw = math.log(w)
    total = (0.5 * w * w - 1.0 / 12.0) * lw - 0.75 * w * w
    total += 0.5 * w * math.log(2.0 * math.pi)
    total += ZETA_PRIME_MINUS_ONE
    w2 = w * w
    p = 1.0
    for coeff in _BARNES_TAIL:
        p *= w2
        total += coeff / p
    return total


def log_barnes_g(z: float) -> float:
    """log G(z) for z > 0, G the Barnes G-function (G(z+1) = Gamma(z) G(z))."""
    if not z > 0:
        raise ValueError(f"log_barnes_g requires z > 0, got {z!r}")
    shift = 0
    w = z - 1.0
    while w < _BARNES_MIN_W:
        shift += 1
        w += 1.0
    # G(z) = G(z + shift) / (Gamma(z) Gamma(z+1) ... Gamma(z+shift-1))
    total = _log_barnes_g_asymptotic(w)
    for i in range(shift):
        total -= math.lgamma(z + i)
    return total

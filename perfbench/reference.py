"""Reference values for the benchmark's correctness checks.

Nothing here calls an evaluator of ``mlcounts``.  The formulas are the
paper's, but every number is computed by a different route from the
program's:

* incomplete gamma: ``scipy.special.gammainc``/``gammaincc`` on whole columns
  (the program uses its own scalar series / continued fraction / Temme
  evaluator), self-checked against mpmath at a few points;
* exact log-MGF: in log space, ``sum_j logsumexp_l(log q_jl + U_l)`` (the
  program forms ``log1p(P @ omega)``);
* marginal cumulants: the Bernoulli recursion kappa_{k+1} = p(1-p) dkappa_k/dp,
  written as kappa_k = p q R_k(p) so that p and q = 1-p enter separately;
  mixed joint cumulants: Cauchy integrals (an FFT on a torus) of the log-space
  cumulant generating function;
* C1..C4 and cumulant coefficients: fixed Gauss-Legendre panels with the
  cancellation-free kernel F = log(erfc(-t)/2 + s erfc(t)/2), u-derivatives
  by the Cauchy integral (the program uses adaptive ``quad`` on
  log1p((s-1) erfc(t)/2) and truncated power-series arithmetic in u).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc, gammainc, gammaincc, gammaln, logsumexp

# Absolute error of scipy's regularized incomplete gamma: ~1e-16 for shape
# parameters up to a few 1e5, up to ~4e-11 near a = 1e6.
SCIPY_ABS_ERR_SMALL_A = 1e-15
SCIPY_ABS_ERR_LARGE_A = 5e-11
_LARGE_A = 3e5

# Semi-infinite integrals are cut at T; every integrand decays like e^(-t^2).
_T = 9.0
_PANEL_WIDTH = 0.5
_PANEL_ORDER = 24
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_PANEL_ORDER)
_SQRT_PI = math.sqrt(math.pi)

# Cauchy integrals: radius and number of points on the circle.  The kernels
# are analytic for |Im u| < pi, so rho = 1 with 32 points leaves an aliasing
# error ~ pi^-32, far below rounding.
_CAUCHY_RHO = 1.0
_CAUCHY_POINTS = 32
# Mixed cumulants (up to two active disks): analytic for |Im u_1|+|Im u_2| < pi.
_MIXED_RHO = 0.5
_MIXED_POINTS = 32


# ---------------------------------------------------------------------------
# disks and the incomplete-gamma profile


def resolve_radii(b: float, n: int, disks: list[dict]) -> np.ndarray:
    """Radii at n: fixed disks keep r, the edge disk sits at
    b^(-1/2b) (1 + sqrt(2b) s / sqrt(n))^(1/2b)."""
    out = []
    for d in disks:
        if "r" in d:
            out.append(d["r"])
        else:
            factor = 1.0 + math.sqrt(2.0 * b) * d["s"] / math.sqrt(n)
            out.append(b ** (-1.0 / (2.0 * b)) * factor ** (1.0 / (2.0 * b)))
    return np.asarray(out, dtype=float)


class Profile:
    """P[j, l] = P((j+1+alpha)/b, n r_l^(2b)) and its complement Q, from scipy."""

    def __init__(self, b: float, alpha: float, n: int, disks: list[dict]):
        self.n = n
        radii = resolve_radii(b, n, disks)
        a = (np.arange(1, n + 1) + alpha) / b
        z = n * radii ** (2.0 * b)
        self.P = gammainc(a[:, None], z[None, :])
        self.Q = gammaincc(a[:, None], z[None, :])
        self.a_max = float(a[-1])
        # rows where some column is away from 0 and 1 by more than rounding:
        # the only rows whose evaluation error in either implementation can
        # exceed 1e-16
        self.window = int(np.count_nonzero(np.any(np.minimum(self.P, self.Q) > 1e-16, axis=1)))
        self.torus: dict = {}  # active disks -> Taylor coefficients, see _torus_coeffs

    @property
    def abs_err(self) -> float:
        """Bound on the absolute error of one P or Q entry (scipy's, and the
        program's 1e-13 budget, whichever is larger)."""
        return SCIPY_ABS_ERR_LARGE_A if self.a_max > _LARGE_A else 1e-13

    def log_q(self) -> np.ndarray:
        """log of the annulus probabilities, (n, p+1); annulus l is inside
        disks l..p-1.  Differences are taken of P below 1/2 and of Q above."""
        P, Q = self.P, self.Q
        n, p = P.shape
        q = np.empty((n, p + 1))
        q[:, 0] = P[:, 0]
        q[:, p] = Q[:, p - 1]
        for l in range(1, p):
            q[:, l] = np.where(P[:, l] < 0.5, P[:, l] - P[:, l - 1], Q[:, l - 1] - Q[:, l])
        np.maximum(q, 0.0, out=q)
        with np.errstate(divide="ignore"):
            return np.log(q)


def _tails(u) -> np.ndarray:
    """U_l = u_l + ... + u_{p-1} for annulus l = 0..p, U_p = 0."""
    u = np.asarray(u)
    return np.concatenate([np.cumsum(u[::-1])[::-1], np.zeros(1, dtype=u.dtype)])


def log_mgf(prof: Profile, u) -> float:
    """Exact log E prod_l exp(u_l N_l) as sum_j logsumexp_l(log q_jl + U_l)."""
    terms = logsumexp(prof.log_q() + _tails(np.asarray(u, dtype=float))[None, :], axis=1)
    return math.fsum(terms.tolist())


def log_mgf_tol(prof: Profile, u, value: float) -> float:
    """Tolerance for a log-MGF: every window row may be off by the entry error
    times the largest weight ratio, plus rounding of the sum."""
    spread = math.exp(float(np.sum(np.abs(u))))
    p = prof.P.shape[1]
    return 4.0 * prof.window * p * prof.abs_err * spread + 1e-13 * abs(value) + 1e-13


def _bernoulli_R(kmax: int) -> list[np.polynomial.Polynomial]:
    """R_k with kappa_k(Bernoulli(p)) = p (1-p) R_k(p) for k >= 2.

    From kappa_{k+1} = p(1-p) dkappa_k/dp:  R_{k+1} = (1-2p) R_k + p(1-p) R_k'.
    """
    Poly = np.polynomial.Polynomial
    R = [Poly([0.0]), Poly([0.0]), Poly([1.0])]
    for _ in range(2, kmax):
        Rk = R[-1]
        R.append(Poly([1.0, -2.0]) * Rk + Poly([0.0, 1.0, -1.0]) * Rk.deriv())
    return R


_R = _bernoulli_R(7)
_R_MAX = [float(np.max(np.abs(R(np.linspace(0.0, 1.0, 1001))))) for R in _R]


def marginal_cumulant(prof: Profile, disk: int, k: int) -> float:
    P, Q = prof.P[:, disk], prof.Q[:, disk]
    if k == 1:
        return math.fsum(P.tolist())
    return math.fsum((P * Q * _R[k](P)).tolist())


def _torus_coeffs(prof: Profile, active: tuple[int, ...]) -> np.ndarray:
    """Taylor coefficients of the cumulant generating function in the active
    u's (the others at 0), from its values on a torus of radius rho."""
    if active in prof.torus:
        return prof.torus[active]
    log_q = prof.log_q()
    q = np.exp(log_q[np.max(log_q, axis=1) < 0.0])  # one-hot rows are linear in u
    M, rho = _MIXED_POINTS, _MIXED_RHO
    circle = rho * np.exp(2j * math.pi * np.arange(M) / M)
    p = prof.P.shape[1]
    grid = np.zeros((M,) * len(active) + (p,), dtype=complex)
    for axis, d in enumerate(active):
        shape = [1] * len(active)
        shape[axis] = M
        grid[..., d] = circle.reshape(shape)
    tails = np.flip(np.cumsum(np.flip(grid, -1), -1), -1)  # U_l for l = 0..p-1
    weights = np.concatenate([np.exp(tails), np.ones(grid.shape[:-1] + (1,))], axis=-1)
    weights = weights.reshape(-1, p + 1).T
    values = np.zeros(weights.shape[1], dtype=complex)
    for lo in range(0, len(q), 256):
        w = q[lo : lo + 256] @ weights
        # principal log: |Im U| <= 2 rho < pi/2 keeps every sum in the right half-plane
        values += np.sum(0.5 * np.log(w.real**2 + w.imag**2) + 1j * np.arctan2(w.imag, w.real), axis=0)
    coeffs = np.fft.fftn(values.reshape((M,) * len(active))) / values.size
    prof.torus[active] = coeffs
    return coeffs


def mixed_cumulant(prof: Profile, multi: tuple[int, ...]) -> float:
    """Joint cumulant for a multi-index with two non-zero entries: prod k_d!
    times a Taylor coefficient of the log-space generating function."""
    active = tuple(d for d, k in enumerate(multi) if k > 0)
    if len(active) != 2:
        raise ValueError("mixed_cumulant covers exactly two active disks")
    k = tuple(multi[d] for d in active)
    fact = math.prod(math.factorial(v) for v in k)
    return float((_torus_coeffs(prof, active)[k] * fact / _MIXED_RHO ** sum(k)).real)


def cumulant(prof: Profile, multi: tuple[int, ...]) -> float:
    active = [d for d, k in enumerate(multi) if k > 0]
    if len(active) == 1:
        return marginal_cumulant(prof, active[0], multi[active[0]])
    if sum(multi) == 2:
        lo, hi = active
        return math.fsum((prof.P[:, lo] * prof.Q[:, hi]).tolist())
    return mixed_cumulant(prof, multi)


def cumulant_tol(prof: Profile, multi: tuple[int, ...], value: float) -> float:
    """An entry error dp moves a per-particle kappa_k by R_{k+1}(p) dp
    (dkappa_k/dp = kappa_{k+1}/(p q)); the Cauchy sum of a mixed cumulant adds
    rounding amplified by prod k_d!/rho^k."""
    k = sum(multi)
    tol = 4.0 * prof.window * prof.abs_err * _R_MAX[k + 1] + 1e-13 * abs(value) + 1e-13
    if sum(v > 0 for v in multi) > 1:
        tol += math.factorial(k) / _MIXED_RHO**k * 1e-15 * max(prof.window, 1)
    return tol


def log_partition(b: float, alpha: float, n: int) -> float:
    """log Z_n = -n^2/(2b) log n - (1+2alpha)/(2b) n log n + n log(pi/b)
    + sum_j log Gamma((j+alpha)/b)."""
    lg = math.fsum(gammaln((np.arange(1, n + 1) + alpha) / b).tolist())
    logn = math.log(n)
    return (
        -(n * n) / (2.0 * b) * logn
        - (1.0 + 2.0 * alpha) / (2.0 * b) * n * logn
        + n * math.log(math.pi / b)
        + lg
    )


# ---------------------------------------------------------------------------
# expansion coefficients on Gauss-Legendre panels


def _panels(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and signed weights for the integral from lo to hi."""
    count = max(1, math.ceil(abs(hi - lo) / _PANEL_WIDTH))
    edges = np.linspace(lo, hi, count + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return x, w


def _integral(fn, lo: float, hi: float, s):
    """int_lo^hi fn(t, s) dt for an array of s values (last axis is t)."""
    if lo == hi:
        return np.zeros(np.shape(s), dtype=np.result_type(s, float))
    x, w = _panels(lo, hi)
    return fn(x, np.asarray(s)[..., None]) @ w


def F(t, s):
    """F(t, s) = log(1 + (s-1) erfc(t)/2), written without cancellation."""
    return np.log(erfc(-t) / 2.0 + s * erfc(t) / 2.0)


def G(t, s):
    """G = dF/dt = (1-s) e^(-t^2)/sqrt(pi) / (erfc(-t)/2 + s erfc(t)/2)."""
    return (1.0 - s) * np.exp(-t * t) / _SQRT_PI / (erfc(-t) / 2.0 + s * erfc(t) / 2.0)


def bulk_C(b: float, alpha: float, r: float, u) -> np.ndarray:
    """(C1, C2, C3, C4) of one bulk disk for an array of (complex) u; shape (4,) + u.shape."""
    u = np.asarray(u)
    s, si = np.exp(u), np.exp(-u)
    rb = r**b
    T = _T
    C1 = b * r ** (2.0 * b) * u
    C2 = math.sqrt(2.0) * b * rb * (_integral(F, 0.0, T, s) + _integral(F, 0.0, T, si))
    C3 = (
        -(0.5 + alpha) * u
        + 4.0 * b * (_integral(lambda t, v: t * F(t, v), 0.0, T, s)
                     - _integral(lambda t, v: t * F(t, v), 0.0, T, si))
        + b * _integral(lambda t, v: G(t, v) * (5.0 * t * t - 1.0) / 3.0, -T, T, s)
    )
    C4 = (
        6.0 * math.sqrt(2.0) * b / rb
        * (_integral(lambda t, v: t * t * F(t, v), 0.0, T, s)
           + _integral(lambda t, v: t * t * F(t, v), 0.0, T, si))
        - b / (math.sqrt(2.0) * rb)
        * _integral(lambda t, v: G(t, v) * (21.0 * t - 193.0 * t**3 + 50.0 * t**5) / 18.0, -T, T, s)
        - b / (2.0 * math.sqrt(2.0) * rb)
        * _integral(lambda t, v: (G(t, v) * (5.0 * t * t - 1.0) / 3.0) ** 2, -T, T, s)
    )
    return np.stack([C1, C2, C3, C4])


def edge_C(b: float, alpha: float, sf: float, u) -> np.ndarray:
    """(C1, C2, C3, C4) of the edge disk at parameter sf for an array of u."""
    u = np.asarray(u)
    se, sei = np.exp(u), np.exp(-u)
    T = _T
    lo = -(T + abs(sf))
    r2b = math.sqrt(2.0 * b)
    C1 = u + 0.0 * u
    C2 = (
        r2b * _integral(F, 0.0, T, sei)
        + r2b * sf * u
        + r2b * _integral(F, 0.0, -sf, se)
    )
    C3 = (
        (0.5 + alpha) * F(sf, sei)
        - 2.0 * b * _integral(lambda t, v: (2.0 * t - sf) * F(t, v), 0.0, T, sei)
        + 2.0 * b * _integral(lambda t, v: (2.0 * t + sf) * F(t, v), 0.0, -sf, se)
        + b * _integral(lambda t, v: G(t, v) * (5.0 * t * t + 3.0 * sf * t - 1.0) / 3.0, lo, -sf, se)
    )
    b32 = (2.0 * b) ** 1.5

    def poly_e(t):
        return (
            21.0 * t - 193.0 * t**3 + 50.0 * t**5
            + 6.0 * sf * (1.0 - 29.0 * t * t + 10.0 * t**4)
            - 9.0 * sf * sf * (3.0 * t - 2.0 * t**3)
        ) / 18.0

    C4 = (
        b32 * _integral(lambda t, v: (3.0 * t * t - 2.0 * sf * t) * F(t, v), 0.0, T, sei)
        + b32 * _integral(lambda t, v: (3.0 * t * t + 2.0 * sf * t) * F(t, v), 0.0, -sf, se)
        - b**1.5 / math.sqrt(2.0) * _integral(lambda t, v: G(t, v) * poly_e(t), lo, -sf, se)
        - b**1.5 / (2.0 * math.sqrt(2.0))
        * _integral(lambda t, v: (G(t, v) * (5.0 * t * t + 3.0 * sf * t - 1.0) / 3.0) ** 2, lo, -sf, se)
        + (
            (0.5 + alpha) * (2.0 * sf * sf - 1.0) / (3.0 * math.sqrt(2.0)) * math.sqrt(b)
            + (1.0 + 6.0 * alpha + 6.0 * alpha * alpha) / (12.0 * math.sqrt(2.0 * b))
        )
        * G(-sf, se)
    )
    return np.stack([C1, C2, C3, C4])


def classify(b: float, disks: list[dict]) -> list[str]:
    rstar = b ** (-1.0 / (2.0 * b))
    kinds = []
    for d in disks:
        if "s" in d or abs(d["r"] - rstar) <= 1e-12 * rstar:
            kinds.append("edge")
        elif d["r"] < rstar:
            kinds.append("bulk")
        else:
            kinds.append("outside")
    return kinds


def theorem_C(b: float, alpha: float, disks: list[dict]) -> np.ndarray:
    """(C1, C2, C3, C4) summed over the disks; each disk carries its own u."""
    total = np.zeros(4)
    for d, kind in zip(disks, classify(b, disks)):
        u = d.get("u", 0.0)
        if kind == "bulk":
            total += bulk_C(b, alpha, d["r"], u).real
        elif kind == "edge":
            total += edge_C(b, alpha, d.get("s", 0.0), u).real
        else:
            total += np.array([u, 0.0, 0.0, 0.0])
    return total


def _u_derivative(coeff_fn, j: int) -> np.ndarray:
    """j-th u-derivative at 0 of a vector-valued analytic function of u."""
    M, rho = _CAUCHY_POINTS, _CAUCHY_RHO
    u = rho * np.exp(2j * math.pi * np.arange(M) / M)
    vals = coeff_fn(u)  # (4, M)
    phases = np.exp(-2j * math.pi * j * np.arange(M) / M)
    return (math.factorial(j) * (vals @ phases) / M / rho**j).real


def bulk_cumulant_coeffs(j: int, b: float, alpha: float, r: float) -> np.ndarray:
    """(leading, c, d, e) of kappa_j for a bulk disk."""
    return _u_derivative(lambda u: bulk_C(b, alpha, r, u), j)


def edge_cumulant_coeffs(j: int, b: float, alpha: float, sf: float) -> np.ndarray:
    return _u_derivative(lambda u: edge_C(b, alpha, sf, u), j)


def coeff_tol(value: float) -> float:
    """Program quad runs at epsabs 1e-12 per piece; allow 1e-9 relative."""
    return 1e-9 * max(1.0, abs(value))


# ---------------------------------------------------------------------------
# self-check of the incomplete gamma against mpmath


def _mp_lower_P(a: float, z: float):
    """P(a, z) = z^a e^-z / Gamma(a+1) sum_k z^k / ((a+1)...(a+k)) in 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        A, Z = mpmath.mpf(a), mpmath.mpf(z)
        term = total = mpmath.mpf(1)
        k = 1
        while term >= total * mpmath.mpf(10) ** -35:
            term *= Z / (A + k)
            total += term
            k += 1
        return mpmath.exp(A * mpmath.log(Z) - Z - mpmath.loggamma(A + 1)) * total


def gamma_self_check(a_max: float) -> float:
    """Largest |scipy - mpmath| for P and Q at a few (a, z) with a <= a_max,
    z = a + k sqrt(a); raises if it exceeds the stated budget."""
    worst = 0.0
    for a in (10.0, 1e3, 5e4, 1e6):
        if a > max(a_max, 10.0):
            break
        for k in (-3.0, 0.0, 2.0):
            z = a + k * math.sqrt(a)
            ref = _mp_lower_P(a, z)
            err = max(abs(float(ref) - float(gammainc(a, z))), abs(float(1 - ref) - float(gammaincc(a, z))))
            budget = SCIPY_ABS_ERR_LARGE_A if a > _LARGE_A else SCIPY_ABS_ERR_SMALL_A
            if err > budget:
                raise ArithmeticError(f"scipy gammainc off by {err:.2e} at a={a}, z={z}")
            worst = max(worst, err)
    return worst

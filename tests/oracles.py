"""Independent reference computations used by the test suite.

Everything here deliberately avoids the production code paths it checks:
the MGF oracle integrates the radial one-fold integrals with mpmath
quadrature (no incomplete gamma), derivative oracles use complex-step,
Cauchy-circle and 50-digit mpmath differentiation (never a
moment-to-cumulant recursion), the partition-function oracle evaluates
both sides in 40-digit arithmetic, and the incomplete-gamma oracles sum the
lower series or the Legendre continued fraction in 40-50 digits.  The slow
mpmath values are frozen in tests/data/mp_oracles.json by
scripts/make_mp_oracles.py, and the incomplete-gamma grid in
tests/data/gammainc_grid.json by scripts/make_gammainc_oracle.py.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from mpmath import mp, mpf, quad as mpquad, loggamma as mploggamma, log as mplog, pi as mppi
from scipy.special import erfc as np_erfc


def radial_log_mgf(b, alpha, n, radii, us, dps=30):
    """log MGF by direct quadrature of the rotation-reduced n-fold integral.

    D_n(omega)/D_n(1) with D_n = (2pi)^n prod_j int_0^inf x^(2j+1+2alpha)
    e^(-n x^(2b)) omega(x) dx; omega is the piecewise-constant jump weight.
    """
    with mp.workdps(dps):
        bb, aa = mpf(b), mpf(alpha)
        segs = [mpf(0)] + [mpf(r) for r in radii] + [mp.inf]
        # omega on [r_{k-1}, r_k) is exp(u_k + ... + u_p)
        tail = [mpf(0)] * (len(radii) + 1)
        for k in range(len(radii) - 1, -1, -1):
            tail[k] = tail[k + 1] + mpf(us[k])
        total = mpf(0)
        for j in range(n):
            power = 2 * j + 1 + 2 * aa

            def integrand(x, power=power):
                return x**power * mp.e ** (-n * x ** (2 * bb))

            plain = mpf(0)
            weighted = mpf(0)
            for k in range(len(segs) - 1):
                piece = mpquad(integrand, [segs[k], segs[k + 1]])
                plain += piece
                weighted += mp.e ** tail[k] * piece
            total += mplog(weighted) - mplog(plain)
        return float(total)


def complex_log_mgf(P, us):
    """log MGF as an analytic function of complex u, from a fixed profile P."""
    p = P.shape[1]
    tails = [0.0 + 0.0j] * (p + 1)
    for k in range(p - 1, -1, -1):
        tails[k] = tails[k + 1] + us[k]
    omega = np.array([cmath.exp(tails[k + 1]) * (cmath.exp(us[k]) - 1.0) for k in range(p)])
    return complex(np.sum(np.log1p(P @ omega)))


def complex_log_mgf_gradient(P, us):
    """Analytic gradient of complex_log_mgf in each u_a (complex capable)."""
    p = P.shape[1]
    tails = [0.0 + 0.0j] * (p + 1)
    for k in range(p - 1, -1, -1):
        tails[k] = tails[k + 1] + us[k]
    exp_tails = [cmath.exp(t) for t in tails]
    omega = np.array([exp_tails[k] - exp_tails[k + 1] for k in range(p)])
    denom = 1.0 + P @ omega
    grads = []
    for a_idx in range(p):
        # d omega_l / d u_a = e^{U_l} [l <= a] - e^{U_{l+1}} [l+1 <= a]
        domega = np.array(
            [
                (exp_tails[l] if l <= a_idx else 0.0)
                - (exp_tails[l + 1] if l + 1 <= a_idx else 0.0)
                for l in range(p)
            ]
        )
        grads.append(complex(np.sum((P @ domega) / denom)))
    return grads


def mp_joint_cumulants(Pw, orders, dps=50):
    """Joint cumulants kappa_k of the disk counts carried by the profile rows
    Pw (w, p), as dps-digit ``mp.diff`` partial derivatives at u = 0 of
    sum_j log sum_l q_jl e^(U_l).  The annulus probabilities come from the same
    floats, q_j0 = P_j0, q_jl = P_jl - P_j,l-1, q_jp = 1 - P_j,p-1, and
    U_l = u_l + ... + u_p; the sum of logs is taken as the log of the product,
    so each evaluation costs one log."""
    p = Pw.shape[1]
    with mp.workdps(dps):
        rows = []
        for row in Pw.tolist():
            P = [mpf(v) for v in row]
            rows.append([P[0]] + [hi - lo for lo, hi in zip(P, P[1:])] + [1 - P[-1]])

        def f(*u):
            weights = [mp.exp(mp.fsum(u[l:])) for l in range(p)] + [mpf(1)]
            prod = mpf(1)
            for q in rows:
                prod *= mp.fdot(q, weights)
            return mplog(prod)

        return [float(mp.diff(f, [0] * p, list(k))) for k in orders]


def mp_kernel_derivatives(t, order, dps=50):
    """j-th u-derivatives at u = 0, j = 0..order, of F(t, e^u), F(t, e^-u),
    G(t, e^u) and G(t, e^u)^2 at one t, from dps-digit ``mp.taylor``, with
    F = log(1 + c (e^u - 1)), G = -e^(-t^2)/sqrt(pi) (e^u - 1)/(1 + c (e^u - 1))
    and c = erfc(t)/2.  Returns four lists of order + 1 values."""
    with mp.workdps(dps):
        tt = mpf(t)
        c = mp.erfc(tt) / 2
        g0 = mp.e ** (-tt * tt) / mp.sqrt(mppi)

        def F(u):
            return mplog(1 + c * mp.expm1(u))

        def G(u):
            return -g0 * mp.expm1(u) / (1 + c * mp.expm1(u))

        out = []
        for fn in (F, lambda u: F(-u), G, lambda u: G(u) ** 2):
            coeffs = mp.taylor(fn, 0, order)
            out.append([float(cf * mp.factorial(j)) for j, cf in enumerate(coeffs)])
        return out


def cumulants_by_complex_step(P, p, multi_indices, h=1e-20, delta=1e-150):
    """Order-1/2 joint cumulants from complex-step differentiation.

    Order 1: Im f(i h e_a)/h.  Order 2: complex-step of the analytic
    gradient, Im g_a(i h e_b)/h; both are exact to machine rounding.
    """
    out = []
    for k in multi_indices:
        total = sum(k)
        support = [i for i, v in enumerate(k) if v > 0]
        if total == 1:
            (a_idx,) = support
            us = [0.0] * p
            us[a_idx] = 1j * h
            out.append(complex_log_mgf(P, us).imag / h)
        elif total == 2:
            a_idx = support[0]
            b_idx = support[-1]
            us = [0.0] * p
            us[b_idx] = 1j * h
            out.append(complex_log_mgf_gradient(P, us)[a_idx].imag / h)
        else:
            raise ValueError("complex-step oracle only covers orders 1-2")
    return out


# ---------------------------------------------------------------------------
# Cauchy-circle u-derivatives of the theorem coefficients (single bulk disk)


def _gauss_panels(lo, hi, n_panels=8, order=60):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    xs, ws = [], []
    edges = np.linspace(lo, hi, n_panels + 1)
    for a, b in zip(edges, edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        xs.append(mid + half * nodes)
        ws.append(half * weights)
    return np.concatenate(xs), np.concatenate(ws)


def bulk_coeffs_complex(b, alpha, r, u, T=8.2):
    """(C2, C3, C4) for one bulk disk at complex u, Gauss-Legendre panels."""
    s, si = cmath.exp(u), cmath.exp(-u)
    xs_pos, ws_pos = _gauss_panels(0.0, T)
    xs_full, ws_full = _gauss_panels(-T, T, n_panels=16)

    def F(t, sv):
        return np.log(1.0 + (sv - 1.0) * np_erfc(t) / 2.0)

    def G(t, sv):
        return (1.0 - sv) / (1.0 + (sv - 1.0) * np_erfc(t) / 2.0) * np.exp(-t * t) / math.sqrt(math.pi)

    rb = r**b
    C2 = math.sqrt(2.0) * b * rb * np.sum(ws_pos * (F(xs_pos, s) + F(xs_pos, si)))
    C3 = (
        -(0.5 + alpha) * u
        + 4.0 * b * np.sum(ws_pos * xs_pos * (F(xs_pos, s) - F(xs_pos, si)))
        + b * np.sum(ws_full * G(xs_full, s) * (5.0 * xs_full**2 - 1.0) / 3.0)
    )
    C4 = (
        6.0 * math.sqrt(2.0) * b / rb * np.sum(ws_pos * xs_pos**2 * (F(xs_pos, s) + F(xs_pos, si)))
        - b / (math.sqrt(2.0) * rb)
        * np.sum(ws_full * G(xs_full, s) * (21.0 * xs_full - 193.0 * xs_full**3 + 50.0 * xs_full**5) / 18.0)
        - b / (2.0 * math.sqrt(2.0) * rb)
        * np.sum(ws_full * (G(xs_full, s) * (5.0 * xs_full**2 - 1.0) / 3.0) ** 2)
    )
    return C2, C3, C4


def mp_bulk_coeffs(b, alpha, r, u, dps=30):
    """(C2, C3, C4) for one bulk disk at real u: the three bulk integrals by
    mpmath quadrature over the whole line, with the kernel written as
    F(t, s) = log(erfc(-t)/2 + s erfc(t)/2), a sum of positive terms that
    cannot cancel however small s = e^u is."""
    with mp.workdps(dps):
        bb, aa, uu = mpf(b), mpf(alpha), mpf(u)
        rb = mpf(r) ** bb
        s, si = mp.e**uu, mp.e**-uu
        sqrt2 = mp.sqrt(2)

        def F(t, sv):
            return mplog(mp.erfc(-t) / 2 + sv * mp.erfc(t) / 2)

        def G(t):
            return (1 - s) * mp.e ** (-t * t) / mp.sqrt(mppi) / (mp.erfc(-t) / 2 + s * mp.erfc(t) / 2)

        # breakpoints at the integers up to 10 and around sqrt(|u|): G turns
        # over near erfc(|t|)/2 = e^-|u|, and for |u| >~ 100 that lies past 10
        kink = int(math.sqrt(abs(u)))
        ends = sorted(set(range(0, 11)) | set(range(max(kink - 3, 0), kink + 5)))
        half = ends + [mp.inf]
        full = [-mp.inf] + [-t for t in reversed(ends[1:])] + ends + [mp.inf]
        C2 = sqrt2 * bb * rb * mpquad(lambda t: F(t, s) + F(t, si), half)
        C3 = (
            -(mpf(1) / 2 + aa) * uu
            + 4 * bb * mpquad(lambda t: t * (F(t, s) - F(t, si)), half)
            + bb * mpquad(lambda t: G(t) * (5 * t * t - 1) / 3, full)
        )
        C4 = (
            6 * sqrt2 * bb / rb * mpquad(lambda t: t * t * (F(t, s) + F(t, si)), half)
            - bb / (sqrt2 * rb) * mpquad(lambda t: G(t) * (21 * t - 193 * t**3 + 50 * t**5) / 18, full)
            - bb / (2 * sqrt2 * rb) * mpquad(lambda t: (G(t) * (5 * t * t - 1) / 3) ** 2, full)
        )
        return float(C2), float(C3), float(C4)


def bulk_coeff_derivatives(b, alpha, r, order, rho=0.4, points=32):
    """d^j/du^j (C2, C3, C4) at u=0 via the Cauchy integral on |u| = rho."""
    vals = np.array(
        [
            bulk_coeffs_complex(b, alpha, r, rho * cmath.exp(2j * math.pi * m / points))
            for m in range(points)
        ]
    )
    phases = np.exp(-2j * math.pi * order * np.arange(points) / points)
    fact = math.factorial(order)
    return tuple(
        float((fact * np.mean(vals[:, k] * phases) / rho**order).real) for k in range(3)
    )


# ---------------------------------------------------------------------------
# partition function, both sides in 40-digit arithmetic


def mp_log_partition(b, alpha, n, dps=40):
    with mp.workdps(dps):
        bb, aa = mpf(b), mpf(alpha)
        s = mpf(0)
        for j in range(1, n + 1):
            s += mploggamma((j + aa) / bb)
        val = (
            -(mpf(n) ** 2) / (2 * bb) * mplog(n)
            - (1 + 2 * aa) / (2 * bb) * n * mplog(n)
            + n * mplog(mppi / bb)
            + s
        )
        return val


def mp_zn_expansion(b, alpha, n, n1, n2, dps=40):
    """The displayed expansion plus the 1/n correction, in mp arithmetic."""
    from mpmath import barnesg, log as mlg, pi as mpi

    with mp.workdps(dps):
        bb, aa = mpf(b), mpf(alpha)
        g = n1 * n2 * mp.zeta(-1, derivative=1)
        g += (bb * (n2 - n1) + 2 * n1 * aa) / (4 * bb) * mlg(2 * mpi)
        g -= (1 - 3 * bb + bb**2 + 6 * aa - 6 * bb * aa + 6 * aa**2) / (12 * bb) * mlg(n1)
        for jj in range(1, n2 + 1):
            for kk in range(1, n1 + 1):
                g -= mlg(barnesg((jj + aa / bb - 1) / mpf(n2) + mpf(kk) / n1))
        val = (
            -(3 + 2 * mlg(bb)) / (4 * bb) * mpf(n) ** 2
            - mpf(n) * mlg(n) / 2
            + (mlg(2 * mpi) / 2 + (bb - 2 * aa - 1) * (1 + mlg(bb)) / (2 * bb) + mlg(mpi / bb)) * n
            + (1 - 3 * bb + bb**2 + 6 * aa - 6 * bb * aa + 6 * aa**2) / (12 * bb) * mlg(n)
            + g
            + (2 * aa - bb + 1) * (2 * aa**2 - 2 * aa * bb + 2 * aa - bb) / (24 * bb) / n
        )
        return val


def mp_log_gamma_pq(a, z, dps=40):
    """(log P(a, z), log Q(a, z)) in dps-digit arithmetic, finite far below
    double range: the lower series for z < a + 1, the Legendre continued
    fraction (modified Lentz) otherwise; the complement by log1p."""
    with mp.workdps(dps):
        aa, zz = mpf(a), mpf(z)
        tol = mpf(10) ** (-dps)
        log_pre = aa * mplog(zz) - zz - mploggamma(aa)
        if zz < aa + 1:
            term = total = 1 / aa
            k = 1
            while term > tol * total:
                term *= zz / (aa + k)
                total += term
                k += 1
            small = log_pre + mplog(total)
            return float(small), float(mp.log1p(-mp.e**small))
        tiny = mpf(10) ** (-2 * dps)
        b_k, c_k = zz + 1 - aa, 1 / tiny
        d_k = 1 / b_k
        h = d_k
        i = 1
        while True:
            a_k = -i * (i - aa)
            b_k += 2
            d_k = 1 / (a_k * d_k + b_k)
            c_k = b_k + a_k / c_k
            h *= d_k * c_k
            if abs(d_k * c_k - 1) < tol:
                break
            i += 1
        small = log_pre + mplog(h)
        return float(mp.log1p(-mp.e**small)), float(small)


def reference_reg_lower_gamma(a: float, z: float, dps: int = 50) -> float:
    """P(a, z) summed in dps-digit arithmetic; returned as float.

    The brute-force series/continued-fraction evaluation behind
    tests/data/gammainc_grid.json (mpmath's own gammainc stalls for a >~ 1e4).
    """
    with mp.workdps(dps):
        aa, zz = mpf(a), mpf(z)
        if zz == 0:
            return 0.0
        tol = mpf(10) ** (-dps - 5)
        if zz < aa + 1:
            # lower series
            term = 1 / aa
            total = term
            k = 1
            while True:
                term *= zz / (aa + k)
                total += term
                if term <= tol * total:
                    break
                k += 1
            p = mp.e ** (aa * mp.log(zz) - zz - mp.loggamma(aa)) * total
            return float(p)
        # Legendre continued fraction for Q, modified Lentz
        tiny = mpf(10) ** (-2 * dps - 50)
        b_k = zz + 1 - aa
        c_k = 1 / tiny
        d_k = 1 / b_k if b_k != 0 else 1 / tiny
        h = d_k
        i = 1
        while True:
            a_k = -i * (i - aa)
            b_k += 2
            d_k = a_k * d_k + b_k
            if d_k == 0:
                d_k = tiny
            c_k = b_k + a_k / c_k
            if c_k == 0:
                c_k = tiny
            d_k = 1 / d_k
            delta = d_k * c_k
            h *= delta
            if abs(delta - 1) < tol:
                break
            i += 1
        logq = aa * mp.log(zz) - zz - mp.loggamma(aa) + mp.log(h)
        return float(1 - mp.e**logq)

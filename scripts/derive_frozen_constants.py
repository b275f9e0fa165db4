#!/usr/bin/env python3
"""Derive the frozen constants in mlcounts.specfun at 60-digit precision.

Prints, for pasting into specfun.py after review:

* ``_TEMME_TAYLOR``: the Taylor coefficients about eta = 0 of the
  uniform-asymptotics coefficient functions c_k(eta) of
  Q(a, z) = erfc(eta sqrt(a/2))/2 + e^(-a eta^2/2)/sqrt(2 pi a) sum_k c_k(eta) a^-k
  (Temme 1979), each row cut where its terms drop below TOL on the
  uniform branch |eta| <= ETA_UNIFORM, a >= A_UNIFORM;
* ``_RGAMMA1P_TAYLOR``: the Taylor coefficients d_1, d_2, ... of
  1/Gamma(1+a) - 1 = sum_k d_k a^k, cut after the last |d_k| >= TOL (a <= 1);
* zeta'(-1), cross-checked against the Glaisher-Kinkelin relation
  log A = 1/12 - zeta'(-1);
* the Barnes-G asymptotic tail coefficients B_{2k+2}/(4k(k+1)).

The c_k follow from c_0 = 1/(lambda-1) - 1/eta and
c_k = c_(k-1)'(eta)/eta + (-1)^k g_k/(lambda-1), with g_k the Stirling
coefficients of Gamma (DLMF 8.12.7-8), as power series in eta through the
series of lambda - 1 in eta; the 1/eta poles cancel at every step, which
``temme_taylor`` asserts.  ``tests/test_specfun.py`` calls it to check that
the table in specfun.py is current.

Run from the repository root:  python3 scripts/derive_frozen_constants.py
"""

import pathlib
import sys
from fractions import Fraction

from mpmath import bernoulli, euler, exp, glaisher, mp, mpf, nstr, zeta

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mlcounts.specfun import A_UNIFORM, ETA_UNIFORM  # noqa: E402

DPS = 60
N = 80  # terms of the series of lambda - 1 in eta: c_k keeps N - 2k of them
K_MAX = 20
TOL = 1e-18  # a table entry is kept while |c_km| ETA_UNIFORM^m A_UNIFORM^-k >= TOL


def series_inv(A):
    B = [mpf(0)] * len(A)
    B[0] = 1 / A[0]
    for n in range(1, len(A)):
        B[n] = -sum(A[i] * B[n - i] for i in range(1, n + 1)) / A[0]
    return B


def stirling(k_max):
    """g_0..g_kmax of Gamma(a) ~ sqrt(2 pi/a) (a/e)^a sum_k g_k a^-k, as the
    exponential of log Gamma's series sum_m B_2m/(2m(2m-1)) a^(1-2m)."""
    log_series = [mpf(0)] * (k_max + 1)
    for m in range(1, k_max // 2 + 2):
        if 2 * m - 1 <= k_max:
            log_series[2 * m - 1] = bernoulli(2 * m) / (2 * m * (2 * m - 1))
    g = [mpf(1)] + [mpf(0)] * k_max
    for n in range(1, k_max + 1):  # g' = (log series)' g
        g[n] = sum(k * log_series[k] * g[n - k] for k in range(1, n + 1)) / n
    return g


def temme_taylor():
    """Rows k = 0, 1, ... of Taylor coefficients of c_k(eta) about 0 (mpf),
    each cut after its last entry >= TOL on the uniform branch; the rows
    stop at the first k with no such entry."""
    with mp.workdps(DPS):
        # lambda - 1 = x(eta) = sum_n a_n eta^n: eta^2/2 = x - log(1+x) gives
        # x x' = eta (1 + x), whose eta^n coefficient fixes a_n from a_1..a_(n-1):
        # (n+1) a_n = a_(n-1) - sum_{i=2}^{n-1} (n+1-i) a_i a_(n+1-i), a_1 = 1
        a = [mpf(0), mpf(1)]
        for n in range(2, N + 1):
            a.append((a[n - 1] - sum((n + 1 - i) * a[i] * a[n + 1 - i] for i in range(2, n))) / (n + 1))
        inv = series_inv(a[1:])  # eta/(lambda - 1) = sum_n inv_n eta^n
        g = stirling(K_MAX)
        c = [inv[1:]]  # c_0 = (eta/(lambda-1) - 1)/eta
        for k in range(1, K_MAX):
            prev, sign_g = c[-1], (-1) ** k * g[k]
            assert abs(prev[1] + sign_g * inv[0]) < mpf(10) ** (10 - DPS), k  # no 1/eta pole
            c.append([(m + 2) * prev[m + 2] + sign_g * inv[m + 1] for m in range(len(prev) - 2)])
        rows = []
        for k, coeffs in enumerate(c):
            kept = [m for m, v in enumerate(coeffs)
                    if abs(v) * mpf(ETA_UNIFORM) ** m / mpf(A_UNIFORM) ** k >= TOL]
            if not kept:
                break
            assert kept[-1] < len(coeffs) - 8, k  # the cut falls well inside the derived series
            rows.append(coeffs[: kept[-1] + 1])
        assert len(rows) < K_MAX - 1
        return rows


def rgamma1p_taylor():
    """d_1, d_2, ... of 1/Gamma(1+a) - 1 = sum_k d_k a^k (mpf), cut after the
    last |d_k| >= TOL: the small-shape branch takes a < 1.

    The d_k are the coefficients of the exponential of
    log(1/Gamma(1+x)) = euler x + sum_{k>=2} (-1)^(k+1) zeta(k) x^k/k,
    by the recurrence E_m = (1/m) sum_{k=1}^m k L_k E_(m-k) (Wrench 1968)."""
    with mp.workdps(DPS):
        L = [mpf(0), +euler] + [(-1) ** (k + 1) * zeta(k) / k for k in range(2, 41)]
        E = [mpf(1)]
        for m in range(1, len(L)):
            E.append(sum(k * L[k] * E[m - k] for k in range(1, m + 1)) / m)
        d = E[1:]
        kept = [k for k, v in enumerate(d) if abs(v) >= TOL]
        assert kept[-1] < len(d) - 8  # the cut falls well inside the derived series
        return d[: kept[-1] + 1]


def main() -> None:
    mp.dps = DPS
    print("_TEMME_TAYLOR = (")
    for row in temme_taylor():
        print("    (")
        for i in range(0, len(row), 3):
            print("        " + " ".join(f"{float(v)!r}," for v in row[i:i + 3]))
        print("    ),")
    print(")")

    d = rgamma1p_taylor()
    print("\n_RGAMMA1P_TAYLOR = np.array((")
    for i in range(0, len(d), 3):
        print("    " + " ".join(f"{float(v)!r}," for v in d[i:i + 3]))
    print("))")

    zp = zeta(-1, derivative=1)
    print("\nzeta'(-1) =", nstr(zp, 35))
    glaisher_check = exp(mpf(1) / 12 - zp)
    print("exp(1/12 - zeta'(-1)) =", nstr(glaisher_check, 30), " (Glaisher A =", nstr(glaisher, 30), ")")

    print("\nBarnes-G tail B_{2k+2}/(4k(k+1)):")
    for k in range(1, 7):
        num = bernoulli(2 * k + 2)
        frac = Fraction(str(nstr(num, 40))).limit_denominator(10**12) / (4 * k * (k + 1))
        print(f"  k={k}: {frac}")


if __name__ == "__main__":
    main()

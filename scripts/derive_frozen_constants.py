#!/usr/bin/env python3
"""Derive the frozen constants in mlcounts.specfun at 60-digit precision.

Prints, for pasting into specfun.py after review:

* the Taylor coefficients about eta = 0 of the uniform-asymptotics
  correction functions c0(eta) = 1/(lambda-1) - 1/eta and
  c1(eta) = 1/eta^3 - 1/(lambda-1)^3 - 1/(lambda-1)^2 - 1/(12(lambda-1));
* zeta'(-1), cross-checked against the Glaisher-Kinkelin relation
  log A = 1/12 - zeta'(-1);
* the Barnes-G asymptotic tail coefficients B_{2k+2}/(4k(k+1)).

The power series of eta(lambda) about lambda = 1 is no longer derived:
specfun takes eta in closed form, sqrt(2 (x - log(1+x))) with x = lambda - 1,
through a cancellation-free x - log(1+x).  Only its inverse, lambda - 1 as a
series in eta, enters c0 and c1.
"""

from fractions import Fraction

from mpmath import bernoulli, exp, glaisher, mp, mpf, nstr, zeta

mp.dps = 60
N = 18


def series_mul(A, B):
    C = [mpf(0)] * N
    for i in range(N):
        if A[i] == 0:
            continue
        for j in range(N - i):
            C[i + j] += A[i] * B[j]
    return C


def series_inv(A):
    B = [mpf(0)] * N
    B[0] = 1 / A[0]
    for n in range(1, N):
        B[n] = -sum(A[i] * B[n - i] for i in range(1, n + 1)) / A[0]
    return B


def main() -> None:
    # lambda - 1 = x(eta) = sum_k a_k eta^k: eta^2/2 = x - log(1+x) gives
    # x x' = eta (1 + x), whose eta^n coefficient fixes a_n from a_1..a_(n-1):
    # (n+1) a_n = a_(n-1) - sum_{i=2}^{n-1} (n+1-i) a_i a_(n+1-i), a_1 = 1
    a = [mpf(0), mpf(1)]
    for n in range(2, N + 1):
        a.append((a[n - 1] - sum((n + 1 - i) * a[i] * a[n + 1 - i] for i in range(2, n))) / (n + 1))
    B = a[1:N + 1]  # lambda - 1 = eta * B(eta)

    Binv = series_inv(B)
    B2inv = series_mul(Binv, Binv)
    B3inv = series_mul(B2inv, Binv)
    c0 = [Binv[k + 1] for k in range(N - 1)] + [mpf(0)]
    one_minus_B3inv = [(mpf(1) if k == 0 else mpf(0)) - B3inv[k] for k in range(N)]
    c1 = [mpf(0)] * N
    for m in range(N - 3):
        c1[m] = one_minus_B3inv[m + 3] - B2inv[m + 2] - Binv[m + 1] / 12
    assert abs(one_minus_B3inv[1] - B2inv[0]) < mpf(10) ** -50
    assert abs(one_minus_B3inv[2] - B2inv[1] - Binv[0] / 12) < mpf(10) ** -50
    print("\nc0 Taylor coefficients about eta=0:")
    for k in range(12):
        print(f"  {nstr(c0[k], 20)}")
    print("c1 Taylor coefficients about eta=0:")
    for k in range(12):
        print(f"  {nstr(c1[k], 20)}")

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

"""Truncated power series on numpy arrays, one coefficient array per order.

Coefficients run over window rows or quadrature nodes, so one call covers a
whole column.  ``cumulants`` turns moments into a joint cumulant: the exact
cumulants of nested disk indicators, and the u-derivatives of the Bernoulli
kernel log(1 + c(e^u - 1)) of the expansion.  ``quotient`` divides Taylor
series.  MAX_ORDER is the one order cap of the package: a relative change of
1e-15 in the moments moves an order-12 cumulant by ~1e-13 and an order-16 one
by ~1e-11, so past 12 the input, not the arithmetic, sets the error.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

__all__ = ["MAX_ORDER", "cumulants", "inverse_factorials", "quotient"]

MAX_ORDER = 12


def inverse_factorials(order: int) -> np.ndarray:
    """1/k! for k = 0..order, each correctly rounded."""
    return np.array([1.0 / math.factorial(k) for k in range(order + 1)])


def quotient(num: Sequence, den: Sequence) -> list:
    """Taylor coefficients of num/den through the order of num (den[0] != 0)."""
    out = []
    for k, acc in enumerate(num):
        for i in range(k):
            acc = acc - out[i] * den[k - i]
        out.append(acc / den[0])
    return out


@functools.cache
def _plan(k: tuple[int, ...]):
    """The recursion d_i L * M = d_i M for kappa_k, along e = e_i for the
    first nonzero coordinate i of k: for l in the box 0 <= l <= k - e, in
    lexicographic order, kappa(l+e) = m(l+e) - sum_{l' <= l, l' != l}
    C(l, l') kappa(l'+e) m(l-l').  Returns the multi-indices of the moments
    read, by slot, and per l the slot of m(l+e) and the terms
    (C(l, l'), position of l' in the box, slot of m(l-l'))."""
    i = next(d for d, v in enumerate(k) if v)
    e = tuple(int(d == i) for d in range(len(k)))
    box = list(np.ndindex(*(v + 1 - ed for v, ed in zip(k, e))))
    slots: dict[tuple[int, ...], int] = {}

    def slot(a: np.ndarray) -> int:
        return slots.setdefault(tuple(a.tolist()), len(slots))

    steps = []
    for l in box:
        terms = tuple(
            (float(math.prod(map(math.comb, l, sub))), box.index(sub), slot(np.subtract(l, sub)))
            for sub in np.ndindex(*(v + 1 for v in l)) if sub != l
        )
        steps.append((slot(np.add(l, e)), terms))
    return tuple(slots), tuple(steps)


def cumulants(k: Sequence[int], moment: Callable[[tuple[int, ...]], np.ndarray]) -> np.ndarray:
    """kappa_k (k != 0), elementwise over the arrays m_a = ``moment(a)``
    (E prod_i X_i^a_i) of the nonzero multi-indices a <= k."""
    keys, steps = _plan(tuple(int(v) for v in k))
    M = [moment(a) for a in keys]
    K = []
    for m, terms in steps:
        acc = M[m].copy()
        for c, a, b in terms:
            acc -= c * K[a] * M[b]
        K.append(acc)
    return K[-1]

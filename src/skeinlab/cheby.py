"""Chebyshev-style polynomial families with q-weighted variants.

All families live in a single variable x (plus a boundary variable r for
the boundary form) and are generated by the three-term recursion
p(n+1) = x*p(n) - p(n-1).  The two classical families are normalized so
that on x = 2*cos(psi):

    cheb_sine(n)   -> sin(n*psi) / sin(psi)
    cheb_cosine(n) -> 2*cos(n*psi)

The q-weighted variants attach powers of q to the same recursion data and
feed the rewriting verifiers.  Everything is exact and memoized.
"""

from __future__ import annotations

from functools import cache
from typing import List

from .ring import Q_PLUS_QINV, CPoly, Laurent, q_power_diff

VARS_X = ("x",)
VARS_XR = ("x", "r")

_X = CPoly.variable("x", VARS_X)

# x^2 - (q + 1/q)^2, the exact divisor used by the closed summation form.
_X2_MINUS_LOOP2 = _X * _X - CPoly.constant(Q_PLUS_QINV**2, VARS_X)

# The two families grow as lists, by iteration: a cached recursion would
# exceed the interpreter's recursion limit near n = 1000.
_sine_cache: List[CPoly] = [CPoly.zero(VARS_X), CPoly.one(VARS_X)]
_cosine_cache: List[CPoly] = [CPoly.constant(2, VARS_X), _X]


def cheb_sine(n: int) -> CPoly:
    """Sine-kind family: p(0) = 0, p(1) = 1, extended to n < 0 by oddness."""
    if n < 0:
        return -cheb_sine(-n)
    while len(_sine_cache) <= n:
        k = len(_sine_cache)
        _sine_cache.append(_X * _sine_cache[k - 1] - _sine_cache[k - 2])
    return _sine_cache[n]


def cheb_cosine(n: int) -> CPoly:
    """Cosine-kind family: p(0) = 2, p(1) = x, extended to n < 0 by evenness."""
    if n < 0:
        return cheb_cosine(-n)
    while len(_cosine_cache) <= n:
        k = len(_cosine_cache)
        _cosine_cache.append(_X * _cosine_cache[k - 1] - _cosine_cache[k - 2])
    return _cosine_cache[n]


@cache
def qdiff_sine_sum(n: int) -> CPoly:
    """Sum of (q^k - q^-k) * cheb_sine(k) over k = n-1, n-3, ..., ending at
    1 or 2.  Zero for n < 2."""
    if n < 0:
        raise ValueError("defined for n >= 0")
    total = CPoly.zero(VARS_X)
    for j in range(n // 2):
        k = n - 1 - 2 * j
        total = total + cheb_sine(k) * q_power_diff(k)
    return total


def qdiff_sine_sum_closed(n: int) -> CPoly:
    """Closed form of qdiff_sine_sum via an exact polynomial division."""
    if n < 0:
        raise ValueError("defined for n >= 0")
    numerator = cheb_sine(n + 1) * q_power_diff(n - 1) - cheb_sine(n - 1) * q_power_diff(n + 1)
    return numerator.divide_exact(_X2_MINUS_LOOP2)


def qweighted_cosine(n: int) -> CPoly:
    """q^(2n) * cheb_sine(n+1) - q^(-2n) * cheb_sine(n-1).

    Specializes to cheb_cosine(n) at q = 1; it is the diagonal value of the
    cosine-kind family on the q-twisted two by two companion matrix.
    """
    return cheb_sine(n + 1) * Laurent.q_power(2 * n) - cheb_sine(n - 1) * Laurent.q_power(-2 * n)


@cache
def boundary_form(n: int) -> CPoly:
    """Boundary-weighted kernel in (x, r) extracted from the n-th element.

    Equals (q^n * cheb_sine(n) + prefix) * r - q^n * cheb_sine(n+1)
    - q^-n * cheb_sine(n-1), where prefix is the full q-difference sum
    over k = 1 .. n-1.  At the classical point it collapses to
    (r - x) * cheb_sine(n).
    """
    if n < 1:
        raise ValueError("defined for n >= 1")
    prefix = qdiff_sine_sum(n - 1) + qdiff_sine_sum(n)
    r_part = (cheb_sine(n) * Laurent.q_power(n) + prefix).extend(VARS_XR)
    const_part = (
        cheb_sine(n + 1) * Laurent.q_power(n)
        + cheb_sine(n - 1) * Laurent.q_power(-n)
    ).extend(VARS_XR)
    return r_part * CPoly.variable("r", VARS_XR) - const_part

"""Independent numeric routes for the trace-calculus tests.

`gamma_values` runs the sine-kind recursion in complex floats, apart from
the exact `cheby.cheb_sine` polynomials it is checked against.
`epsilon_l_direct` and `epsilon_u_direct` multiply a point's matrices,
apart from the trace table that `chvar.epsilon_basics` reads.  They live
apart from `oracles.py`, which the benchmark compiles inside its measured
process.
"""
from __future__ import annotations

from typing import List

import numpy as np


def gamma_values(x: complex, n_max: int) -> List[complex]:
    """gamma_1..gamma_n at a numeric point: gamma_1 = 1, gamma_2 = x,
    gamma_{n+1} = x*gamma_n - gamma_{n-1}."""
    if n_max < 1:
        raise ValueError("n_max >= 1 required")
    vals = [complex(1)]
    if n_max >= 2:
        vals.append(complex(x))
    for _ in range(n_max - 2):
        vals.append(x * vals[-1] - vals[-2])
    return vals


def _tr(m) -> complex:
    return complex(m[0, 0] + m[1, 1])


def _inv(m):
    # adjugate; the points' matrices have det 1
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)


def _around(p, i: int):
    """(x_{i-1}, x_i, x_{i+1}) of a `chvar.ReprPoint`, holes numbered 1..4 cyclically."""
    return p.x[(i - 2) % 4], p.x[(i - 1) % 4], p.x[i % 4]


def epsilon_l_direct(p, i: int) -> complex:
    """eps(l_i) = -tr(x_{i-1}^-1 x_i x_{i+1}^-1)."""
    a, m, c = _around(p, i)
    return -_tr(_inv(a) @ m @ _inv(c))


def epsilon_u_direct(p, i: int) -> complex:
    """eps(u_i) = -tr(x_{i-1} x_i^-1 x_{i+1})."""
    a, m, c = _around(p, i)
    return -_tr(a @ _inv(m) @ c)

"""Independent numeric routes for the trace-calculus tests.

`gamma_values` runs the sine-kind recursion in complex floats, apart from
the exact `cheby.cheb_sine` polynomials it is checked against.  It lives
apart from `oracles.py`, which the benchmark compiles inside its measured
process.
"""
from __future__ import annotations

from typing import List


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

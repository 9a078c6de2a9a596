"""Independent numeric routes for the trace-calculus tests.

`gamma_values` runs the sine-kind recursion in complex floats, apart from
the exact `cheby.cheb_sine` polynomials it is checked against.
`epsilon_l_direct` and `epsilon_u_direct` multiply a point's matrices,
apart from the trace table that `chvar.epsilon_basics` reads.
`build_X1_point_direct` builds one branch of a four-tuple from scratch,
apart from the work `chvar.build_X1_points` shares between branches.
They live apart from `oracles.py`, which the benchmark compiles inside
its measured process.
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from skeinlab.chvar import (
    ReprPoint,
    TraceData,
    bridge_representation,
    pair_with_traces,
    solve_t123,
    third_with_traces,
)


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


def _det(m) -> complex:
    return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def build_X1_point_direct(
    tangles: Sequence, t: complex, b_param: complex, branches: Tuple[int, int]
) -> ReprPoint:
    """One branch of `chvar.build_X1_point`, every step taken for this
    branch alone, in the same order and with the same checks and messages."""
    if len(tangles) != 4:
        raise ValueError("exactly four tangles required")
    if branches[0] not in (0, 1) or branches[1] not in (0, 1):
        raise ValueError("branches must be two bits")
    t = complex(t)
    b_param = complex(b_param)
    s_traces = tuple(
        _tr(np.matmul(*bridge_representation(*spec, t)[0]))
        if isinstance(spec, tuple)
        else complex(spec)
        for spec in tangles
    )
    for s_val in s_traces:
        if abs(s_val - 2) < 1e-8 or abs(s_val - (t * t - 2)) < 1e-8:
            raise ValueError(f"tangle trace {s_val} lies on the reducible locus")
    p1, p2, p3, p4 = (t * t - s_val for s_val in s_traces)
    x2, x4 = pair_with_traces(t, b_param)
    r124 = solve_t123(b_param, p1, p2, t)
    r234 = solve_t123(b_param, p3, p4, t)
    for lo, hi in (r124, r234):
        if abs(lo - hi) < 1e-9:
            raise ValueError("non-generic b_param: vanishing discriminant")
    x1 = third_with_traces(x4, x2, t, p1, p2, r124[branches[0]])
    x3 = third_with_traces(x2, x4, t, p3, p4, r234[branches[1]])
    xs = (x1, x2, x3, x4)
    for i, m in enumerate(xs, start=1):
        if abs(_det(m) - 1) > 1e-9:
            raise ValueError(f"x{i}: determinant {_det(m)} is not 1")
        if abs(_tr(m) - t) > 1e-9:
            raise ValueError(f"x{i} trace {_tr(m)} is not t")
    data = TraceData(
        t=t,
        t12=_tr(x1 @ x2),
        t23=_tr(x2 @ x3),
        t34=_tr(x3 @ x4),
        t41=_tr(x4 @ x1),
        t24=_tr(x2 @ x4),
        t13=_tr(x1 @ x3),
        t123=_tr(x1 @ x2 @ x3),
        t124=_tr(x1 @ x2 @ x4),
        t134=_tr(x1 @ x3 @ x4),
        t234=_tr(x2 @ x3 @ x4),
    )
    checks = (
        (data.t41, p1, "tr(x4 x1)"),
        (data.t12, p2, "tr(x1 x2)"),
        (data.t23, p3, "tr(x2 x3)"),
        (data.t34, p4, "tr(x3 x4)"),
        (data.t24, b_param, "tr(x2 x4)"),
    )
    for got, want, label in checks:
        if abs(got - want) > 1e-9:
            raise ValueError(f"{label} = {got}, wanted {want}")
    if abs(_tr(_inv(x2) @ x4) - (t * t - b_param)) > 1e-9:
        raise ValueError("tr(x2^-1 x4) != t^2 - b")
    return ReprPoint(xs, data, (branches[0], branches[1]))

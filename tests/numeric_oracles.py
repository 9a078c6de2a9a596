"""Independent numeric routes for the trace-calculus tests.

`gamma_values` runs the sine-kind recursion in complex floats, apart from
the exact `cheby.cheb_sine` polynomials it is checked against.
`epsilon_l_direct` and `epsilon_u_direct` multiply a point's matrices,
apart from the trace table that `chvar.epsilon_basics` reads.
`build_X1_point_direct` builds one branch of a four-tuple from scratch,
apart from the work `chvar.build_X1_points` shares between branches; given
`third_numpy`, it solves each third matrix with numpy instead of
`chvar`'s own elimination.  `build_X1_point` and `third_with_traces` are
one-branch and one-matrix views of `chvar`'s routes.  Matrices are
`ring.m2_mul` row pairs, like `chvar`'s.  They live apart from
`oracles.py`, which the benchmark compiles inside its measured process.
"""
from __future__ import annotations

from functools import reduce
from typing import List, Sequence, Tuple

import numpy as np

from skeinlab.chvar import (
    _BRANCHES,
    ReprPoint,
    TraceData,
    _check_det,
    _thirds,
    bridge_representation,
    build_X1_points,
    pair_with_traces,
    solve_t123,
)
from skeinlab.ring import m2_mul


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
    return m[0][0] + m[1][1]


def _det(m) -> complex:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _inv(m):
    # adjugate; the points' matrices have det 1
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def _prod(*factors):
    return reduce(m2_mul, factors)


def _around(p, i: int):
    """(x_{i-1}, x_i, x_{i+1}) of a `chvar.ReprPoint`, holes numbered 1..4 cyclically."""
    return p.x[(i - 2) % 4], p.x[(i - 1) % 4], p.x[i % 4]


def epsilon_l_direct(p, i: int) -> complex:
    """eps(l_i) = -tr(x_{i-1}^-1 x_i x_{i+1}^-1)."""
    a, m, c = _around(p, i)
    return -_tr(_prod(_inv(a), m, _inv(c)))


def epsilon_u_direct(p, i: int) -> complex:
    """eps(u_i) = -tr(x_{i-1} x_i^-1 x_{i+1})."""
    a, m, c = _around(p, i)
    return -_tr(_prod(a, _inv(m), c))


def build_X1_point(
    tangles: Sequence, t: complex, b_param: complex, branches: Tuple[int, int] = (0, 0)
) -> ReprPoint:
    """`chvar.build_X1_points` for one branch: its point, raised if None."""
    if branches not in _BRANCHES:
        raise ValueError("branches must be two bits")
    point = build_X1_points(tangles, t, b_param)[_BRANCHES.index(branches)]
    if point is None:
        raise ValueError(f"branch {branches} failed a determinant or trace check")
    return point


def third_with_traces(a1, a2, t, t13, t23, t123):
    """a3 = alpha*I + beta*a1 + gamma*a2 + delta*a1a2 with tr(a3) = t,
    tr(a1 a3) = t13, tr(a2 a3) = t23 and tr(a1 a2 a3) = t123, from the
    pair's own trace system, with its determinant checked as
    `chvar.build_X1_points` checks x1 and x3."""
    return _check_det(_third_chvar(a1, a2, t, t13, t23, t123), "a3")


def _third_chvar(a1, a2, t, t13, t23, t123):
    (a3,) = _thirds((a1, a2), t, t13, t23, (t123,))
    if a3 is None:
        raise ValueError("singular trace system (reducible input pair)")
    return a3


def third_numpy(a1, a2, t, t13, t23, t123):
    """The same a3 from all 16 pairwise traces and `np.linalg.solve`."""
    basis = [np.eye(2, dtype=complex), np.array(a1), np.array(a2)]
    basis.append(basis[1] @ basis[2])
    system = np.array([[np.trace(p @ q) for q in basis] for p in basis])
    if abs(np.linalg.det(system)) < 1e-6:
        raise ValueError("singular trace system (reducible input pair)")
    coeffs = np.linalg.solve(system, np.array([t, t13, t23, t123], dtype=complex))
    a3 = sum(c * b for c, b in zip(coeffs, basis))
    return tuple(tuple(complex(x) for x in row) for row in a3)


def build_X1_point_direct(
    tangles: Sequence,
    t: complex,
    b_param: complex,
    branches: Tuple[int, int],
    third=_third_chvar,
) -> ReprPoint:
    """One branch of `chvar.build_X1_points`, every step taken for this
    branch alone, with the same checks: its point, or the first check it
    fails raised.  `third(a1, a2, t, t13, t23, t123)` builds x1 and x3."""
    if len(tangles) != 4:
        raise ValueError("exactly four tangles required")
    if branches[0] not in (0, 1) or branches[1] not in (0, 1):
        raise ValueError("branches must be two bits")
    t = complex(t)
    b_param = complex(b_param)
    s_traces = tuple(
        _tr(m2_mul(*bridge_representation(*spec, t)[0]))
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
    x1 = third(x4, x2, t, p1, p2, r124[branches[0]])
    x3 = third(x2, x4, t, p3, p4, r234[branches[1]])
    xs = (x1, x2, x3, x4)
    for i, m in enumerate(xs, start=1):
        if abs(_det(m) - 1) > 1e-9:
            raise ValueError(f"x{i}: determinant {_det(m)} is not 1")
        if abs(_tr(m) - t) > 1e-9:
            raise ValueError(f"x{i} trace {_tr(m)} is not t")
    data = TraceData(
        t=t,
        t12=_tr(_prod(x1, x2)),
        t23=_tr(_prod(x2, x3)),
        t34=_tr(_prod(x3, x4)),
        t41=_tr(_prod(x4, x1)),
        t24=_tr(_prod(x2, x4)),
        t13=_tr(_prod(x1, x3)),
        t123=_tr(_prod(x1, x2, x3)),
        t124=_tr(_prod(x1, x2, x4)),
        t134=_tr(_prod(x1, x3, x4)),
        t234=_tr(_prod(x2, x3, x4)),
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
    if abs(_tr(_prod(_inv(x2), x4)) - (t * t - b_param)) > 1e-9:
        raise ValueError("tr(x2^-1 x4) != t^2 - b")
    return ReprPoint(xs, data, (branches[0], branches[1]))

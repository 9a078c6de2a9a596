"""Trace calculus for unit-determinant 2x2 complex matrices.

Builds tuples of matrices with prescribed traces, two-bridge link
representations, and a one-parameter family of four-tuples, then
evaluates the classical (q^{1/2} = -1) shadows of the torsion
candidates on that family.  Everything is double precision; the
constructions are open conditions, so fixed tolerances suffice.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce
from itertools import zip_longest
from typing import List, Optional, Sequence, Tuple, Union

from .ring import Matrix2, m2_adj, m2_det, m2_mul, m2_trace

__all__ = [
    "EpsilonBasics",
    "EpsilonTorsion",
    "MAX_SLOPE_DENOMINATOR",
    "ReprPoint",
    "ScanRecord",
    "ScanReport",
    "TraceData",
    "bridge_representation",
    "build_X1_points",
    "check_slope",
    "epsilon_basics",
    "epsilon_torsion_elements",
    "fricke_f",
    "nonvanishing_scan",
    "pair_with_traces",
    "solve_t123",
    "zero_locus_roots",
]

Mat = Matrix2[complex]
Tangle = Union[complex, float, int, Tuple[int, int]]

_DEGENERATE_TOL = 1e-8
# one tolerance for the determinants and traces of a built four-tuple
_DET_TOL = 1e-9


def _mat(a, b, c, d) -> Mat:
    return ((complex(a), complex(b)), (complex(c), complex(d)))


def _check_det(m: Mat, label: str) -> Mat:
    if abs(m2_det(m) - 1) > _DET_TOL:
        raise ValueError(f"{label}: determinant {m2_det(m)} is not 1")
    return m


def fricke_f(r1: complex, r2: complex, r3: complex, r: complex, t: complex) -> complex:
    """Trace relation obeyed by any triple with all traces equal to t:
    plugging r_ij = tr(a_i a_j) and r = tr(a_1 a_2 a_3) gives zero."""
    return (
        r * r
        + t * (t * t - r1 - r2 - r3) * r
        + t * t * (3 - r1 - r2 - r3)
        + r1 * r1
        + r2 * r2
        + r3 * r3
        + r1 * r2 * r3
        - 4
    )


def _eigen_pair(t: complex) -> Tuple[complex, complex]:
    """(lam, s): the eigenvalue of trace t with |lam| >= 1, and the square
    root s of t^2 - 4 signed so that lam = (t + s)/2."""
    s = cmath.sqrt(t * t - 4)
    lam = (t + s) / 2
    if abs(lam) < 1:
        lam, s = (t - s) / 2, -s
    return lam, s


def pair_with_traces(t: complex, t12: complex) -> Tuple[Mat, Mat]:
    """Concrete pair (a1, a2), both of trace t, with tr(a1 a2) = t12.

    The pair is unique up to simultaneous conjugation; t12 in
    {2, t^2 - 2} is the reducible locus and is rejected.
    """
    t = complex(t)
    t12 = complex(t12)
    if abs(t - 2) < _DEGENERATE_TOL or abs(t + 2) < _DEGENERATE_TOL:
        raise ValueError("t = +-2 is degenerate (no unique eigenvalue pair)")
    if abs(t12 - 2) < _DEGENERATE_TOL or abs(t12 - (t * t - 2)) < _DEGENERATE_TOL:
        raise ValueError(f"t12 = {t12} lies on the reducible locus")
    lam, s = _eigen_pair(t)
    a1 = _mat(lam, 0, 0, 1 / lam)
    # a2 has unit upper-right entry; the diagonal solves the two traces
    a = (t12 - t / lam) / s
    d = t - a
    a2 = _mat(a, 1, a * d - 1, d)
    return _check_det(a1, "a1"), _check_det(a2, "a2")


def _quadratic_roots(a, b, c) -> Tuple[complex, complex]:
    """Both roots of a*r^2 + b*r + c, sorted by (real, imag); a double
    root is returned twice."""
    disc = cmath.sqrt(b * b - 4 * a * c)
    roots = ((-b - disc) / (2 * a), (-b + disc) / (2 * a))
    return tuple(sorted(roots, key=lambda z: (z.real, z.imag)))


def solve_t123(t12: complex, t13: complex, t23: complex, t: complex) -> Tuple[complex, complex]:
    """Both roots of the monic quadratic r -> fricke_f(t12, t13, t23, r, t);
    a double root is returned twice.  Roots are sorted by (real, imag)."""
    bb = t * (t * t - t12 - t13 - t23)
    cc = (
        t * t * (3 - t12 - t13 - t23)
        + t12 * t12
        + t13 * t13
        + t23 * t23
        + t12 * t13 * t23
        - 4
    )
    return _quadratic_roots(1, bb, cc)


def _solve(system, columns):
    """Gaussian elimination with partial pivoting: (x for each column c
    with system x = c, the product of the pivots, which is det system up
    to sign).  A zero pivot stops it with det 0 and no solutions."""
    n = len(system)
    rows = [[*row, *(c[i] for c in columns)] for i, row in enumerate(system)]
    det = 1
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[p] = rows[p], rows[k]
        det *= rows[k][k]
        if not det:
            return [], det
        for row in rows[k + 1:]:
            m = row[k] / rows[k][k]
            for j in range(k + 1, len(row)):
                row[j] -= m * rows[k][j]
    for k in reversed(range(n)):
        row = rows[k]
        for j in range(n, len(row)):
            row[j] = (row[j] - sum(row[i] * rows[i][j] for i in range(k + 1, n))) / row[k]
    return [[row[n + c] for row in rows] for c in range(len(columns))], det


# ---------------------------------------------------------------------------
# Two-bridge representations


class _Poly(tuple):
    """Complex polynomial in s, its coefficients from the constant term up:
    enough of a ring for m2_mul and m2_adj to build polynomial matrices."""

    def __add__(self, other):
        return _Poly(x + y for x, y in zip_longest(self, other, fillvalue=0))

    def __neg__(self):
        return _Poly(-x for x in self)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        out = [0j] * (len(self) + len(other) - 1)
        for i, x in enumerate(self):
            for j, y in enumerate(other):
                out[i + j] += x * y
        return _Poly(out)

    def __call__(self, z: complex) -> complex:
        value = 0j
        for c in reversed(self):
            value = value * z + c
        return value


def _roots(coeffs: Sequence[complex]) -> List[complex]:
    """All roots, with multiplicity, of a polynomial of degree >= 1 given
    constant term first: Aberth-Ehrlich iteration from a circle that holds
    every root, then a Newton polish (Bini, Numer. Algorithms 13, 1996)."""
    p = _Poly(c / coeffs[-1] for c in coeffs)
    dp = _Poly(k * c for k, c in enumerate(p) if k)
    n = len(p) - 1
    radius = 2 * max(abs(c) ** (1 / (n - k)) for k, c in enumerate(p[:-1])) or 1.0
    zs = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    for _ in range(200):
        old = list(zs)
        for k, z in enumerate(zs):
            if p(z):
                zs[k] = z - 1 / (dp(z) / p(z) - sum(1 / (z - w) for w in zs[:k] + zs[k + 1:]))
        if all(abs(z - w) <= 1e-15 * abs(w) for z, w in zip(zs, old)):
            break
    return [z - p(z) / dp(z) if dp(z) else z for z in zs]


# Largest slope denominator.  A two-bridge representation costs about b^2,
# 0.8 s of CPU per trace value at b = 150, and a default scan resolves 4
# tangles at each of 8 trace values: the maximum keeps it near 30 s.
MAX_SLOPE_DENOMINATOR = 150


def check_slope(a: int, b: int) -> None:
    """Reject a two-bridge slope a/b unless 2 < b <= MAX_SLOPE_DENOMINATOR
    and a/b is in lowest terms."""
    if b <= 2:
        raise ValueError("b > 2 required")
    if b > MAX_SLOPE_DENOMINATOR:
        raise ValueError(f"b <= {MAX_SLOPE_DENOMINATOR} required")
    if math.gcd(abs(a), b) != 1:
        raise ValueError("a/b must be in lowest terms")


def _relator(a: int, b: int, u, v) -> list:
    """Entries of W u - v W (odd b) or W v - v W (even b), for bridge_representation's W."""
    letters = ((u if i % 2 else v, i * a // b % 2) for i in range(1, b))
    word = reduce(m2_mul, (m2_adj(g) if odd else g for g, odd in letters))
    lhs, rhs = m2_mul(word, u if b % 2 else v), m2_mul(v, word)
    return [x - y for row, other in zip(lhs, rhs) for x, y in zip(row, other)]


def bridge_representation(a: int, b: int, t: complex) -> List[Tuple[Mat, Mat]]:
    """All irreducible two-generator representations of the two-bridge
    link of slope a/b sending both bridge meridians to trace-t elements.

    The two meridians u, v satisfy W u = v W for odd b (a knot) and
    W v = v W for even b (a two-component link), where W alternates
    u^{e_1} v^{e_2} u^{e_3} ... over b-1 letters with e_i = (-1)^floor(ia/b).
    That exponent rule needs an odd a, so an even a is replaced by a - b,
    which gives the same link.  Parametrizing v by s = tr(uv) turns the
    relator into polynomial conditions in s.  Their roots are taken by
    real part rounded to 9 decimals, then imaginary part: conjugate roots
    share a real part only up to rounding, so the first representation
    would otherwise depend on it.
    """
    check_slope(a, b)
    if a % 2 == 0:
        a -= b
    t = complex(t)
    if abs(t - 2) < _DEGENERATE_TOL or abs(t + 2) < _DEGENERATE_TOL:
        raise ValueError("t = +-2 is degenerate")
    lam, s_root = _eigen_pair(t)
    one, zero = _Poly([1]), _Poly([0])
    # v's diagonal is linear in s: upper-left (s - t/lam)/s_root
    a_poly = _Poly([-t / lam / s_root, 1 / s_root])
    d_poly = _Poly([t]) - a_poly
    u_poly = ((_Poly([lam]), zero), (zero, _Poly([1 / lam])))
    v_poly = ((a_poly, one), (a_poly * d_poly - one, d_poly))
    entries = _relator(a, b, u_poly, v_poly)

    def trimmed(p: tuple) -> tuple:
        scale = 1e-12 * max(1.0, max(map(abs, p)))
        while p and abs(p[-1]) < scale:
            p = p[:-1]
        return p

    lead = max((trimmed(p) for p in entries), key=len)
    if len(lead) == 0:
        raise ValueError("relator vanished identically; degenerate input")
    if len(lead) == 1:
        raise ValueError("no irreducible solution: non-generic t, retry")
    accepted: List[complex] = []
    out: List[Tuple[Mat, Mat]] = []
    for root in sorted(_roots(lead), key=lambda z: (round(z.real, 9), z.imag)):
        if any(abs(root - seen) < 1e-6 for seen in accepted):
            continue
        if max(abs(p(root)) for p in entries) > 1e-6:
            continue
        accepted.append(root)
        try:
            u, v = pair_with_traces(t, root)
        except ValueError:
            continue  # reducible locus
        if abs(m2_trace(u, v, m2_adj(u), m2_adj(v)) - 2) < 1e-6:
            continue
        if max(map(abs, _relator(a, b, u, v))) > 1e-6:
            continue
        out.append((u, v))
    if not out:
        raise ValueError("no irreducible solution: non-generic t, retry")
    return out


# ---------------------------------------------------------------------------
# The one-parameter family of four-tuples


@dataclass(frozen=True)
class TraceData:
    t: complex
    t12: complex
    t23: complex
    t34: complex
    t41: complex
    t24: complex
    t13: complex
    t123: complex
    t124: complex
    t134: complex
    t234: complex


@dataclass(frozen=True)
class ReprPoint:
    x: Tuple[Mat, Mat, Mat, Mat]
    data: TraceData
    branches: Tuple[int, int]


_BRANCHES = ((0, 0), (0, 1), (1, 0), (1, 1))


def _tangle_traces(tangles: Sequence[Tangle], t: complex) -> Tuple[complex, ...]:
    """The trace s_i of each of four tangles at trace t: a literal trace, or
    tr(uv) of a slope's first two-bridge representation.  A count other
    than four, or a trace on the reducible locus {2, t^2 - 2}, is raised."""
    if len(tangles) != 4:
        raise ValueError("exactly four tangles required")
    s_traces = tuple(
        m2_trace(*bridge_representation(*spec, t)[0]) if isinstance(spec, tuple) else complex(spec)
        for spec in tangles
    )
    for s_val in s_traces:
        if abs(s_val - 2) < _DEGENERATE_TOL or abs(s_val - (t * t - 2)) < _DEGENERATE_TOL:
            raise ValueError(f"tangle trace {s_val} lies on the reducible locus")
    return s_traces


def _off(*pairs) -> bool:
    """Whether some (got, want) pair differs by more than _DET_TOL."""
    return any(abs(got - want) > _DET_TOL for got, want in pairs)


def build_X1_points(
    tangles: Sequence[Tangle],
    t: complex,
    b_param: complex,
) -> List[Optional[ReprPoint]]:
    """Four trace-t matrices x1..x4 with tr(x_{i-1} x_i) = t^2 - s_i and
    tr(x2 x4) = b_param for each branch of `_BRANCHES` (bits picking the
    quadratic root for x1 and x3), in order: its ReprPoint, or None where
    a determinant or trace misses its target by more than _DET_TOL.  The
    tangles are as in `_tangle_traces`.  The branches share x2, x4, their
    four checks, the t123 roots and both trace systems; each root's matrix
    is solved, checked and traced once.  A shared failure is raised."""
    t = complex(t)
    b_param = complex(b_param)
    # pairwise targets tr(x_{i-1} x_i) = t^2 - s_i
    p1, p2, p3, p4 = (t * t - s_val for s_val in _tangle_traces(tangles, t))
    x2, x4 = pair_with_traces(t, b_param)
    r124 = solve_t123(b_param, p1, p2, t)
    r234 = solve_t123(b_param, p3, p4, t)
    for lo, hi in (r124, r234):
        if abs(lo - hi) < 1e-9:
            raise ValueError("non-generic b_param: vanishing discriminant")
    t24 = m2_trace(x2, x4)
    tr2, tr4, t_inv = m2_trace(x2), m2_trace(x4), m2_trace(m2_adj(x2), x4)
    if _off((tr2, t), (tr4, t), (t24, b_param), (t_inv, t * t - b_param)):
        return [None] * 4

    def first(x1):
        # tr(x4 x1) = p1, tr(x1 x2) = p2: x1 with x1 x2 and its traces
        x12 = m2_mul(x1, x2)
        t41, t12 = m2_trace(x4, x1), m2_trace(x12)
        if _off((m2_det(x1), 1), (m2_trace(x1), t), (t41, p1), (t12, p2)):
            return None
        return x1, x12, t41, t12, m2_trace(x12, x4)

    def third(x3):
        # tr(x2 x3) = p3, tr(x3 x4) = p4: x3 with its traces
        x23 = m2_mul(x2, x3)
        t23, t34 = m2_trace(x23), m2_trace(x3, x4)
        if _off((m2_det(x3), 1), (m2_trace(x3), t), (t23, p3), (t34, p4)):
            return None
        return x3, t23, t34, m2_trace(x23, x4)

    # the pair for x1 is (x4, x2), for x3 (x2, x4); a singular system's None stays
    ones = [x1 and first(x1) for x1 in _thirds((x4, x2), t, p1, p2, r124)]
    threes = [x3 and third(x3) for x3 in _thirds((x2, x4), t, p3, p4, r234)]
    out: List[Optional[ReprPoint]] = []
    for b0, b1 in _BRANCHES:
        if ones[b0] is None or threes[b1] is None:
            out.append(None)
            continue
        (x1, x12, t41, t12, t124), (x3, t23, t34, t234) = ones[b0], threes[b1]
        x13 = m2_mul(x1, x3)
        data = TraceData(
            t, t12, t23, t34, t41, t24,
            m2_trace(x13), m2_trace(x12, x3), t124, m2_trace(x13, x4), t234,
        )
        out.append(ReprPoint((x1, x2, x3, x4), data, (b0, b1)))
    return out


def _thirds(pair, t, t13, t23, roots):
    """Per root r, a3 = alpha*I + beta*a1 + gamma*a2 + delta*a1a2 for the
    pair (a1, a2), with tr(a3) = t, tr(a1 a3) = t13, tr(a2 a3) = t23 and
    tr(a1 a2 a3) = r, from one solve of the basis' symmetric trace system;
    a singular system gives None for every root.  det a3 = 1 exactly when
    r satisfies fricke_f, which the caller checks."""
    basis = (_mat(1, 0, 0, 1), *pair, m2_mul(*pair))
    upper = {(i, j): m2_trace(basis[i], basis[j]) for i in range(4) for j in range(i, 4)}
    system = [[upper[min(i, j), max(i, j)] for j in range(4)] for i in range(4)]
    solutions, det = _solve(system, [(t, t13, t23, r) for r in roots])
    if abs(det) < 1e-6:
        return [None] * len(roots)
    return [
        tuple(
            tuple(sum(c * m[i][j] for c, m in zip(coeffs, basis)) for j in (0, 1))
            for i in (0, 1)
        )
        for coeffs in solutions
    ]


# ---------------------------------------------------------------------------
# Classical evaluations


@dataclass(frozen=True)
class EpsilonBasics:
    eps_t: complex
    eps_l: Tuple[complex, complex, complex, complex]
    eps_u: Tuple[complex, complex, complex, complex]
    eps_x: complex


def _hole_traces(d: TraceData) -> Tuple[Tuple[complex, complex, complex, complex], ...]:
    """Per hole i: (tr x_{i-1}x_i, tr x_i x_{i+1}, tr x_{i-1}x_{i+1},
    tr x_{i-1}x_i x_{i+1}), read off the stored traces by the symmetry and
    cyclicity of the trace."""
    return (
        (d.t41, d.t12, d.t24, d.t124),
        (d.t12, d.t23, d.t13, d.t123),
        (d.t23, d.t34, d.t24, d.t234),
        (d.t34, d.t41, d.t13, d.t134),
    )


def epsilon_basics(p: ReprPoint) -> EpsilonBasics:
    """Classical values of the meridian, the band curves, and the wide curve.

    The curve through holes 2 and 4 evaluates to t24 - t^2; each band
    formula is a polynomial in the stored traces.
    """
    t = p.data.t
    table = _hole_traces(p.data)
    return EpsilonBasics(
        eps_t=-t,
        eps_l=tuple(t * (right + left - t * t) - triple for left, right, _, triple in table),
        eps_u=tuple(-t * wide + triple for _, _, wide, triple in table),
        eps_x=p.data.t24 - t * t,
    )


@dataclass(frozen=True)
class EpsilonTorsion:
    eps_e: complex
    eps_e_family: Tuple[complex, complex, complex, complex]
    eps_et_family: Tuple[complex, complex, complex, complex]
    eps_x: complex


def epsilon_torsion_elements(p: ReprPoint) -> EpsilonTorsion:
    """Classical values of the eight quadratic torsion candidates, and
    eps(x) for the ladder 2*eps(e)*gamma_n(eps(x)).

    diff(i) below is the common value eps(u_i) - eps(l_i)
    = eps(l'_i) - eps(l_i) = eps(u_i) - eps(u'_i).
    """
    basics = epsilon_basics(p)
    diff = [u - l for u, l in zip(basics.eps_u, basics.eps_l)]
    e_family = tuple(diff[(k + 2) % 4] * (-diff[k]) for k in range(4))
    et_family = tuple(diff[(k + 2) % 4] * diff[k] for k in range(4))
    return EpsilonTorsion(e_family[0], e_family, et_family, basics.eps_x)


def zero_locus_roots(t: complex, c1: complex, c2: complex) -> Tuple[complex, complex]:
    """Roots, in the tr(x2 x4) coordinate, of the quadratic forced by the
    vanishing of a band difference whose two constant pair traces are
    c1 and c2."""
    csum = c1 + c2
    a2 = t * t / 4 - 1
    a1 = t * t * (csum - t * t) / 2 + t * t - c1 * c2
    a0 = (
        t * t * (csum - t * t) ** 2 / 4
        + t * t * (csum - 3)
        - c1 * c1
        - c2 * c2
        + 4
    )
    return _quadratic_roots(a2, a1, a0)


# ---------------------------------------------------------------------------
# Scanning


_FAMILY_LABELS = tuple(
    f"{kind}{i}" for kind in ("e", "etilde") for i in range(1, 5)
)


@dataclass(frozen=True)
class ScanRecord:
    b: complex
    built: int  # how many of the 4 branches were constructible
    eps_e: complex  # from the first constructible branch
    eps_e_min_abs: float  # smallest |eps(e)| over the built branches


@dataclass(frozen=True)
class ScanReport:
    """Scan summary.

    ``sibling_fractions`` maps each of the eight candidate labels to the
    per-branch fraction of grid points where it stays above 1e-6 (branch
    order ``_BRANCHES``).  A fraction of exactly 0.0 exposes a component
    on which that candidate vanishes identically; such components exist
    for the even-indexed candidates when all four tangles carry the same
    trace data.
    """

    records: Tuple[ScanRecord, ...]
    quad_roots: Tuple[complex, ...]
    nonvanish_fraction: float
    sibling_fractions: Tuple[Tuple[str, Tuple[float, float, float, float]], ...]

    def render(self) -> str:
        return "\n".join(
            f"b={_fmt(rec.b)} eps_e={_fmt(rec.eps_e)}" for rec in self.records
        )


def _fmt(z: complex) -> str:
    z = complex(z)
    if abs(z.imag) < 1e-12:
        return f"{z.real:.9g}"
    return f"({z.real:.9g}{z.imag:+.9g}j)"


def nonvanishing_scan(
    tangles: Sequence[Tangle],
    t: complex,
    b_grid: Sequence[complex],
) -> ScanReport:
    """Evaluate the eight torsion candidates over a grid of tr(x2 x4)
    values, across all four branches.

    Raises if the grid is smaller than 32 or if every point vanishes
    (which would mean a misconfigured family, not a generic one).
    """
    if len(b_grid) < 32:
        raise ValueError("grid size >= 32 required")
    t = complex(t)
    s_traces = _tangle_traces(tangles, t)
    records: List[ScanRecord] = []
    nonvanishing = 0
    any_nonzero = False
    quad_roots: Tuple[complex, ...] = ()
    sibling_hits = {
        label: [0, 0, 0, 0] for label in _FAMILY_LABELS
    }
    branch_built = [0, 0, 0, 0]
    for b_val in b_grid:
        built = 0
        eps_e_first: complex = complex("nan")
        eps_e_min = math.inf
        try:
            points = build_X1_points(s_traces, t, b_val)
        except ValueError:
            points = []
        for branch_idx, point in enumerate(points):
            if point is None:
                continue
            if not quad_roots:
                d = point.data
                quad_roots = zero_locus_roots(
                    t, d.t12, d.t41
                ) + zero_locus_roots(t, d.t23, d.t34)
            built += 1
            branch_built[branch_idx] += 1
            tor = epsilon_torsion_elements(point)
            if built == 1:
                eps_e_first = tor.eps_e
            eps_e_min = min(eps_e_min, abs(tor.eps_e))
            family = tor.eps_e_family + tor.eps_et_family
            for label, value in zip(_FAMILY_LABELS, family):
                if abs(value) > 1e-6:
                    sibling_hits[label][branch_idx] += 1
            any_nonzero = any_nonzero or abs(tor.eps_e) > 1e-6
        if built and eps_e_min > 1e-6:
            nonvanishing += 1
        records.append(
            ScanRecord(
                complex(b_val),
                built,
                eps_e_first,
                float(eps_e_min) if built else math.inf,
            )
        )
    if not any_nonzero:
        raise ValueError("every grid point vanished: misconfigured family")
    fraction = nonvanishing / len(b_grid)
    sibling_fractions = tuple(
        (
            label,
            tuple(
                hits[k] / branch_built[k] if branch_built[k] else 0.0
                for k in range(4)
            ),
        )
        for label, hits in sibling_hits.items()
    )
    return ScanReport(tuple(records), quad_roots, fraction, sibling_fractions)

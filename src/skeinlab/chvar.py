"""Trace calculus for unit-determinant 2x2 complex matrices.

Builds tuples of matrices with prescribed traces, two-bridge link
representations, and a one-parameter family of four-tuples, then
evaluates the classical (q^{1/2} = -1) shadows of the torsion
candidates on that family.  Everything is double precision; the
constructions are open conditions, so fixed tolerances suffice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "EpsilonBasics",
    "EpsilonTorsion",
    "ReprPoint",
    "ScanRecord",
    "ScanReport",
    "TraceData",
    "bridge_representation",
    "build_X1_point",
    "build_X1_points",
    "check_slope",
    "conjugator",
    "epsilon_basics",
    "epsilon_torsion_elements",
    "fricke_f",
    "nonvanishing_scan",
    "pair_with_traces",
    "solve_t123",
    "third_with_traces",
    "zero_locus_roots",
]

Mat = np.ndarray
Tangle = Union[complex, float, int, Tuple[int, int]]

_DEGENERATE_TOL = 1e-8
_DET_TOL = 1e-9


def _mat(a, b, c, d) -> Mat:
    return np.array([[a, b], [c, d]], dtype=complex)

def _tr(m: Mat) -> complex:
    return complex(m[0, 0] + m[1, 1])


def _det(m: Mat) -> complex:
    return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def _inv(m: Mat) -> Mat:
    # adjugate; valid because every constructed element has det 1
    return _mat(m[1, 1], -m[0, 1], -m[1, 0], m[0, 0])


def _check_det(m: Mat, label: str) -> Mat:
    if abs(_det(m) - 1) > _DET_TOL:
        raise ValueError(f"{label}: determinant {_det(m)} is not 1")
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
    s = np.sqrt(complex(t * t - 4))
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
    disc = np.sqrt(complex(b * b - 4 * a * c))
    roots = sorted(
        ((-b - disc) / (2 * a), (-b + disc) / (2 * a)),
        key=lambda z: (z.real, z.imag),
    )
    return complex(roots[0]), complex(roots[1])


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


def third_with_traces(
    a1: Mat,
    a2: Mat,
    t: complex,
    t13: complex,
    t23: complex,
    t123: complex,
) -> Mat:
    """The matrix a3 = alpha*I + beta*a1 + gamma*a2 + delta*a1a2 meeting
    tr(a3) = t, tr(a1 a3) = t13, tr(a2 a3) = t23, tr(a1 a2 a3) = t123.

    Unit determinant of the result is equivalent to t123 satisfying the
    fricke_f constraint; a failure beyond 1e-6 is reported as such.
    """
    return _solve_third(_trace_system(a1, a2), t, t13, t23, t123)


def _trace_system(a1: Mat, a2: Mat) -> Tuple[Tuple[Mat, ...], Mat]:
    """The basis (I, a1, a2, a1 a2) and its matrix of pairwise traces."""
    basis = (np.eye(2, dtype=complex), a1, a2, a1 @ a2)
    system = np.array(
        [[_tr(p @ b) for b in basis] for p in basis], dtype=complex
    )
    if abs(np.linalg.det(system)) < 1e-6:
        raise ValueError("singular trace system (reducible input pair)")
    return basis, system


def _solve_third(trace_system, t, t13, t23, t123) -> Mat:
    basis, system = trace_system
    rhs = np.array([t, t13, t23, t123], dtype=complex)
    coeffs = np.linalg.solve(system, rhs)
    a3 = sum(c * b for c, b in zip(coeffs, basis))
    det = _det(a3)
    if abs(det - 1) > 1e-6:
        raise ValueError(
            f"determinant {det} is not 1: t123 violates the trace relation"
        )
    return a3


def _commutator_trace(u: Mat, v: Mat) -> complex:
    return _tr(u @ v @ _inv(u) @ _inv(v))


def conjugator(u: Mat, v: Mat, x: Mat, y: Mat) -> Mat:
    """Unit-determinant c with c u c^-1 = x and c v c^-1 = y.

    Exists and is unique up to sign for irreducible pairs whose trace
    triples (tr u, tr v, tr uv) and (tr x, tr y, tr xy) agree.
    """
    for got, want, label in (
        (_tr(u), _tr(x), "tr(first)"),
        (_tr(v), _tr(y), "tr(second)"),
        (_tr(u @ v), _tr(x @ y), "tr(product)"),
    ):
        if abs(got - want) > 1e-8:
            raise ValueError(f"{label} mismatch: {got} vs {want}")
    if abs(_commutator_trace(u, v) - 2) < 1e-8:
        raise ValueError("reducible pair: conjugator not unique")
    # c u - x c = 0 and c v - y c = 0: linear in the 4 entries of c.
    rows = []
    for m, w in ((u, x), (v, y)):
        # entry (i,j) of c m - w c
        for i in range(2):
            for j in range(2):
                row = np.zeros(4, dtype=complex)
                for k in range(2):
                    row[2 * i + k] += m[k, j]
                    row[2 * k + j] -= w[i, k]
                rows.append(row)
    system = np.array(rows)
    _, sing, vh = np.linalg.svd(system)
    if sing[-2] < 1e-8:
        raise ValueError("conjugation system has a degenerate kernel")
    # right singular vectors are the conjugated rows of vh
    c = vh[-1].conj().reshape(2, 2)
    det = _det(c)
    if abs(det) < 1e-12:
        raise ValueError("conjugator degenerates to a singular matrix")
    c = c / np.sqrt(det)
    residual = max(
        float(np.max(np.abs(c @ u @ _inv(c) - x))),
        float(np.max(np.abs(c @ v @ _inv(c) - y))),
    )
    if residual > 1e-7:
        raise ValueError(f"conjugation residual {residual} too large")
    return _check_det(c, "conjugator")


# ---------------------------------------------------------------------------
# Two-bridge representations


def _poly_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.convolve(p, q)


def _poly_add(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    n = max(len(p), len(q))
    out = np.zeros(n, dtype=complex)
    out[: len(p)] += p
    out[: len(q)] += q
    return out


def _pm_mul(a, b):
    return [
        [
            _poly_add(_poly_mul(a[i][0], b[0][j]), _poly_mul(a[i][1], b[1][j]))
            for j in range(2)
        ]
        for i in range(2)
    ]


def _pm_adjugate(a):
    # inverse of a unit-determinant matrix with polynomial entries
    neg = lambda p: -p
    return [[a[1][1], neg(a[0][1])], [neg(a[1][0]), a[0][0]]]


def check_slope(a: int, b: int) -> None:
    """Reject a two-bridge slope a/b unless b > 2 and a/b is in lowest terms."""
    if b <= 2:
        raise ValueError("b > 2 required")
    if math.gcd(abs(a), b) != 1:
        raise ValueError("a/b must be in lowest terms")


def bridge_representation(a: int, b: int, t: complex) -> List[Tuple[Mat, Mat]]:
    """All irreducible two-generator representations of the two-bridge
    link of slope a/b sending both bridge meridians to trace-t elements.

    The two meridians u, v satisfy W u = v W where W alternates
    u^{e_1} v^{e_2} u^{e_3} ... over b-1 letters with e_i = (-1)^floor(ia/b).
    That exponent rule needs an odd a, so an even a is replaced by a - b,
    which gives the same link.  Parametrizing v by s = tr(uv) turns the
    relator into polynomial conditions in s, solved by companion-matrix
    root-finding.
    """
    check_slope(a, b)
    if a % 2 == 0:
        a -= b
    t = complex(t)
    if abs(t - 2) < _DEGENERATE_TOL or abs(t + 2) < _DEGENERATE_TOL:
        raise ValueError("t = +-2 is degenerate")
    lam, s_root = _eigen_pair(t)
    one = np.array([1], dtype=complex)
    zero = np.array([0], dtype=complex)
    g1 = [
        [np.array([lam], dtype=complex), zero],
        [zero, np.array([1 / lam], dtype=complex)],
    ]
    # v's diagonal is linear in s: upper-left (s - t/lam)/s_root
    a_poly = np.array([-t / lam / s_root, 1 / s_root], dtype=complex)
    d_poly = _poly_add(np.array([t], dtype=complex), -a_poly)
    g2 = [
        [a_poly, one],
        [_poly_add(_poly_mul(a_poly, d_poly), -one), d_poly],
    ]
    word = [[one, zero], [zero, one]]
    for i in range(1, b):
        gen = g1 if i % 2 == 1 else g2
        if (-1) ** math.floor(i * a / b) < 0:
            gen = _pm_adjugate(gen)
        word = _pm_mul(word, gen)
    lhs = _pm_mul(word, g1)
    rhs = _pm_mul(g2, word)
    entries = [
        _poly_add(lhs[i][j], -rhs[i][j]) for i in range(2) for j in range(2)
    ]

    def trimmed(p: np.ndarray) -> np.ndarray:
        scale = max(1.0, float(np.max(np.abs(p))))
        k = len(p)
        while k > 0 and abs(p[k - 1]) < 1e-12 * scale:
            k -= 1
        return p[:k]

    candidates = sorted((trimmed(p) for p in entries), key=len, reverse=True)
    lead = candidates[0]
    if len(lead) == 0:
        raise ValueError("relator vanished identically; degenerate input")
    if len(lead) == 1:
        raise ValueError("no irreducible solution: non-generic t, retry")
    roots = np.roots(lead[::-1])
    accepted: List[complex] = []
    for root in sorted(map(complex, roots), key=lambda z: (z.real, z.imag)):
        if any(abs(root - seen) < 1e-6 for seen in accepted):
            continue
        if max(abs(np.polyval(p[::-1], root)) for p in entries) > 1e-6:
            continue
        accepted.append(root)
    out: List[Tuple[Mat, Mat]] = []
    for s_val in accepted:
        try:
            u, v = pair_with_traces(t, s_val)
        except ValueError:
            continue  # reducible locus
        if abs(_commutator_trace(u, v) - 2) < 1e-6:
            continue
        word_num = np.eye(2, dtype=complex)
        for i in range(1, b):
            gen = u if i % 2 == 1 else v
            if (-1) ** math.floor(i * a / b) < 0:
                gen = _inv(gen)
            word_num = word_num @ gen
        if np.max(np.abs(word_num @ u - v @ word_num)) > 1e-6:
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


def _resolve_tangle(spec: Tangle, t: complex) -> complex:
    if isinstance(spec, tuple):
        a, b = spec
        u, v = bridge_representation(a, b, t)[0]
        return _tr(u @ v)
    return complex(spec)


def build_X1_point(
    tangles: Sequence[Tangle],
    t: complex,
    b_param: complex,
    branches: Tuple[int, int] = (0, 0),
) -> ReprPoint:
    """Four trace-t matrices x1..x4 with tr(x_{i-1} x_i) = t^2 - s_i and
    tr(x2 x4) = b_param; `branches` picks the quadratic root for x1 and x3.

    Each tangle is given either as a prescribed trace s_i or as a slope
    pair (a, b), in which case s_i comes from the first two-bridge
    representation at this t.
    """
    (point,) = build_X1_points(tangles, t, b_param, (branches,))
    if isinstance(point, ValueError):
        raise point
    return point


def build_X1_points(
    tangles: Sequence[Tangle],
    t: complex,
    b_param: complex,
    branches: Sequence[Tuple[int, int]] = _BRANCHES,
) -> List[Union[ReprPoint, ValueError]]:
    """build_X1_point for each of `branches`, in order: its ReprPoint, or
    the ValueError that branch raises.  The branches share x2, x4, the t123
    roots and both trace systems; each root is solved, and each trace that
    depends on one branch bit taken, once.  A shared failure is raised."""
    if len(tangles) != 4:
        raise ValueError("exactly four tangles required")
    if any(b0 not in (0, 1) or b1 not in (0, 1) for b0, b1 in branches):
        raise ValueError("branches must be two bits")
    t = complex(t)
    b_param = complex(b_param)
    s_traces = tuple(_resolve_tangle(spec, t) for spec in tangles)
    for s_val in s_traces:
        if (
            abs(s_val - 2) < _DEGENERATE_TOL
            or abs(s_val - (t * t - 2)) < _DEGENERATE_TOL
        ):
            raise ValueError(f"tangle trace {s_val} lies on the reducible locus")
    # pairwise targets tr(x_{i-1} x_i) = t^2 - s_i
    p1, p2, p3, p4 = (t * t - s_val for s_val in s_traces)
    x2, x4 = pair_with_traces(t, b_param)
    r124 = solve_t123(b_param, p1, p2, t)
    r234 = solve_t123(b_param, p3, p4, t)
    for lo, hi in (r124, r234):
        if abs(lo - hi) < 1e-9:
            raise ValueError("non-generic b_param: vanishing discriminant")
    # x1: tr(x4 x1) = p1, tr(x2 x1) = p2 (the pair here is (x4, x2))
    x1s = _thirds((x4, x2), t, p1, p2, r124, {b0 for b0, _ in branches})
    # x3: tr(x2 x3) = p3, tr(x4 x3) = p4
    x3s = _thirds((x2, x4), t, p3, p4, r234, {b1 for _, b1 in branches})
    # Per bit, the checks and traces of x1 (ones) and x3 (threes), each product
    # as in a branch built alone; pair_with_traces checked det x2 and det x4.
    ones, threes = {}, {}
    for bit, x1 in x1s.items():
        if not isinstance(x1, ValueError):
            x12 = x1 @ x2
            ones[bit] = (x12, _det(x1), _tr(x1), _tr(x4 @ x1), _tr(x12), _tr(x12 @ x4))
    for bit, x3 in x3s.items():
        if not isinstance(x3, ValueError):
            x23 = x2 @ x3
            threes[bit] = (_det(x3), _tr(x3), _tr(x23), _tr(x3 @ x4), _tr(x23 @ x4))
    tr2, tr4, t24, t_inv = _tr(x2), _tr(x4), _tr(x2 @ x4), _tr(_inv(x2) @ x4)
    out: List[Union[ReprPoint, ValueError]] = []
    for b0, b1 in branches:
        x1, x3 = x1s[b0], x3s[b1]
        if isinstance(x1, ValueError) or isinstance(x3, ValueError):
            out.append(x1 if isinstance(x1, ValueError) else x3)
            continue
        x12, det1, tr1, t41, t12, t124 = ones[b0]
        det3, tr3, t23, t34, t234 = threes[b1]
        # in a lone branch's order, so each branch reports the failure it would alone
        checks = (
            (det1, 1, "x1: determinant {} is not 1"),
            (tr1, t, "x1 trace {} is not t"),
            (tr2, t, "x2 trace {} is not t"),
            (det3, 1, "x3: determinant {} is not 1"),
            (tr3, t, "x3 trace {} is not t"),
            (tr4, t, "x4 trace {} is not t"),
            (t41, p1, "tr(x4 x1) = {}, wanted {}"),
            (t12, p2, "tr(x1 x2) = {}, wanted {}"),
            (t23, p3, "tr(x2 x3) = {}, wanted {}"),
            (t34, p4, "tr(x3 x4) = {}, wanted {}"),
            (t24, b_param, "tr(x2 x4) = {}, wanted {}"),
            (t_inv, t * t - b_param, "tr(x2^-1 x4) != t^2 - b"),
        )
        failed = [
            text.format(got, want) for got, want, text in checks if abs(got - want) > 1e-9
        ]
        if failed:
            out.append(ValueError(failed[0]))
            continue
        x13 = x1 @ x3
        data = TraceData(
            t, t12, t23, t34, t41, t24, _tr(x13), _tr(x12 @ x3), t124, _tr(x13 @ x4), t234
        )
        out.append(ReprPoint((x1, x2, x3, x4), data, (b0, b1)))
    return out


def _thirds(pair, t, t13, t23, roots, bits):
    """{bit: third_with_traces(*pair, t, t13, t23, roots[bit]), or the
    ValueError it raises}, over one trace system."""
    try:
        trace_system = _trace_system(*pair)
    except ValueError as exc:
        return dict.fromkeys(bits, exc)
    out = {}
    for bit in bits:
        try:
            out[bit] = _solve_third(trace_system, t, t13, t23, roots[bit])
        except ValueError as exc:
            out[bit] = exc
    return out


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
    s_traces = tuple(_resolve_tangle(spec, t) for spec in tangles)
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
            if isinstance(point, ValueError):
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

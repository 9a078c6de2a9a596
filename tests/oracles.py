"""Brute-force reference implementations used to cross-check the skein engine.

Everything here recomputes state sums from scratch: smoothings are
performed by literal polyline surgery (cutting each strand short of the
crossing and joining the stubs with chords), loops are classified by
counting signed crossings of an upward ray from each hole, and the
smoothing partner at a crossing is chosen with floating-point angles.
The engine uses ports/arcs, exact rightward-ray windings, and cross
products instead, so agreement is meaningful.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from skeinlab.ring import Laurent
from skeinlab.skein import Board, Diagram, Multicurve

Point = Tuple[Fraction, Fraction]
MatC = Tuple[Tuple[complex, complex], Tuple[complex, complex]]

_MINUS_ALPHA = Laurent({2: -1, -2: -1})


# ---------------------------------------------------------------------------
# Surgery: cut every strand short of its crossings, rejoin per state.


def _point_at(poly: Sequence[Point], g: Fraction) -> Point:
    s = int(g)
    t = g - s
    a, b = poly[s], poly[(s + 1) % len(poly)]
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


class _Passage:
    def __init__(self, poly: Sequence[Point], g: Fraction, key: Tuple[int, int]):
        self.g = g
        self.key = key  # (crossing index, branch index)
        self.entry: Point = (Fraction(0), Fraction(0))
        self.exit: Point = (Fraction(0), Fraction(0))

    def place_cuts(self, poly: Sequence[Point], gap_prev: Fraction, gap_next: Fraction) -> None:
        s = int(self.g)
        t = self.g - s
        a, b = poly[s], poly[(s + 1) % len(poly)]
        span = max(abs(b[0] - a[0]), abs(b[1] - a[1]), Fraction(1))
        delta = min(t / 2, (1 - t) / 2, gap_prev / 3, gap_next / 3, Fraction(1, 16) / span)
        self.entry = _point_at(poly, self.g - delta)
        self.exit = _point_at(poly, self.g + delta)


class _Surgery:
    """All state-independent data for one diagram."""

    def __init__(self, d: Diagram):
        self.d = d
        self.free_loops: List[List[Point]] = []
        self.pieces: List[Tuple[List[Point], Tuple[int, int], Tuple[int, int]]] = []
        self.start_piece: Dict[Tuple[int, int], int] = {}
        self.end_piece: Dict[Tuple[int, int], int] = {}
        per_poly: List[List[_Passage]] = [[] for _ in d.polylines]
        for k, crossing in enumerate(d.crossings):
            for b, (pi, seg, t) in enumerate(crossing.branches):
                per_poly[pi].append(_Passage(d.polylines[pi], seg + t, (k, b)))
        for pi, passages in enumerate(per_poly):
            poly = d.polylines[pi]
            if not passages:
                self.free_loops.append(list(poly))
                continue
            passages.sort(key=lambda p: p.g)
            n = len(poly)
            count = len(passages)
            for i, ps in enumerate(passages):
                gp = (ps.g - passages[(i - 1) % count].g) % n or Fraction(n)
                gn = (passages[(i + 1) % count].g - ps.g) % n or Fraction(n)
                ps.place_cuts(poly, gp, gn)
            for i, ps in enumerate(passages):
                nxt = passages[(i + 1) % count]
                dist = (nxt.g - ps.g) % n or Fraction(n)
                pts = [ps.exit]
                pts.extend(poly[v % n] for v in range(int(ps.g) + 1, int(ps.g + dist) + 1))
                pts.append(nxt.entry)
                self.start_piece[ps.key] = len(self.pieces)
                self.end_piece[nxt.key] = len(self.pieces)
                self.pieces.append((pts, ps.key, nxt.key))
        self.cut_point: Dict[Tuple[int, int, str], Point] = {}
        for passages in per_poly:
            for ps in passages:
                self.cut_point[ps.key + ("E",)] = ps.entry
                self.cut_point[ps.key + ("X",)] = ps.exit
        self.chords = [self._chords_at(k) for k in range(len(d.crossings))]

    def _chords_at(self, k: int):
        """The two smoothings as pairings of cut-end labels.

        The h-smoothing joins each over-strand end to the under-strand
        end that comes first when sweeping clockwise from it; resolved
        here with plain atan2 on the actual cut-point geometry.
        """
        crossing = self.d.crossings[k]
        p = crossing.point
        ob = crossing.over_branch
        ub = 1 - ob

        def angle(b: int, side: str) -> float:
            q = self.cut_point[(k, b, side)]
            return math.atan2(float(q[1] - p[1]), float(q[0] - p[0]))

        a_pairs = []
        taken = []
        for side_o in ("E", "X"):
            ao = angle(ob, side_o)
            best: Optional[Tuple[float, str]] = None
            for side_u in ("E", "X"):
                gap = (ao - angle(ub, side_u)) % (2 * math.pi)
                if best is None or gap < best[0]:
                    best = (gap, side_u)
            assert best is not None
            a_pairs.append(((k, ob, side_o), (k, ub, best[1])))
            taken.append(best[1])
        assert taken[0] != taken[1], "degenerate smoothing angles"
        b_pairs = [
            ((k, ob, "E"), (k, ub, taken[1])),
            ((k, ob, "X"), (k, ub, taken[0])),
        ]
        return a_pairs, b_pairs

    def state_loops(self, state: int) -> List[List[Point]]:
        partner: Dict[Tuple[int, int, str], Tuple[int, int, str]] = {}
        for k, (a_pairs, b_pairs) in enumerate(self.chords):
            for p1, p2 in (b_pairs if (state >> k) & 1 else a_pairs):
                partner[p1] = p2
                partner[p2] = p1
        loops = [list(lp) for lp in self.free_loops]
        visited = [False] * len(self.pieces)
        for i0 in range(len(self.pieces)):
            if visited[i0]:
                continue
            pts: List[Point] = []
            pi, forward = i0, True
            while True:
                visited[pi] = True
                body, start_key, end_key = self.pieces[pi]
                pts.extend(body if forward else reversed(body))
                tail = end_key + ("E",) if forward else start_key + ("X",)
                k2, b2, side2 = partner[tail]
                if side2 == "X":
                    pj, fwd = self.start_piece[(k2, b2)], True
                else:
                    pj, fwd = self.end_piece[(k2, b2)], False
                if pj == i0 and fwd:
                    break
                pi, forward = pj, fwd
            loops.append(pts)
        return loops


# ---------------------------------------------------------------------------
# Loop invariants via signed crossings of the upward ray at each hole.


def loop_letters(loop: Sequence[Point], n_holes: int) -> List[Tuple[int, int]]:
    """Ordered (hole, sign) letters: +1 when the loop crosses the upward
    ray from the hole heading west (counterclockwise), -1 heading east."""
    letters: List[Tuple[int, int]] = []
    m = len(loop)
    for j in range(m):
        x1, y1 = loop[j]
        x2, y2 = loop[(j + 1) % m]
        if x1 == x2:
            continue
        east = x2 > x1
        lo, hi = (x1, x2) if east else (x2, x1)
        cols = [i for i in range(1, n_holes + 1) if lo <= i < hi]
        if not east:
            cols.reverse()
        for i in cols:
            y_cross = y1 + (y2 - y1) * (i - x1) / (x2 - x1)
            if y_cross > 0:
                letters.append((i, -1 if east else 1))
    return letters


def loop_windings(loop: Sequence[Point], n_holes: int) -> List[int]:
    w = [0] * n_holes
    for hole, sign in loop_letters(loop, n_holes):
        w[hole - 1] += sign
    return w


def _inv(m: MatC) -> MatC:
    # unit determinant
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def _mul(a: MatC, b: MatC) -> MatC:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def loop_trace(loop: Sequence[Point], mats: Sequence[MatC]) -> complex:
    # Function-application composition: a later letter multiplies on the
    # left, so a band crossing the rays westward over holes k..1 evaluates
    # to the ascending product m1*...*mk.
    prod: MatC = ((1, 0), (0, 1))
    for hole, sign in loop_letters(loop, len(mats)):
        m = mats[hole - 1]
        prod = _mul(m if sign > 0 else _inv(m), prod)
    return prod[0][0] + prod[1][1]


# ---------------------------------------------------------------------------
# Reference state sums.


def naive_resolve(d: Diagram) -> Dict[Multicurve, Laurent]:
    """All-states smoothing sum, classifying loops by enclosed hole set."""
    surgery = _Surgery(d)
    n = d.board.n_holes
    c = len(d.crossings)
    out: Dict[Multicurve, Laurent] = {}
    for state in range(1 << c):
        b_count = bin(state).count("1")
        comps = []
        empties = 0
        for loop in surgery.state_loops(state):
            subset = tuple(
                i + 1 for i, w in enumerate(loop_windings(loop, n)) if w != 0
            )
            if subset:
                comps.append(subset)
            else:
                empties += 1
        coeff = Laurent.h_power(c - 2 * b_count) * _MINUS_ALPHA ** empties
        key = tuple(sorted(comps))
        acc = out.get(key, Laurent.zero()) + coeff
        if acc.is_zero():
            out.pop(key, None)
        else:
            out[key] = acc
    return out


def naive_specialized_resolve(d: Diagram) -> Dict[Multicurve, int]:
    """State sum with scalars pre-specialized at h = -1 (integers)."""
    surgery = _Surgery(d)
    n = d.board.n_holes
    c = len(d.crossings)
    sign = -1 if c % 2 else 1  # (-1)^(a-b) = (-1)^c for every state
    out: Dict[Multicurve, int] = {}
    for state in range(1 << c):
        comps = []
        empties = 0
        for loop in surgery.state_loops(state):
            subset = tuple(
                i + 1 for i, w in enumerate(loop_windings(loop, n)) if w != 0
            )
            if subset:
                comps.append(subset)
            else:
                empties += 1
        key = tuple(sorted(comps))
        val = out.get(key, 0) + sign * (-2) ** empties
        if val:
            out[key] = val
        else:
            out.pop(key, None)
    return out


def naive_epsilon(d: Diagram, rho: Sequence[Sequence[Sequence[complex]]]) -> complex:
    """Classical evaluation straight from the diagram: every state loop
    contributes minus the trace of its actual holonomy word (not the
    sorted-subset word), so this detects any routing information the
    basis classification discards."""
    mats: List[MatC] = [
        ((complex(m[0][0]), complex(m[0][1])), (complex(m[1][0]), complex(m[1][1])))
        for m in rho
    ]
    if len(mats) != d.board.n_holes:
        raise ValueError("wrong matrix count")
    surgery = _Surgery(d)
    c = len(d.crossings)
    sign = -1 if c % 2 else 1
    total = 0j
    for state in range(1 << c):
        term = complex(sign)
        for loop in surgery.state_loops(state):
            term *= -loop_trace(loop, mats)
        total += term
    return total


# ---------------------------------------------------------------------------
# Local-move gadgets spliced into crossing-free layered diagrams.


def r1_kinked(d: Diagram, comp_index: int, positive: bool) -> Diagram:
    """Insert a small curl into the left cap of one component.

    Works on a crossing-free layered diagram; the curl is the only
    crossing, so removing it is a first Reidemeister move worth a
    factor of -q^(3/2) (positive) or -q^(-3/2) (negative).
    """
    assert not d.crossings
    total = len(d.polylines)
    w = Fraction(1, 64 * (total + 1))
    pts = list(d.polylines[comp_index])
    (xl, y_bot), (xl2, y_top) = pts[0], pts[-1]
    assert xl == xl2 and y_top - y_bot > 8 * w
    ym = (y_bot + y_top) / 2
    kink = [
        (xl, ym + 2 * w),
        (xl - 5 * w, ym - 2 * w),
        (xl - 5 * w, ym + 2 * w),
        (xl, ym - 2 * w),
    ]
    polys = list(d.polylines)
    polys[comp_index] = tuple(pts + kink)
    token = d.ids[comp_index] + ("-" if positive else "+")
    return Diagram(d.board, polys, [token], d.ids)


def r2_poked(d: Diagram, comp_index: int, rect_over: bool) -> Diagram:
    """Overlay a tiny rectangle poking across one component's left cap.

    Both crossings put the same curve on top, so a second Reidemeister
    move slides the rectangle off: the result must equal the original
    diagram times the value of a free trivial loop.
    """
    assert not d.crossings
    total = len(d.polylines)
    w = Fraction(1, 64 * (total + 1))
    pts = d.polylines[comp_index]
    (xl, y_bot), (_, y_top) = pts[0], pts[-1]
    h = y_top - y_bot
    assert h > 8 * w
    y1, y2 = y_bot + h / 3, y_bot + 2 * h / 3
    rect = (
        (xl - 4 * w, y1),
        (xl + 4 * w, y1),
        (xl + 4 * w, y2),
        (xl - 4 * w, y2),
    )
    polys = list(d.polylines) + [rect]
    ids = list(d.ids) + ["poke"]
    name = "poke" if rect_over else d.ids[comp_index]
    return Diagram(d.board, polys, [name, name], ids)


# ---------------------------------------------------------------------------
# Seeded random diagrams for oracle comparisons.


def _snap(v: float) -> Fraction:
    return Fraction(round(v * 64), 64)


def random_diagram(rng: random.Random, board: Board, curves: int = 1) -> Optional[Diagram]:
    """One attempt at a random self-crossing diagram; None when invalid."""
    polys: List[List[Point]] = []
    for _ in range(curves):
        k = rng.randint(4, 8)
        cx = rng.uniform(0.0, board.n_holes + 1.0)
        cy = rng.uniform(-1.5, 1.5)
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(k))
        pts: List[Point] = []
        for a in angles:
            r = rng.uniform(0.7, 2.4)
            pts.append((_snap(cx + r * math.cos(a)), _snap(cy + r * math.sin(a))))
        step = rng.choice([s for s in range(1, k) if math.gcd(s, k) == 1])
        polys.append([pts[(i * step) % k] for i in range(k)])
    rule = rng.choice(
        [
            lambda pt, br1, br2: 0,
            lambda pt, br1, br2: 1,
            lambda pt, br1, br2: int(pt[0].numerator % 2 == 0),
        ]
    )
    ids = [f"c{i}" for i in range(curves)]
    try:
        d = Diagram.from_over_rule(board, polys, ids, rule)
    except (ValueError, AssertionError):
        return None
    if not 1 <= len(d.crossings) <= 10:
        return None
    return d


def random_unimodular(rng: random.Random) -> MatC:
    """Random det-1 matrix: product of shears with exact dyadic entries."""
    m: MatC = ((1.0, 0.0), (0.0, 1.0))
    for _ in range(4):
        a = rng.choice((-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0))
        f: MatC = ((1.0, a), (0.0, 1.0)) if rng.random() < 0.5 else ((1.0, 0.0), (a, 1.0))
        m = _mul(m, f)
    return m


def spans_interleave(m: Sequence[Tuple[int, ...]]) -> bool:
    """True when two components' hole spans overlap without nesting.

    Such components admit no pair of disjoint round curves, so any
    embedded drawing reroutes one of them around a hole it does not
    enclose and its holonomy word picks up a conjugation.
    """
    spans = sorted((min(s), max(s)) for s in m)
    for i in range(len(spans)):
        a1, a2 = spans[i]
        for j in range(i + 1, len(spans)):
            b1, b2 = spans[j]
            if a1 < b1 <= a2 < b2:
                return True
    return False


def all_laminar_multisets(n_holes: int, max_comps: int) -> List[Tuple[Tuple[int, ...], ...]]:
    """Every laminar multiset of <= max_comps nonempty subsets of {1..n}."""
    subsets = sorted(
        tuple(i + 1 for i in range(n_holes) if mask >> i & 1)
        for mask in range(1, 1 << n_holes)
    )
    found: List[Tuple[Tuple[int, ...], ...]] = []

    def grow(prefix: Tuple[Tuple[int, ...], ...], start: int) -> None:
        found.append(prefix)
        if len(prefix) == max_comps:
            return
        for i in range(start, len(subsets)):
            comp = set(subsets[i])
            ok = True
            for other in prefix:
                so = set(other)
                if not (comp <= so or so <= comp or not (comp & so)):
                    ok = False
                    break
            if ok:
                grow(prefix + (subsets[i],), i)

    grow((), 0)
    return found


def random_diagrams(seed: int, count: int, max_holes: int = 3) -> List[Diagram]:
    rng = random.Random(seed)
    out: List[Diagram] = []
    while len(out) < count:
        board = Board(rng.randint(0, max_holes))
        d = random_diagram(rng, board, curves=rng.choice([1, 1, 1, 2]))
        if d is not None:
            out.append(d)
    return out

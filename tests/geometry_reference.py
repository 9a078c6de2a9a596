"""Fraction geometry: the reference for the engine's integer kernels.

Every predicate divides in `Fraction` and compares all segment pairs, so
it shares no arithmetic and no candidate search with `geom.find_crossings`;
`winding_contribution` tests one edge against one hole's ray.  It lives
apart from `oracles.py`, which the benchmark compiles inside its measured
process.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from oracles import Point, _point_at
from skeinlab.skein import DiagramError

POINT = "point"
OVERLAP = "overlap"


def sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def cross(u: Point, v: Point) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def dot(u: Point, v: Point) -> Fraction:
    return u[0] * v[0] + u[1] * v[1]


def lerp(a: Point, b: Point, t: Fraction) -> Point:
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def segment_intersection(
    a: Point, b: Point, c: Point, d: Point
) -> Optional[Tuple[str, Optional[Point], Optional[Fraction], Optional[Fraction]]]:
    """Classify the contact between closed segments [a,b] and [c,d].

    Returns None when disjoint, ("point", p, t, u) for a single shared
    point p = a + t(b-a) = c + u(d-c), or ("overlap", None, None, None)
    when the segments are collinear and share a sub-segment of positive
    length.  Zero-length segments are rejected.
    """
    r = sub(b, a)
    s = sub(d, c)
    rr = dot(r, r)
    ss = dot(s, s)
    if rr == 0 or ss == 0:
        raise ValueError("degenerate zero-length segment")
    denom = cross(r, s)
    ac = sub(c, a)
    if denom != 0:
        t = cross(ac, s) / denom
        u = cross(ac, r) / denom
        if 0 <= t <= 1 and 0 <= u <= 1:
            return (POINT, lerp(a, b, t), t, u)
        return None
    if cross(ac, r) != 0:
        return None
    # Collinear: compare parameter intervals along [a,b].
    t0 = dot(ac, r) / rr
    t1 = t0 + dot(s, r) / rr
    lo, hi = (t0, t1) if t0 <= t1 else (t1, t0)
    lo = max(lo, Fraction(0))
    hi = min(hi, Fraction(1))
    if lo > hi:
        return None
    if lo == hi:
        p = lerp(a, b, lo)
        u = dot(sub(p, c), s) / ss
        return (POINT, p, lo, u)
    return (OVERLAP, None, None, None)


def point_segment_dist2(p: Point, a: Point, b: Point) -> Fraction:
    """Squared distance from p to the closed segment [a,b]."""
    r = sub(b, a)
    rr = dot(r, r)
    if rr == 0:
        d = sub(p, a)
        return dot(d, d)
    t = dot(sub(p, a), r) / rr
    if t < 0:
        t = Fraction(0)
    elif t > 1:
        t = Fraction(1)
    d = sub(p, lerp(a, b, t))
    return dot(d, d)


def winding_contribution(a: Point, b: Point, center: Point) -> int:
    """Crossing count of the directed segment a->b with the rightward
    horizontal ray from center, signed by direction.

    Half-open rule (y_start <= cy < y_end counts as upward): summing over
    the edges of any closed polyline yields its exact winding number about
    center, provided no vertex or edge lies on the ray endpoint itself.
    """
    cx, cy = center
    (x1, y1), (x2, y2) = a, b
    if y1 <= cy < y2:
        x = x1 + (cy - y1) * (x2 - x1) / (y2 - y1)
        return 1 if x > cx else 0
    if y2 <= cy < y1:
        x = x1 + (cy - y1) * (x2 - x1) / (y2 - y1)
        return -1 if x > cx else 0
    return 0


def path_winding(pts: Sequence[Point], n_holes: int) -> Tuple[int, ...]:
    """Winding numbers about holes 1..n_holes of the path through `pts`,
    summed edge by edge and hole by hole."""
    return tuple(
        sum(winding_contribution(a, b, (Fraction(h), Fraction(0))) for a, b in zip(pts, pts[1:]))
        for h in range(1, n_holes + 1)
    )


def arc_points(poly: Sequence[Point], g1: Fraction, g2: Fraction) -> List[Point]:
    """The path along closed `poly` from traversal parameter g1 forward to
    g2, through vertex 0 when g2 <= g1, so equal parameters give a lap."""
    n = len(poly)
    dist = (g2 - g1) % n or Fraction(n)
    inner = [poly[v % n] for v in range(int(g1) + 1, int(g1 + dist) + 1)]
    return [_point_at(poly, g1), *inner, _point_at(poly, g2)]


def _fmt(p: Point) -> str:
    return f"({p[0]},{p[1]})"


def fraction_find_crossings(
    n_holes: int, polylines: Sequence[Sequence[Point]], ids: Sequence[str]
) -> List[Tuple[Point, Tuple[int, int, Fraction], Tuple[int, int, Fraction], bool]]:
    """Validate a diagram and list its crossings with Fraction predicates
    over every segment pair, raising the engine's `DiagramError` texts.
    Each crossing ends with its orientation: whether the cross product of
    the two branches' edges is positive."""
    radius = Fraction(1, 4)
    if len(ids) != len(polylines):
        raise DiagramError("curve id list does not match polyline list")
    if len(set(ids)) != len(ids):
        raise DiagramError("duplicate curve id")
    for name in ids:
        if any(ch.isspace() for ch in name):
            raise DiagramError(f"curve id '{name}' contains whitespace")
    segments = [
        [(poly[i], poly[(i + 1) % len(poly)]) for i in range(len(poly))]
        for poly in polylines
    ]
    for pi, poly in enumerate(polylines):
        if len(poly) < 3:
            raise DiagramError(f"curve '{ids[pi]}' needs at least 3 vertices")
        for a, b in segments[pi]:
            if a == b:
                raise DiagramError(f"curve '{ids[pi]}' has a zero-length edge at {_fmt(a)}")
    for pi, segs in enumerate(segments):
        for a, b in segs:
            for hole in range(1, n_holes + 1):
                if point_segment_dist2((Fraction(hole), Fraction(0)), a, b) <= radius * radius:
                    raise DiagramError(
                        f"curve '{ids[pi]}' meets hole {hole}: edge {_fmt(a)}-{_fmt(b)}"
                    )
    flat = [(pi, si, a, b) for pi, segs in enumerate(segments) for si, (a, b) in enumerate(segs)]
    contacts = []
    for idx1, (p1, s1, a1, b1) in enumerate(flat):
        for p2, s2, a2, b2 in flat[idx1 + 1:]:
            hit = segment_intersection(a1, b1, a2, b2)
            if hit is None:
                continue
            kind, pt, t, u = hit
            if p1 == p2:
                n = len(polylines[p1])
                if (s2 - s1) % n == 1 or (s1 - s2) % n == 1:
                    # Consecutive edges may only share their joint vertex.
                    if kind == OVERLAP:
                        raise DiagramError(
                            f"curve '{ids[p1]}' doubles back along itself near {_fmt(a2)}"
                        )
                    joint = a2 if (s2 - s1) % n == 1 else a1
                    if pt != joint:
                        raise DiagramError(f"curve '{ids[p1]}' touches itself at {_fmt(pt)}")
                    continue
            if kind == OVERLAP:
                raise DiagramError(
                    f"collinear overlap between '{ids[p1]}' and '{ids[p2]}' near {_fmt(a2)}"
                )
            if not (0 < t < 1 and 0 < u < 1):
                raise DiagramError(
                    f"non-transverse contact between '{ids[p1]}' and '{ids[p2]}' at {_fmt(pt)}"
                )
            contacts.append((pt, (p1, s1, t), (p2, s2, u), cross(sub(b1, a1), sub(b2, a2)) > 0))
    seen = set()
    for pt, *_ in contacts:
        if pt in seen:
            raise DiagramError(f"triple point at {_fmt(pt)}")
        seen.add(pt)
    contacts.sort(key=lambda c: c[0])
    return contacts

"""Exact plane geometry of polyline diagrams on the holed disc.

The disc's holes are centred at (1,0) .. (n,0), radius `HOLE_RADIUS`.
`find_crossings` validates closed rational polylines and finds their
crossings, each with its orientation, on a per-diagram integer grid;
`arc_windings` gives the winding numbers of a polyline's arcs between
cut points, in one pass over its own grid.
Everything is exact: there are no epsilon thresholds anywhere in the
diagram pipeline.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import InputError

Point = Tuple[Fraction, Fraction]
Branch = Tuple[int, int, Fraction]  # (polyline index, segment index, parameter)
# (point, branch, branch, left): left when the second branch crosses the
# first from right to left, i.e. the cross product of their edges is > 0.
Contact = Tuple[Point, Branch, Branch, bool]

HOLE_RADIUS = Fraction(1, 4)
# No `over :` token can name a curve whose id holds whitespace.
_WHITESPACE = re.compile(r"\s")


class DiagramError(InputError):
    """Malformed or geometrically invalid diagram input."""


def fmt_point(p: Point) -> str:
    return f"({p[0]},{p[1]})"


def find_crossings(
    n_holes: int, polylines: Sequence[Sequence[Point]], ids: Sequence[str]
) -> List[Contact]:
    """Validate a diagram on the disc with `n_holes` holes and return its
    crossings sorted by point, without over/under data, each with the
    orientation of its two branches.

    Every test runs on Python ints: the diagram is scaled once by the LCM
    of its coordinate denominators and of the hole radius's, so that the
    radius is whole too, and the predicates stay exact without a gcd per
    operation.  Fractions are built only for crossings and error messages,
    from the original coordinates.
    """
    if len(ids) != len(polylines):
        raise DiagramError("curve id list does not match polyline list")
    if len(set(ids)) != len(ids):
        raise DiagramError("duplicate curve id")
    for name in ids:
        if _WHITESPACE.search(name):
            raise DiagramError(f"curve id '{name}' contains whitespace")
    scale = math.lcm(
        HOLE_RADIUS.denominator, *{c.denominator for poly in polylines for p in poly for c in p}
    )
    # One entry per edge: curve, edge index, scaled start x, y, scaled end x, y.
    segs: List[Tuple[int, int, int, int, int, int]] = []
    for pi, poly in enumerate(polylines):
        n = len(poly)
        if n < 3:
            raise DiagramError(f"curve '{ids[pi]}' needs at least 3 vertices")
        grid = [
            (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
            for x, y in poly
        ]
        for si in range(n):
            a, b = grid[si], grid[(si + 1) % n]
            if a == b:
                raise DiagramError(
                    f"curve '{ids[pi]}' has a zero-length edge at {fmt_point(poly[si])}"
                )
            segs.append((pi, si, a[0], a[1], b[0], b[1]))

    def edge(pi: int, si: int) -> Tuple[Point, Point]:
        poly = polylines[pi]
        return poly[si], poly[(si + 1) % len(poly)]

    # Hole clearance: the squared distance from each centre (h*scale, 0)
    # to the edge must exceed radius^2, the projection's division
    # multiplied out.  Only holes within the edge's box widened by the
    # radius can fail.
    radius = scale * HOLE_RADIUS.numerator // HOLE_RADIUS.denominator
    radius2 = radius * radius
    for pi, si, ax, ay, bx, by in segs:
        if min(ay, by) > radius or max(ay, by) < -radius:
            continue
        rx, ry = bx - ax, by - ay
        rr = rx * rx + ry * ry
        first = max(1, -((radius - min(ax, bx)) // scale))
        last = min(n_holes, (max(ax, bx) + radius) // scale)
        for hole in range(first, last + 1):
            px, py = hole * scale - ax, -ay
            along = px * rx + py * ry
            if along <= 0:
                near = px * px + py * py <= radius2
            elif along >= rr:
                near = (px - rx) ** 2 + (py - ry) ** 2 <= radius2
            else:
                c = px * ry - py * rx
                near = c * c <= radius2 * rr
            if near:
                a, b = edge(pi, si)
                raise DiagramError(
                    f"curve '{ids[pi]}' meets hole {hole}: edge "
                    f"{fmt_point(a)}-{fmt_point(b)}"
                )
    # Sweep the edges' closed boxes in order of left end; every pair
    # whose boxes meet (endpoint contacts included) is a candidate.
    boxes = sorted(
        (min(ax, bx), max(ax, bx), min(ay, by), max(ay, by), k)
        for k, (_, _, ax, ay, bx, by) in enumerate(segs)
    )
    pairs: List[Tuple[int, int]] = []
    active: List[Tuple[int, int, int, int, int]] = []
    for box in boxes:
        x0, _, y0, y1, k = box
        active = [other for other in active if other[1] >= x0]
        for other in active:
            if other[2] <= y1 and y0 <= other[3]:
                pairs.append((other[4], k) if other[4] < k else (k, other[4]))
        active.append(box)
    # Classifying in edge-pair order raises the first defect in that order.
    pairs.sort()
    contacts: List[Contact] = []
    for idx1, idx2 in pairs:
        p1, s1, ax, ay, bx, by = segs[idx1]
        p2, s2, cx, cy, dx, dy = segs[idx2]
        adjacent = p1 == p2 and s2 - s1 in (1, len(polylines[p1]) - 1)
        rx, ry = bx - ax, by - ay
        sx, sy = dx - cx, dy - cy
        qx, qy = cx - ax, cy - ay
        denom = rx * sy - ry * sx
        if denom:
            # Contact at a + t(b-a) = c + u(d-c), t = tn/denom, u = un/denom.
            tn = qx * sy - qy * sx
            un = qx * ry - qy * rx
            left = denom > 0  # the edges' cross product, scaled
            if not left:
                denom, tn, un = -denom, -tn, -un
            # Consecutive edges that are not parallel meet only at their joint.
            if not (0 <= tn <= denom and 0 <= un <= denom) or adjacent:
                continue
            a, b = edge(p1, s1)
            t = Fraction(tn, denom)
            pt = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            if not (0 < tn < denom and 0 < un < denom):
                raise DiagramError(
                    f"non-transverse contact between '{ids[p1]}' and '{ids[p2]}' "
                    f"at {fmt_point(pt)}"
                )
            contacts.append((pt, (p1, s1, t), (p2, s2, Fraction(un, denom)), left))
            continue
        if qx * ry - qy * rx:
            continue  # parallel, not collinear
        # Collinear: compare the parameter intervals along [a,b], scaled by |b-a|^2.
        rr = rx * rx + ry * ry
        t0 = qx * rx + qy * ry
        t1 = t0 + sx * rx + sy * ry
        lo, hi = max(min(t0, t1), 0), min(max(t0, t1), rr)
        if lo > hi:
            continue
        if lo == hi:
            # A single shared point, which is an end of [a,b].
            if adjacent:
                continue
            a, b = edge(p1, s1)
            raise DiagramError(
                f"non-transverse contact between '{ids[p1]}' and '{ids[p2]}' "
                f"at {fmt_point(a if lo == 0 else b)}"
            )
        c = edge(p2, s2)[0]
        if adjacent:
            raise DiagramError(
                f"curve '{ids[p1]}' doubles back along itself near {fmt_point(c)}"
            )
        raise DiagramError(
            f"collinear overlap between '{ids[p1]}' and '{ids[p2]}' near {fmt_point(c)}"
        )
    seen = set()
    for pt, *_ in contacts:
        if pt in seen:
            raise DiagramError(f"triple point at {fmt_point(pt)}")
        seen.add(pt)
    contacts.sort(key=lambda c: c[0])
    return contacts


def arc_windings(
    n_holes: int, poly: Sequence[Point], cuts: Sequence[Tuple[Fraction, Fraction]]
) -> List[Tuple[int, ...]]:
    """Winding numbers about holes 1..n_holes of the arcs of a closed
    polyline between its cuts, in one pass over the integer grid of its
    coordinate denominators.  A cut is a point (g, y) on the polyline, edge
    index plus edge parameter and ordinate, and the cuts come in order
    along it.  Arc i runs forward from cut i to cut i + 1, the last one
    through vertex 0 back to cut 0; with no cuts the one arc is the whole
    polyline.

    An edge a->b crosses y = 0 upward when y_a <= 0 < y_b and downward
    when y_b <= 0 < y_a; by this half-open rule the arcs' windings sum to
    the polyline's.  Every centre (h, 0) lies on y = 0, so the edge crosses
    the rightward rays of the holes 1..k left of its x-intercept: k is one
    floor division.  The crossing goes to the arc of the last cut not after
    it; on a cut's own edge it is after the cut when the cut has y <= 0 on
    an upward edge, or y > 0 on a downward one."""
    scale = math.lcm(*{c.denominator for p in poly for c in p})
    grid = [
        (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
        for x, y in poly
    ]
    at = [(int(g), y <= 0) for g, y in cuts]
    out = [[0] * n_holes for _ in range(max(1, len(cuts)))]
    for si, ((ax, ay), (bx, by)) in enumerate(zip(grid, grid[1:] + grid[:1])):
        if (ay <= 0) == (by <= 0):
            continue
        # Hole h lies left of the intercept (ax*dy - ay*dx) / dy when
        # h*scale*dy < ax*dy - ay*dx, taking dy > 0.
        dx, dy = bx - ax, by - ay
        num = ax * dy - ay * dx
        if dy < 0:
            num, dy = -num, -dy
        k = min(n_holes, (num - 1) // (scale * dy))
        if k <= 0:
            continue
        up = ay <= 0
        # Arc -1 is the last one: a crossing before every cut closes it.
        w = out[sum(ci < si or (ci == si and low == up) for ci, low in at) - 1]
        for h in range(k):
            w[h] += 1 if up else -1
    return [tuple(w) for w in out]

"""Fraction band layout: the reference for the engine's integer layout.

`reference_bands` is the layout `skein._canonical_bands` computed before
it moved to integer numerators over one denominator per multicurve.
Every coordinate here is a `Fraction`, reduced after each step.  It
shares the laminar forest (`skein._laminar_forest`) with the engine, so
it checks the layout's arithmetic, not the nesting.  `reference_overlay`
is the overlay `skein.stacking_diagram` drew before it moved to one
integer grid: the second factor's bands scaled by 1 + 1/p about
(1/2, 1/3), one `Fraction` operation at a time.  This module lives apart
from `oracles.py`, which the benchmark compiles inside its measured
process.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Tuple

from skeinlab.geom import HOLE_RADIUS, Point
from skeinlab.skein import Board, _laminar_forest, _Node, canonical_multicurve

_PIN = Fraction(5, 16)
_HALF = Fraction(1, 2)
_STACK_CENTER = (Fraction(1, 2), Fraction(1, 3))


def _place_kids(
    kids: List[_Node], s: int, lo: Fraction, hi: Fraction, owner_pins: bool
) -> None:
    present = [k for k in kids if k.span[0] <= s <= k.span[1]]
    if not present:
        return
    if owner_pins:
        central = next((k for k in present if s in k.hole_set), None)
        if central is None:
            below, above = present, []
        else:
            below = [k for k in present if k is not central and k.sigma < central.sigma]
            above = [k for k in present if k is not central and k.sigma > central.sigma]
        db = (-_PIN - lo) / (len(below) + 1)
        da = (hi - _PIN) / (len(above) + 1)
        for j, kid in enumerate(below):
            _assign(kid, s, lo + j * db + db / 4, lo + (j + 1) * db - db / 4)
        for j, kid in enumerate(above):
            _assign(
                kid,
                s,
                _PIN + (1 + j) * da + da / 4,
                _PIN + (2 + j) * da - da / 4,
            )
        if central is not None:
            _assign(central, s, -_PIN - 3 * db / 4, _PIN + 3 * da / 4)
    else:
        step = (hi - lo) / (len(present) + 1)
        for j, kid in enumerate(present):
            _assign(kid, s, lo + j * step + step / 4, lo + (j + 1) * step - step / 4)


def _assign(node: _Node, s: int, lo: Fraction, hi: Fraction) -> None:
    node.profile[s] = (lo, hi)
    _place_kids(node.kids, s, lo, hi, owner_pins=(s in node.hole_set))


def _node_polyline(node: _Node, ext: Fraction) -> List[Point]:
    s0, s1 = node.span
    x_left = Fraction(s0) - HOLE_RADIUS - ext
    x_right = Fraction(s1) + HOLE_RADIUS + ext
    lo = {s: node.profile[s][0] for s in range(s0, s1 + 1)}
    hi = {s: node.profile[s][1] for s in range(s0, s1 + 1)}
    q38, q58 = Fraction(3, 8), Fraction(5, 8)
    pts: List[Point] = [(x_left, lo[s0])]
    for s in range(s0, s1):
        if lo[s] != lo[s + 1]:
            pts.append((s + q38, lo[s]))
            pts.append((s + q58, lo[s + 1]))
    pts.append((x_right, lo[s1]))
    pts.append((x_right, hi[s1]))
    for s in range(s1 - 1, s0 - 1, -1):
        if hi[s] != hi[s + 1]:
            pts.append((s + q58, hi[s + 1]))
            pts.append((s + q38, hi[s]))
    pts.append((x_left, hi[s0]))
    return pts


def reference_bands(m: Iterable[Iterable[int]], board: Board) -> List[Tuple[Point, ...]]:
    """The polylines of the canonical layout of `m`, outermost first."""
    roots = _laminar_forest(canonical_multicurve(m, board))
    order: List[_Node] = []
    queue = list(roots)
    while queue:
        node = queue.pop(0)
        order.append(node)
        queue.extend(node.kids)
    total = len(order)
    for s in range(1, board.n_holes + 1):
        _place_kids(roots, s, -_HALF, _HALF, owner_pins=True)
    return [
        tuple(_node_polyline(node, Fraction(total - k, 8 * (total + 1))))
        for k, node in enumerate(order)
    ]


def reference_overlay(
    ma: Iterable[Iterable[int]], mb: Iterable[Iterable[int]], board: Board, p: int
) -> List[Tuple[Point, ...]]:
    """The polylines of the stacking overlay of `ma` over `mb` at the
    prime `p`: `ma`'s bands, then `mb`'s scaled by 1 + 1/p."""
    cx, cy = _STACK_CENTER
    scale = 1 + Fraction(1, p)
    return reference_bands(ma, board) + [
        tuple((cx + scale * (x - cx), cy + scale * (y - cy)) for x, y in poly)
        for poly in reference_bands(mb, board)
    ]

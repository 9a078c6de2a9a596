"""Port-dict state loop: the reference for the engine's integer state sum.

`reference_component` is the enumerator `skein._resolve_component` used
before its integer kernel.  Ports are (crossing, branch, in/out) tuples,
every state rebuilds a port-keyed `partner` dict, every loop sums a
winding list hole by hole, and every state adds its own Laurent scalar.
It shares the arcs (`geom.arc_windings`) and the loop classification with
the engine, so it checks the kernel's numbering, packing and tally, not
the geometry.  Each crossing's orientation is the one exception: it comes
from the `Fraction` cross product of the branches' edges, not from the
integer kernel's `Crossing.left`.  `open_crossing_pairing` follows the
paths of a state that leaves one crossing open, to check the planarity
fact the kernel's open crossing rests on: the paths pair its ports like
one of its smoothings.  This module lives apart from `oracles.py`, which
the benchmark compiles inside its measured process.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from geometry_reference import cross, sub
from skeinlab.geom import Branch, Point, arc_windings
from skeinlab.ring import ONE, Laurent, accumulate
from skeinlab.skein import (
    MINUS_ALPHA,
    Component,
    Diagram,
    Multicurve,
    _classify_windings,
    _crossing_groups,
    is_laminar,
)

_IN, _OUT = 0, 1
Port = Tuple[int, int, int]  # (crossing index, branch index, _IN/_OUT)


@dataclass
class _Arc:
    start: Port  # leaves this crossing/branch
    end: Port  # arrives at this crossing/branch
    winding: Tuple[int, ...]


def _branch_direction(polylines, br: Branch) -> Point:
    poly = polylines[br[0]]
    a = poly[br[1]]
    b = poly[(br[1] + 1) % len(poly)]
    return sub(b, a)


def _smoothing_pairs(d_over, d_under, k: int, ob: int):
    ub = 1 - ob
    in_out = (((k, ob, _IN), (k, ub, _OUT)), ((k, ob, _OUT), (k, ub, _IN)))
    in_in = (((k, ob, _IN), (k, ub, _IN)), ((k, ob, _OUT), (k, ub, _OUT)))
    if cross(d_over, d_under) > 0:
        return in_out, in_in
    return in_in, in_out


def _arcs_and_pairings(d: Diagram, polys: Sequence[int], cross_ids: Sequence[int]):
    """The group's arcs, each port's (arc, +1 at its start / -1 at its end),
    and each crossing's (a pairs, b pairs)."""
    n_holes = d.board.n_holes
    passages: Dict[int, List[Tuple[Fraction, int, int]]] = {pi: [] for pi in polys}
    for k in cross_ids:
        for b, br in enumerate(d.crossings[k].branches):
            passages[br[0]].append((br[1] + br[2], k, b))
    arcs: List[_Arc] = []
    for pi in polys:
        ps = sorted(passages[pi])
        cuts = [(g, d.crossings[k].point[1]) for g, k, _ in ps]
        windings = arc_windings(n_holes, d.polylines[pi], cuts)
        for i, (_, k1, b1) in enumerate(ps):
            _, k2, b2 = ps[(i + 1) % len(ps)]
            arcs.append(_Arc((k1, b1, _OUT), (k2, b2, _IN), windings[i]))

    arc_at: Dict[Port, Tuple[int, int]] = {}
    for ai, arc in enumerate(arcs):
        arc_at[arc.start] = (ai, +1)
        arc_at[arc.end] = (ai, -1)

    pairings = []
    for k in cross_ids:
        crossing = d.crossings[k]
        ob = crossing.over_branch
        d_over = _branch_direction(d.polylines, crossing.branches[ob])
        d_under = _branch_direction(d.polylines, crossing.branches[1 - ob])
        pairings.append(_smoothing_pairs(d_over, d_under, k, ob))
    return arcs, arc_at, pairings


def reference_component(
    d: Diagram, polys: Sequence[int], cross_ids: Sequence[int]
) -> Dict[Multicurve, Laurent]:
    """State sum over one crossing-connected group, one state at a time."""
    n_holes = d.board.n_holes
    if not cross_ids:
        (pi,) = polys
        comp = _classify_windings(arc_windings(n_holes, d.polylines[pi], [])[0])
        return {(comp,): ONE} if comp else {(): MINUS_ALPHA}

    c = len(cross_ids)
    arcs, arc_at, pairings = _arcs_and_pairings(d, polys, cross_ids)
    out: Dict[Multicurve, Laurent] = {}
    for state in range(1 << c):
        partner: Dict[Port, Port] = {}
        b_count = 0
        for bit, (a_pairs, b_pairs) in enumerate(pairings):
            use_b = (state >> bit) & 1
            b_count += use_b
            for p1, p2 in (b_pairs if use_b else a_pairs):
                partner[p1] = p2
                partner[p2] = p1
        coeff = Laurent.h_power(c - 2 * b_count)
        visited = [False] * len(arcs)
        comps: List[Component] = []
        empties = 0
        for a0 in range(len(arcs)):
            if visited[a0]:
                continue
            w = [0] * n_holes
            entry: Port = arcs[a0].start
            port = entry
            while True:
                ai, sign = arc_at[port]
                visited[ai] = True
                arc = arcs[ai]
                for h in range(n_holes):
                    w[h] += sign * arc.winding[h]
                port = partner[arc.end if sign > 0 else arc.start]
                if port == entry:
                    break
            comp = _classify_windings(w)
            if comp:
                comps.append(comp)
            else:
                empties += 1
        if empties:
            coeff = coeff * MINUS_ALPHA ** empties
        if not is_laminar(comps):
            raise AssertionError(f"state produced non-laminar family {comps}")
        accumulate(out, tuple(sorted(comps)), coeff)
    return out


def open_crossing_pairing(
    d: Diagram, polys: Sequence[int], cross_ids: Sequence[int], open_index: int, state: int
):
    """How the paths of a partial state pair the ports of the open crossing.

    Every crossing of the group but cross_ids[open_index] is smoothed by
    bit j of `state` (1: b), and the path that leaves each of the open
    crossing's four ports is followed to the port where it arrives.
    Returns (the paths' pairing, (a pairing, b pairing)) of that crossing,
    each a frozenset of two-port frozensets.
    """
    arcs, arc_at, pairings = _arcs_and_pairings(d, polys, cross_ids)
    partner: Dict[Port, Port] = {}
    for bit, (a_pairs, b_pairs) in enumerate(pairings):
        if bit != open_index:
            for p1, p2 in (b_pairs if (state >> bit) & 1 else a_pairs):
                partner[p1] = p2
                partner[p2] = p1
    k = cross_ids[open_index]
    paths = set()
    for start in [(k, b, e) for b in (0, 1) for e in (_IN, _OUT)]:
        port = start
        while True:
            ai, sign = arc_at[port]
            end = arcs[ai].end if sign > 0 else arcs[ai].start
            if end not in partner:
                break
            port = partner[end]
        paths.add(frozenset((start, end)))
    smoothings = tuple(frozenset(map(frozenset, pairs)) for pairs in pairings[open_index])
    return frozenset(paths), smoothings


def reference_groups(d: Diagram) -> List[Dict[Multicurve, Laurent]]:
    """`reference_component` of each crossing-connected group of `d`."""
    return [reference_component(d, polys, cross_ids) for polys, cross_ids in _crossing_groups(d)]

"""Bracket skein algebra of a disk with n holes, over exact geometry.

Diagrams are closed rational polylines with over/under data at every
transverse double point.  `resolve` performs the two-smoothing state sum
and classifies every resulting embedded loop by the set of holes it
encloses, producing an element of the free module on laminar multicurves.
`multiply` stacks diagrams (first factor on top) and resolves.

The state sum runs on ints.  A group of c crossings has 4c numbered
ports and 2c arcs, and each arc's winding vector is packed into one int.
The group's last crossing stays open, and the 2^(c-1) smoothings of the
others are visited in reflected Gray order, so a walk costs one
crossing's four entries rewritten in one reused `jump` list and one pass
over the 2c arcs, adding one int per arc.  The pass yields closed loops
and two paths through the open crossing, and its two smoothings close
those paths into two loops or one, so each walk counts two states.  A
memo keyed by packed winding gives each loop's hole set, and each state
is counted under one int key: its number of b-smoothings, plus one digit
per hole set counting its loops around that set.  After the walks, the
keys with the same loop digits add their counts into one int
h-polynomial, so one Laurent scalar is built per loop pattern.

Canonical diagrams are laid out on ints too: each coordinate of a
multicurve's bands is a whole numerator over one denominator that the
sibling counts of its laminar forest fix in advance, and becomes a
`Fraction` once, at the end.  A product's overlay lays both factors on
one such grid, the second scaled in whole numerators.

All geometry is exact (see :mod:`skeinlab.geom`); scalars live in the
half-integer Laurent ring of :mod:`skeinlab.ring`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .geom import (
    HOLE_RADIUS,
    Branch,
    Contact,
    DiagramError,
    Point,
    arc_windings,
    find_crossings,
    fmt_point,
)
from .ring import Combination, Laurent, Matrix2, ONE, Q_PLUS_QINV, accumulate, m2_det, m2_trace

Component = Tuple[int, ...]
Multicurve = Tuple[Component, ...]

# Value of a null-homotopic loop: -(q + q^{-1}).
MINUS_ALPHA = -Q_PLUS_QINV

# Layout constants, scaled to whole numerators by `_canonical_bands`: the
# clearance kept beside the hole ordinate, the outer strip's half-height,
# and where a profile steps between two columns.
_PIN, _HALF, _Q38, _Q58 = Fraction(5, 16), Fraction(1, 2), Fraction(3, 8), Fraction(5, 8)

# Most crossings in one crossing-connected group: `resolve` counts all 2^c
# smoothings of a group in 2^(c-1) walks, and a group at the cap is 2^23
# walks, minutes of CPU.
STATE_CAP = 24

# Largest board: `resolve` keeps a winding vector of this length per loop
# and per arc, so an unbounded header could exhaust memory.
MAX_HOLES = 64


@dataclass(frozen=True)
class Board:
    """Disk with `n_holes` punctures at (1,0) .. (n,0), radius 1/4 each."""

    n_holes: int

    def __post_init__(self) -> None:
        if not 0 <= self.n_holes <= MAX_HOLES:
            raise ValueError(f"hole count must be between 0 and {MAX_HOLES}")


# ---------------------------------------------------------------------------
# Multicurves


def is_laminar(components: Iterable[Component]) -> bool:
    """True when every pair of hole sets is nested or disjoint."""
    sets = [frozenset(c) for c in components]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            a, b = sets[i], sets[j]
            if not (a <= b or b <= a or not (a & b)):
                return False
    return True


def canonical_multicurve(components: Iterable[Iterable[int]], board: Board) -> Multicurve:
    """Validate and sort a multiset of enclosed-hole sets."""
    comps: List[Component] = []
    for raw in components:
        comp = tuple(sorted(set(raw)))
        if not comp:
            raise ValueError("multicurve components must be nonempty")
        if comp[0] < 1 or comp[-1] > board.n_holes:
            raise ValueError(f"hole index out of range in component {comp}")
        comps.append(comp)
    if not is_laminar(comps):
        raise ValueError(f"multicurve is not laminar: {comps}")
    return tuple(sorted(comps))


def render_multicurve(m: Multicurve) -> str:
    return "{" + "|".join(",".join(str(i) for i in comp) for comp in m) + "}"


# ---------------------------------------------------------------------------
# Skein elements


class SkeinElement(Combination):
    """Finitely supported map from laminar multicurves to Laurent scalars."""

    __slots__ = ("board", "terms")
    _CONTEXT = "board"
    _MISMATCH = "elements live on different boards"

    def __init__(self, board: Board, terms: Dict[Multicurve, Laurent]):
        self.board = board
        # Equal coefficients share one object: products repeat a few
        # scalars many times, and a Laurent is never changed in place.
        shared: Dict[Laurent, Laurent] = {}
        self.terms: Dict[Multicurve, Laurent] = {
            m: shared.setdefault(c, c) for m, c in terms.items() if not c.is_zero()
        }

    @classmethod
    def zero(cls, board: Board) -> "SkeinElement":
        return cls(board, {})

    @classmethod
    def unit(cls, board: Board) -> "SkeinElement":
        return cls(board, {(): ONE})

    @classmethod
    def basis(cls, board: Board, m: Iterable[Iterable[int]]) -> "SkeinElement":
        return cls(board, {canonical_multicurve(m, board): ONE})

    def __mul__(self, other: "SkeinElement | Laurent | int") -> "SkeinElement":
        if isinstance(other, (Laurent, int)):
            return self.scale(other)
        if isinstance(other, SkeinElement):
            return multiply(self, other)
        return NotImplemented

    def render(self) -> str:
        """One line per basis multicurve, canonical order."""
        if not self.terms:
            return "0"
        lines = []
        for m in sorted(self.terms):
            coeff = self.terms[m]
            text = coeff.render()
            if len(coeff.terms) > 1:
                text = f"({text})"
            lines.append(f"{text} * {render_multicurve(m)}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Diagrams

@dataclass(frozen=True)
class Crossing:
    point: Point
    branches: Tuple[Branch, Branch]
    over_branch: int  # index into `branches`
    left: bool  # the second branch crosses the first from right to left


def _over_token(ids: Sequence[str], br1: Branch, br2: Branch, over: int) -> str:
    """The `over` line token naming branch `over` (0 or 1) of a crossing
    as the over branch."""
    if br1[0] != br2[0]:
        return ids[(br1, br2)[over][0]]
    top, bottom = (br1, br2) if over == 0 else (br2, br1)
    return ids[br1[0]] + ("-" if top[1] + top[2] < bottom[1] + bottom[2] else "+")


class Diagram:
    """Validated link diagram: closed polylines plus over/under data.

    `over_tokens` follows the file format: one token per crossing in
    lexicographic (x, y) order of the crossing coordinates, naming the
    over curve; a self-crossing uses the curve id with a `+`/`-` suffix,
    `-` meaning the branch with the lower traversal parameter is on top.
    """

    __slots__ = ("board", "polylines", "ids", "crossings", "over_tokens")

    def __init__(
        self,
        board: Board,
        polylines: Sequence[Sequence[Point]],
        over_tokens: Sequence[str],
        ids: Optional[Sequence[str]] = None,
    ):
        if ids is None:
            ids = [f"c{i}" for i in range(len(polylines))]
        polys = [tuple(p) for p in polylines]
        contacts = find_crossings(board.n_holes, polys, ids)
        if len(over_tokens) != len(contacts):
            raise DiagramError(
                f"crossing count mismatch: diagram has {len(contacts)} crossings, "
                f"over list has {len(over_tokens)}"
            )
        overs: List[int] = []
        for (pt, br1, br2, _), token in zip(contacts, over_tokens):
            named = [_over_token(ids, br1, br2, over) for over in (0, 1)]
            if token in named:
                overs.append(named.index(token))
                continue
            if br1[0] == br2[0]:
                name = ids[br1[0]]
                raise DiagramError(
                    f"self-crossing of '{name}' at {fmt_point(pt)} needs token "
                    f"'{name}+' or '{name}-', got '{token}'"
                )
            raise DiagramError(
                f"over token '{token}' at {fmt_point(pt)} names neither "
                f"'{named[0]}' nor '{named[1]}'"
            )
        self._build(board, polys, ids, contacts, overs)

    def _build(
        self,
        board: Board,
        polys: Sequence[Tuple[Point, ...]],
        ids: Sequence[str],
        contacts: Sequence[Contact],
        overs: Sequence[int],
    ) -> None:
        self.board = board
        self.polylines: Tuple[Tuple[Point, ...], ...] = tuple(polys)
        self.ids: Tuple[str, ...] = tuple(ids)
        self.crossings: Tuple[Crossing, ...] = tuple(
            Crossing(pt, (br1, br2), over, left)
            for (pt, br1, br2, left), over in zip(contacts, overs)
        )
        self.over_tokens: Tuple[str, ...] = tuple(
            _over_token(ids, br1, br2, over) for (_, br1, br2, _), over in zip(contacts, overs)
        )

    @classmethod
    def from_over_rule(
        cls,
        board: Board,
        polylines: Sequence[Sequence[Point]],
        ids: Sequence[str],
        over_of: Callable[[Point, Branch, Branch], int],
    ) -> "Diagram":
        """Build a diagram choosing the over branch programmatically."""
        polys = [tuple(p) for p in polylines]
        contacts = find_crossings(board.n_holes, polys, ids)
        overs = [over_of(pt, br1, br2) for pt, br1, br2, _ in contacts]
        d = cls.__new__(cls)
        d._build(board, polys, ids, contacts, overs)
        return d

    def __repr__(self) -> str:
        return (
            f"Diagram(holes={self.board.n_holes}, curves={len(self.polylines)}, "
            f"crossings={len(self.crossings)})"
        )


# ---------------------------------------------------------------------------
# Diagram file format

def _read_rational(text: str) -> Tuple[int, int]:
    """Numerator and denominator of a coordinate in the README's grammar:
    `00012/0004` reads (12, 4) and `-.5` reads (-5, 10)."""
    body = text.strip()
    sign = -1 if body[:1] == "-" else 1
    num, slash, den = (body[1:] if body[:1] in ("-", "+") else body).partition("/")
    whole, point, frac = num.partition(".")
    if text.isascii() and (whole + frac).isdigit() and not (slash and point):
        if not slash:
            return sign * int(whole + frac), 10 ** len(frac)
        if den.isdigit():
            return sign * int(num), int(den)
    raise ValueError(text)


def parse_diagram(text: str) -> Diagram:
    """Parse the line-oriented diagram format (see README)."""
    board: Optional[Board] = None
    ids: List[str] = []
    polylines: List[List[Point]] = []
    over: Optional[List[str]] = None
    curve_lines: Dict[str, int] = {}
    values: Dict[str, Fraction] = {}  # each coordinate text is read once
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if board is None:
            if not line.startswith("board holes="):
                raise DiagramError(f"line {ln}: expected 'board holes=<n>'")
            try:
                board = Board(int(line[len("board holes="):]))
            except ValueError as exc:
                raise DiagramError(f"line {ln}: bad hole count ({exc})") from None
            continue
        # The keyword is the whole first token, ended by whitespace or ':'.
        keyword = line.partition(":")[0].split()[:1]
        if keyword == ["curve"]:
            body = line[len("curve"):]
            if ":" not in body:
                raise DiagramError(f"line {ln}: curve line needs ':'")
            name, _, coords = body.partition(":")
            name = name.strip()
            if not name:
                raise DiagramError(f"line {ln}: curve needs an id")
            if name in curve_lines:
                raise DiagramError(f"line {ln}: duplicate curve id '{name}'")
            pts: List[Point] = []
            rest = coords.strip()
            while rest:
                if not rest.startswith("("):
                    raise DiagramError(f"line {ln}: expected '(' in '{rest}'")
                close = rest.find(")")
                if close < 0:
                    raise DiagramError(f"line {ln}: unclosed coordinate")
                inner = rest[1:close]
                parts = inner.split(",")
                if len(parts) != 2:
                    raise DiagramError(f"line {ln}: bad coordinate '({inner})'")
                try:
                    for part in parts:
                        if part not in values:
                            values[part] = Fraction(*_read_rational(part))
                    pts.append((values[parts[0]], values[parts[1]]))
                except (ValueError, ZeroDivisionError):
                    raise DiagramError(
                        f"line {ln}: bad rational in '({inner})'"
                    ) from None
                rest = rest[close + 1:].strip()
            if len(pts) < 3:
                raise DiagramError(f"line {ln}: curve '{name}' needs >= 3 vertices")
            curve_lines[name] = ln
            ids.append(name)
            polylines.append(pts)
            continue
        if keyword == ["over"]:
            if over is not None:
                raise DiagramError(f"line {ln}: duplicate 'over' line")
            body = line[len("over"):].strip()
            if not body.startswith(":"):
                raise DiagramError(f"line {ln}: over line needs ':'")
            over = body[1:].split()
            continue
        raise DiagramError(f"line {ln}: unrecognized line '{line}'")
    if board is None:
        raise DiagramError("line 1: missing 'board holes=<n>' header")
    try:
        return Diagram(board, polylines, over or [], ids)
    except DiagramError as exc:
        # Attach the source line of the first named curve, when present.
        msg = str(exc)
        for name, ln in curve_lines.items():
            if f"'{name}'" in msg:
                raise DiagramError(f"line {ln}: {msg}") from None
        raise


def render_diagram(d: Diagram) -> str:
    lines = [f"board holes={d.board.n_holes}"]
    for name, poly in zip(d.ids, d.polylines):
        coords = " ".join(f"({p[0]},{p[1]})" for p in poly)
        lines.append(f"curve {name} : {coords}")
    lines.append("over : " + " ".join(d.over_tokens) if d.over_tokens else "over :")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# State-sum resolution

_IN, _OUT = 0, 1


def _classify_windings(w: Sequence[int]) -> Component:
    """Enclosed hole set of an embedded loop from its winding vector."""
    nonzero = [x for x in w if x != 0]
    if nonzero:
        if any(abs(x) != 1 for x in nonzero) or len({x > 0 for x in nonzero}) != 1:
            raise AssertionError(f"non-embedded loop winding {tuple(w)}")
    return tuple(i + 1 for i, x in enumerate(w) if x != 0)


def _field_width(total: int) -> int:
    """Bits per hole of a packed winding vector whose entries are bounded
    by `total` in absolute value: each field then holds a signed value in
    [-2^(width-1), 2^(width-1)), so decoding is exact."""
    return total.bit_length() + 1


def _pack(w: Sequence[int], width: int) -> int:
    """Winding vector as one int, hole h in bits h*width and up.  Packing
    is linear, so a loop's packed winding is the sum of its arcs'."""
    return sum(x << (h * width) for h, x in enumerate(w))


def _unpack(packed: int, n_holes: int, width: int) -> Tuple[int, ...]:
    """Inverse of `_pack` for entries in the range `width` allows: adding
    half a field to every field makes them all nonnegative, so no field
    borrows from the next."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    biased = packed + _pack([half] * n_holes, width)
    return tuple(((biased >> (h * width)) & mask) - half for h in range(n_holes))


def _smoothing_pairs(under_left: bool, base: int, ob: int):
    """Port pairings (p, q, r, s: p-q and r-s joined) of the two smoothings
    of the crossing whose ports are base + 2*branch + _IN/_OUT, where the
    under strand crosses the over strand from right to left when
    `under_left` holds.

    The h = q^{1/2} smoothing joins each over-strand end to the
    under-strand end lying clockwise from it; the convention is pinned by
    the positive-curl test (resolve of a positive curl = -q^{3/2} times
    the uncurled loop).
    """
    o_in, o_out = base + 2 * ob + _IN, base + 2 * ob + _OUT
    u_in, u_out = base + 2 * (1 - ob) + _IN, base + 2 * (1 - ob) + _OUT
    in_out = (o_in, u_out, o_out, u_in)
    in_in = (o_in, u_in, o_out, u_out)
    if under_left:
        return in_out, in_in
    return in_in, in_out


def _resolve_component(
    d: Diagram, polys: Sequence[int], cross_ids: Sequence[int]
) -> Dict[Multicurve, Laurent]:
    """State sum over one crossing-connected group of polylines.

    Crossing j of the group has the ports 4j + 2*branch + _IN/_OUT, and
    each arc runs from an _OUT port to the next _IN port along its
    polyline.

    The last crossing stays open: the walks visit the 2^(c-1) smoothings
    of the others, and each tallies both of its own.  With it open, a
    state's arcs form closed loops and two paths, which end at its ports
    o = 4(c-1) .. o + 3.  Outside a small disc about the crossing the
    paths are disjoint, so they cannot join opposite points of its
    boundary: they pair its ports like one of its smoothings, never
    straight through.  Path 1 leaves port o (branch 0, _IN), so it ends
    at a branch 1 port, and path 2 leaves the lowest port left, o + 1.
    The smoothing that pairs the ports as the paths do closes them into
    two loops, with windings w1 and w2; the other joins path 1's end to
    o + 1 and path 2's end to o, one loop of winding w1 + w2.
    """
    n_holes = d.board.n_holes
    if not cross_ids:
        (pi,) = polys
        comp = _classify_windings(arc_windings(n_holes, d.polylines[pi], [])[0])
        if comp:
            return {(comp,): ONE}
        return {(): MINUS_ALPHA}

    c = len(cross_ids)
    if c > STATE_CAP:
        raise ValueError(
            f"crossing component has {c} crossings, exceeding the state cap {STATE_CAP}"
        )
    base = {k: 4 * j for j, k in enumerate(cross_ids)}

    # Passages of each polyline through its crossings, by traversal order.
    passages: Dict[int, List[Tuple[Fraction, int, int]]] = {pi: [] for pi in polys}
    for k in cross_ids:
        for b, br in enumerate(d.crossings[k].branches):
            passages[br[0]].append((br[1] + br[2], k, b))
    ends: List[Tuple[int, int]] = []  # per arc: (start port, end port)
    windings: List[Tuple[int, ...]] = []
    for pi in polys:
        ps = sorted(passages[pi])
        cuts = [(g, d.crossings[k].point[1]) for g, k, _ in ps]
        windings += arc_windings(n_holes, d.polylines[pi], cuts)
        for i, (_, k1, b1) in enumerate(ps):
            _, k2, b2 = ps[(i + 1) % len(ps)]
            ends.append((base[k1] + 2 * b1 + _OUT, base[k2] + 2 * b2 + _IN))

    # A loop uses each arc at most once, so no loop's winding about a hole
    # exceeds the total over all arcs and holes.
    width = _field_width(sum(abs(x) for w in windings for x in w))
    arc_of = [0] * (4 * c)
    other_end = [0] * (4 * c)
    step = [0] * (4 * c)  # packed winding of the arc entered at this port
    for ai, ((p_start, p_end), w) in enumerate(zip(ends, windings)):
        packed = _pack(w, width)
        arc_of[p_start], other_end[p_start], step[p_start] = ai, p_end, packed
        arc_of[p_end], other_end[p_end], step[p_end] = ai, p_start, -packed
    starts = [p_start for p_start, _ in ends]

    pairings = []  # per crossing: (a pairs, b pairs)
    for k in cross_ids:
        crossing = d.crossings[k]
        ob = crossing.over_branch
        pairings.append(_smoothing_pairs(crossing.left == (ob == 0), base[k], ob))
    # Per crossing and smoothing, the four `jump` entries it writes: the
    # arc that ends at p continues from its partner q.
    flips = [
        [[(other_end[x], y) for x, y in ((p, q), (q, p), (r, s), (s, r))] for p, q, r, s in pair]
        for pair in pairings[:-1]
    ]
    o = 4 * (c - 1)
    p, q, r, s = pairings[-1][0]
    o_mate = {p: q, q: p, r: s, s: r}[o]  # the port the a-smoothing joins to o

    # A state's tally key is one int: its b-count in the lowest digit,
    # then one digit per hole set counting the state's loops around it.
    bits = (2 * c).bit_length()  # a state has at most 2c loops
    unit_of_set: Dict[Component, int] = {}  # hole set -> 1 in its digit
    unit_of: Dict[int, int] = {}  # packed loop winding -> its hole set's unit

    def new_unit(w: int) -> int:
        comp = _classify_windings(_unpack(w, n_holes, width))
        unit = unit_of[w] = unit_of_set.setdefault(comp, 1 << bits * (len(unit_of_set) + 1))
        return unit

    tally: Dict[int, int] = {}
    # jump[port]: the port entered after the arc entered at `port`, or -1
    # where that arc ends at the open crossing.
    jump = [-1] * (4 * c)
    for a_smoothing, _ in flips:
        for x, y in a_smoothing:
            jump[x] = y
    b_count = 0
    seen = [-1] * len(starts)  # seen[arc] == i: arc walked in state i
    # Reflected Gray order: state i differs from state i - 1 only in the
    # smoothing of crossing j, the lowest set bit of i, and bit j of
    # i ^ (i >> 1) is that crossing's new smoothing (1: b).
    for i in range(1 << (c - 1)):
        if i:
            j = (i & -i).bit_length() - 1
            smoothing = (i ^ (i >> 1)) >> j & 1
            (x0, y0), (x1, y1), (x2, y2), (x3, y3) = flips[j][smoothing]
            jump[x0], jump[x1], jump[x2], jump[x3] = y0, y1, y2, y3
            b_count += 2 * smoothing - 1
        w1 = 0
        port = o
        while port >= 0:
            seen[arc_of[port]] = i
            w1 += step[port]
            port = jump[port]
        # The a-smoothing closes the paths into two loops exactly when
        # path 1 ends at o_mate, that is when it walked o_mate's arc.
        split_by_a = seen[arc_of[o_mate]] == i
        w2 = 0
        port = o + 1
        while port >= 0:
            seen[arc_of[port]] = i
            w2 += step[port]
            port = jump[port]
        key = b_count
        for a0, entry in enumerate(starts):
            if seen[a0] == i:
                continue
            w = 0
            port = entry
            while True:
                seen[arc_of[port]] = i
                w += step[port]
                port = jump[port]
                if port == entry:
                    break
            key += unit_of.get(w) or new_unit(w)
        split = key + (unit_of.get(w1) or new_unit(w1)) + (unit_of.get(w2) or new_unit(w2))
        joined = key + (unit_of.get(w1 + w2) or new_unit(w1 + w2))
        if split_by_a:
            joined += 1
        else:
            split += 1
        tally[split] = tally.get(split, 0) + 1
        tally[joined] = tally.get(joined, 0) + 1

    # One h-polynomial per loop pattern, the key's digits above its b-count.
    mask = (1 << bits) - 1
    polys_of: Dict[int, Dict[int, int]] = {}
    for key, count in tally.items():
        polys_of.setdefault(key >> bits, {})[c - 2 * (key & mask)] = count
    hole_sets = list(unit_of_set)
    laminar = set()
    alpha_powers = [ONE]
    out: Dict[Multicurve, Laurent] = {}
    for pattern, poly in polys_of.items():
        loops = [hs for i, hs in enumerate(hole_sets) for _ in range(pattern >> bits * i & mask)]
        m = tuple(sorted(hs for hs in loops if hs))
        if m not in laminar:
            if not is_laminar(m):
                raise AssertionError(f"state produced non-laminar family {m}")
            laminar.add(m)
        trivial = len(loops) - len(m)
        while len(alpha_powers) <= trivial:
            alpha_powers.append(alpha_powers[-1] * MINUS_ALPHA)
        accumulate(out, m, Laurent._of(poly) * alpha_powers[trivial])
    return out


def _crossing_groups(d: Diagram) -> List[Tuple[List[int], List[int]]]:
    """(polylines, crossings) of each crossing-connected group of curves."""
    parent = list(range(len(d.polylines)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for crossing in d.crossings:
        a = find(crossing.branches[0][0])
        b = find(crossing.branches[1][0])
        parent[a] = b
    groups: Dict[int, List[int]] = {}
    for pi in range(len(d.polylines)):
        groups.setdefault(find(pi), []).append(pi)
    group_cross: Dict[int, List[int]] = {g: [] for g in groups}
    for k, crossing in enumerate(d.crossings):
        group_cross[find(crossing.branches[0][0])].append(k)
    return [(polys, group_cross[g]) for g, polys in sorted(groups.items())]


def resolve(d: Diagram) -> SkeinElement:
    """Bracket state sum of a diagram, expanded in the multicurve basis."""
    # The state sum factors over the crossing-connected groups.
    total: Dict[Multicurve, Laurent] = {(): ONE}
    for polys, cross_ids in _crossing_groups(d):
        part = _resolve_component(d, polys, cross_ids)
        merged: Dict[Multicurve, Laurent] = {}
        for m1, c1 in total.items():
            for m2, c2 in part.items():
                accumulate(merged, tuple(sorted(m1 + m2)), c1 * c2)
        total = merged
    for m in total:
        if not is_laminar(m):
            raise AssertionError(f"non-laminar resolution term {m}")
    return SkeinElement(d.board, total)


# ---------------------------------------------------------------------------
# Canonical crossingless diagrams for basis multicurves


class _Node:
    __slots__ = ("holes", "hole_set", "kids", "sigma", "profile", "span")

    def __init__(self, holes: Component, copy_index: int):
        self.holes = holes
        self.hole_set = frozenset(holes)
        self.kids: List["_Node"] = []
        self.sigma = (holes[0], holes[-1], len(holes), holes, copy_index)
        self.profile: Dict[int, Tuple[int, int]] = {}
        self.span = (holes[0], holes[-1])


def _laminar_forest(components: Multicurve) -> List[_Node]:
    """Copies of a component nest in a chain; each chain hangs inside the
    innermost copy of its smallest strict superset, the first in order."""
    distinct = sorted(set(components))
    chains = {c: [_Node(c, i) for i in range(components.count(c))] for c in distinct}
    roots: List[_Node] = []
    for comp, chain in chains.items():
        for outer, inner in zip(chain, chain[1:]):
            outer.kids.append(inner)
        best = min((o for o in distinct if set(comp) < set(o)), key=len, default=None)
        (roots if best is None else chains[best][-1].kids).append(chain[0])
    for chain in chains.values():
        for node in chain:
            node.kids.sort(key=lambda k: k.sigma)
    roots.sort(key=lambda r: r.sigma)
    return roots


def _exact(num: int, div: int) -> int:
    """num / div, which the layout's denominator makes whole."""
    q, r = divmod(num, div)
    if r:
        raise AssertionError(f"layout value {num}/{div} is not whole")
    return q


def _place_kids(kids: List[_Node], s: int, lo: int, hi: int, pin: Optional[int]) -> None:
    """Profiles at column `s` of the `kids` inside the band (lo, hi); a
    `pin` keeps all but the kid enclosing hole `s` off (-pin, pin)."""
    present = [k for k in kids if k.span[0] <= s <= k.span[1]]
    if not present:
        return
    if pin is not None:
        central = next((k for k in present if s in k.hole_set), None)
        below = [k for k in present if central is None or k.sigma < central.sigma]
        above = [k for k in present if central is not None and k.sigma > central.sigma]
        qb = _exact(-pin - lo, 4 * (len(below) + 1))
        qa = _exact(hi - pin, 4 * (len(above) + 1))
        for j, kid in enumerate(below):
            _assign(kid, s, lo + (4 * j + 1) * qb, lo + (4 * j + 3) * qb, pin)
        for j, kid in enumerate(above):
            _assign(kid, s, pin + (4 * j + 5) * qa, pin + (4 * j + 7) * qa, pin)
        if central is not None:
            _assign(central, s, -pin - 3 * qb, pin + 3 * qa, pin)
    else:
        q = _exact(hi - lo, 4 * (len(present) + 1))
        for j, kid in enumerate(present):
            _assign(kid, s, lo + (4 * j + 1) * q, lo + (4 * j + 3) * q, None)


def _assign(node: _Node, s: int, lo: int, hi: int, pin: Optional[int]) -> None:
    node.profile[s] = (lo, hi)
    _place_kids(node.kids, s, lo, hi, pin if s in node.hole_set else None)


def _node_polyline(node: _Node, den: int, ext: int, q38: int, q58: int) -> List[Tuple[int, int]]:
    """The band of `node`, its caps `ext` beyond its end holes' centres."""
    s0, s1 = node.span
    lo, hi = zip(*(node.profile[s] for s in range(s0, s1 + 1)))
    x_left, x_right = s0 * den - ext, s1 * den + ext

    def steps(ys: Sequence[int]) -> List[Tuple[int, int]]:
        # where a profile moves between two columns, left to right
        out: List[Tuple[int, int]] = []
        for i, x in enumerate(range(s0 * den, s1 * den, den)):
            if ys[i] != ys[i + 1]:
                out += [(x + q38, ys[i]), (x + q58, ys[i + 1])]
        return out

    ends = [(x_right, lo[-1]), (x_right, hi[-1])]
    return [(x_left, lo[0]), *steps(lo), *ends, *steps(hi)[::-1], (x_left, hi[0])]


def _layout_den(nodes: List[_Node]) -> int:
    """What a strip shared by `nodes` must be a multiple of: `_place_kids`
    cuts it into 4(k + 1) parts, k <= len(nodes), each cut again by kids."""
    kids = [_layout_den(node.kids) for node in nodes]
    return 4 * math.lcm(*range(2, len(nodes) + 2)) * math.lcm(*kids) if nodes else 1


def _canonical_bands(
    m: Iterable[Iterable[int]], board: Board
) -> Tuple[int, List[List[Tuple[int, int]]]]:
    """The canonical layout of a multicurve: one denominator, and the
    whole numerators over it of the polylines' coordinates, outermost
    first.  `_fraction_polys` turns them into points.

    Each component becomes an x-monotone closed band: horizontal top and
    bottom profiles constant near each hole column, joined by vertical
    caps.  At a column the band either straddles the hole (enclosing it)
    or passes entirely below/above it; nesting follows the laminar
    forest, and a fixed per-sibling order keeps the bands disjoint.
    """
    roots = _laminar_forest(canonical_multicurve(m, board))
    order = list(roots)
    for node in order:  # breadth first, as the loop reads what it appends
        order.extend(node.kids)
    total = len(order)
    # The roots share gaps of 3/16 beside the pin, the caps step by
    # 1/(8(total + 1)), and 16 clears every constant's denominator.
    den = math.lcm(16 * _layout_den(roots), 8 * (total + 1))
    consts = (_PIN, _HALF, HOLE_RADIUS, _Q38, _Q58, Fraction(1, 8 * (total + 1)))
    pin, half, radius, q38, q58, cap = (_exact(den * c.numerator, c.denominator) for c in consts)
    for s in range(1, board.n_holes + 1):
        _place_kids(roots, s, -half, half, pin)
    exts = [radius + (total - k) * cap for k in range(total)]
    return den, [_node_polyline(node, den, ext, q38, q58) for node, ext in zip(order, exts)]


def _fraction_polys(den: int, polys: Sequence[Sequence[Tuple[int, int]]]) -> List[Sequence[Point]]:
    """Polylines of whole numerators over `den` as `Fraction` points, one
    `Fraction` made per distinct numerator."""
    frac = {v: Fraction(v, den) for v in {v for poly in polys for p in poly for v in p}}
    return [tuple((frac[x], frac[y]) for x, y in poly) for poly in polys]


def canonical_diagram(m: Iterable[Iterable[int]], board: Board) -> Diagram:
    """Crossingless diagram resolving to exactly 1 times the multicurve,
    with the bands of `_canonical_bands`.  They are disjoint by
    construction, so no crossing search is run."""
    polys = _fraction_polys(*_canonical_bands(m, board))
    d = Diagram.__new__(Diagram)
    d._build(board, polys, [f"k{i}" for i in range(len(polys))], [], [])
    return d


# ---------------------------------------------------------------------------
# Stacking product

_PERTURB_PRIMES = (
    1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049,
    1051, 1061, 1063, 1069, 1087, 1091, 1093, 1097,
)


def stacking_diagram(ma: Multicurve, mb: Multicurve, board: Board) -> Diagram:
    """Diagram of the product of two basis multicurves (first factor on top).

    When the combined family is already laminar the joint canonical
    diagram is crossing-free and used directly.  Otherwise the second
    factor is scaled by 1 + 1/p about (1/2, 1/3), that is x -> (2(p+1)x -
    1)/(2p) and y -> (3(p+1)y - 1)/(3p), for successive primes p until the
    overlay is in general position; every crossing is decorated
    first-factor-over-second.  Both layers are laid on one integer grid,
    of denominator lcm(den_a, 6 p den_b) for the factors' layout
    denominators, and become `Fraction`s once.
    """
    union = tuple(sorted(ma + mb))
    if is_laminar(union):
        return canonical_diagram(union, board)
    den_a, bands_a = _canonical_bands(ma, board)
    den_b, bands_b = _canonical_bands(mb, board)
    n_a = len(bands_a)
    ids = [f"a{i}" for i in range(n_a)] + [f"b{i}" for i in range(len(bands_b))]

    def a_over(pt: Point, br1: Branch, br2: Branch) -> int:
        first_is_a = br1[0] < n_a
        second_is_a = br2[0] < n_a
        if first_is_a == second_is_a:
            raise DiagramError(
                f"stacking overlay self-contact at {fmt_point(pt)}"
            )
        return 0 if first_is_a else 1

    last_error: Optional[Exception] = None
    for p in _PERTURB_PRIMES:
        den = math.lcm(den_a, 6 * p * den_b)
        ka, kx, ky = den // den_a, den // (2 * p * den_b), den // (3 * p * den_b)
        polys = [[(ka * x, ka * y) for x, y in poly] for poly in bands_a] + [
            [((2 * (p + 1) * x - den_b) * kx, (3 * (p + 1) * y - den_b) * ky) for x, y in poly]
            for poly in bands_b
        ]
        try:
            return Diagram.from_over_rule(board, _fraction_polys(den, polys), ids, a_over)
        except DiagramError as exc:
            last_error = exc
    raise DiagramError(
        f"general position failed after {len(_PERTURB_PRIMES)} perturbation "
        f"retries: {last_error}"
    )


@lru_cache(maxsize=8192)
def _basis_product(
    n_holes: int, ma: Multicurve, mb: Multicurve
) -> Tuple[Tuple[Multicurve, Laurent], ...]:
    board = Board(n_holes)
    d = stacking_diagram(ma, mb, board)
    result = resolve(d)
    return tuple(sorted(result.terms.items()))


def multiply(a: SkeinElement, b: SkeinElement) -> SkeinElement:
    """Stacking product: diagrams of `a` on top of diagrams of `b`."""
    a._check(b)
    out: Dict[Multicurve, Laurent] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            scale = ca * cb
            for m, coeff in _basis_product(a.board.n_holes, ma, mb):
                accumulate(out, m, scale * coeff)
    return SkeinElement(a.board, out)


# ---------------------------------------------------------------------------
# Identity verification and classical evaluation


@dataclass
class IdentityReport:
    ok: bool
    first_discrepancy: Optional[str] = None


def verify_skein_identity(
    lhs: Sequence[Tuple["Laurent | int", Diagram]],
    rhs: Sequence[Tuple["Laurent | int", Diagram]],
) -> IdentityReport:
    """Resolve both sides and compare basis expansions."""
    boards = {d.board for _, d in lhs} | {d.board for _, d in rhs}
    if len(boards) > 1:
        raise ValueError("identity mixes diagrams on different boards")
    board = boards.pop() if boards else Board(0)
    lhs_value = SkeinElement.zero(board)
    rhs_value = SkeinElement.zero(board)
    for coeff, d in lhs:
        lhs_value = lhs_value + resolve(d).scale(coeff)
    for coeff, d in rhs:
        rhs_value = rhs_value + resolve(d).scale(coeff)
    diff = lhs_value - rhs_value
    if diff.is_zero():
        return IdentityReport(True)
    m = min(diff.terms)
    detail = (
        f"{render_multicurve(m)}: lhs={lhs_value.terms.get(m, Laurent.zero()).render()} "
        f"rhs={rhs_value.terms.get(m, Laurent.zero()).render()}"
    )
    return IdentityReport(False, detail)


def _as_matrix(m: object) -> Matrix2[complex]:
    rows = [tuple(complex(v) for v in row) for row in m]  # type: ignore[union-attr]
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError("representation matrices must be 2x2")
    return (rows[0], rows[1])  # type: ignore[return-value]


def epsilon_of_element(a: SkeinElement, rho: Sequence[object]) -> complex:
    """Classical trace evaluation of a skein element.

    `rho` assigns a unit-determinant 2x2 complex matrix to each hole; a
    component enclosing holes i1 < ... < ik contributes
    -tr(rho[i1] ... rho[ik]), multicurve values multiply, and scalars are
    specialized at h = -1.
    """
    mats = [_as_matrix(m) for m in rho]
    if len(mats) != a.board.n_holes:
        raise ValueError(
            f"need {a.board.n_holes} matrices, got {len(mats)}"
        )
    for i, m in enumerate(mats, start=1):
        det = m2_det(m)
        if abs(det - 1) > 1e-9:
            raise ValueError(f"matrix for hole {i} has determinant {det}, not 1")
    value = 0j
    for m, coeff in a.terms.items():
        term = complex(coeff.specialize_classical())
        for comp in m:
            term *= -m2_trace(*(mats[i - 1] for i in comp))
        value += term
    return value

"""Tests for boards, diagrams, the bracket state sum, and stacking products."""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geometry_reference import (
    arc_points,
    fraction_find_crossings,
    path_winding,
    point_segment_dist2,
    segment_intersection,
    winding_contribution,
)
from oracles import (
    all_laminar_multisets,
    naive_epsilon,
    naive_resolve,
    naive_specialized_resolve,
    r1_kinked,
    r2_poked,
    random_diagrams,
    random_unimodular,
    spans_interleave,
)
from layout_reference import reference_bands, reference_overlay
from state_sum_reference import open_crossing_pairing, reference_groups
from skeinlab.geom import arc_windings, find_crossings
from skeinlab.ncrewrite import collar_algebra
from skeinlab.ring import Laurent
from skeinlab import skein
from skeinlab.skein import (
    MINUS_ALPHA,
    STATE_CAP,
    Board,
    Diagram,
    DiagramError,
    SkeinElement,
    canonical_diagram,
    canonical_multicurve,
    epsilon_of_element,
    is_laminar,
    multiply,
    parse_diagram,
    render_diagram,
    render_multicurve,
    resolve,
    stacking_diagram,
    verify_skein_identity,
)

F = Fraction
ONE = Laurent.one()
Q = Laurent.q_power(1)
QBAR = Laurent.q_power(-1)


def rect(x0, y0, x1, y1):
    """Counterclockwise rectangle with exact corners."""
    return [(F(x0), F(y0)), (F(x1), F(y0)), (F(x1), F(y1)), (F(x0), F(y1))]


# ---------------------------------------------------------------------------
# Geometry primitives


def test_segment_intersection_cases():
    p = (F(0), F(0))
    kind, pt, t, u = segment_intersection(p, (F(2), F(2)), (F(0), F(2)), (F(2), F(0)))
    assert kind == "point" and pt == (F(1), F(1)) and t == F(1, 2) and u == F(1, 2)
    assert segment_intersection(p, (F(1), F(0)), (F(0), F(1)), (F(1), F(1))) is None
    kind, _, _, _ = segment_intersection(p, (F(2), F(0)), (F(1), F(0)), (F(3), F(0)))
    assert kind == "overlap"
    # Endpoint contact reports t at the boundary; callers reject it.
    kind, pt, t, u = segment_intersection(p, (F(2), F(0)), (F(2), F(0)), (F(2), F(2)))
    assert kind == "point" and t == 1 and u == 0


def test_point_segment_distance_exact():
    d2 = point_segment_dist2((F(0), F(1)), (F(-1), F(0)), (F(1), F(0)))
    assert d2 == 1
    d2 = point_segment_dist2((F(3), F(4)), (F(-1), F(0)), (F(1), F(0)))
    assert d2 == 20  # nearest endpoint (1,0)


def test_winding_contribution_half_open():
    c = (F(0), F(0))
    up = winding_contribution((F(1), F(-1)), (F(1), F(1)), c)
    down = winding_contribution((F(1), F(1)), (F(1), F(-1)), c)
    assert up == -down != 0
    assert winding_contribution((F(-2), F(-1)), (F(-2), F(1)), c) == 0


# ---------------------------------------------------------------------------
# Boards, multicurves, elements


def test_board_validation():
    with pytest.raises(ValueError):
        Board(-1)


def test_laminar_predicate():
    assert is_laminar([(1, 2), (1, 2, 3)])
    assert is_laminar([(1,), (3,)])
    assert is_laminar([(1, 3), (2, 4)])  # disjoint as sets
    assert is_laminar([(1, 2), (1, 2)])
    assert not is_laminar([(1, 2), (2, 3)])


def test_canonical_multicurve_sorts_and_validates():
    b = Board(3)
    assert canonical_multicurve([[2, 1], [3]], b) == ((1, 2), (3,))
    with pytest.raises(ValueError):
        canonical_multicurve([[]], b)
    with pytest.raises(ValueError):
        canonical_multicurve([[4]], b)
    with pytest.raises(ValueError):
        canonical_multicurve([[1, 2], [2, 3]], b)


def test_render_multicurve():
    assert render_multicurve(((1, 3), (2,))) == "{1,3|2}"
    assert render_multicurve(()) == "{}"


def test_element_arithmetic_and_render():
    b = Board(2)
    x = SkeinElement.basis(b, [(1,)])
    y = SkeinElement.basis(b, [(2,)])
    z = x + y - x
    assert z == y
    assert (x - x).render() == "0"
    assert x.scale(2).render() == "+2 * {1}"
    both = x.scale(Q + QBAR) + y
    lines = both.render().splitlines()
    assert lines[0] == "(+1*q^{-1}+1*q^{1}) * {1}"
    assert lines[1] == "+1 * {2}"
    assert SkeinElement.unit(b).terms == {(): ONE}


# ---------------------------------------------------------------------------
# Diagram validation and the text format


def test_parse_render_roundtrip():
    text = (
        "board holes=1\n"
        "curve a : (5/8,-7/16) (11/8,-7/16) (11/8,7/16) (5/8,7/16)\n"
        "curve b : (9/16,-23/64) (23/16,-23/64) (23/16,33/64) (9/16,33/64)\n"
        "over : a a\n"
    )
    d = parse_diagram(text)
    assert d.board == Board(1)
    assert d.ids == ("a", "b")
    assert len(d.crossings) == 2
    again = parse_diagram(render_diagram(d))
    assert again.polylines == d.polylines
    assert again.over_tokens == d.over_tokens
    sd = stacking_diagram(((1, 2),), ((2, 3),), Board(3))
    rd = parse_diagram(render_diagram(sd))
    assert rd.polylines == sd.polylines and rd.over_tokens == sd.over_tokens


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DiagramError, match="line 1"):
        parse_diagram("curve a : (0,0) (1,0) (1,1)\n")
    with pytest.raises(DiagramError, match="line 2"):
        parse_diagram("board holes=0\ncurve a : (0,0) (1,0)\n")
    with pytest.raises(DiagramError, match="line 2"):
        parse_diagram("board holes=0\ncurve a : (0,0) (1/0,0) (1,1)\n")
    with pytest.raises(DiagramError, match="duplicate"):
        parse_diagram(
            "board holes=0\n"
            "curve a : (0,0) (1,0) (1,1)\n"
            "curve a : (5,5) (6,5) (6,6)\n"
            "over :\n"
        )
    with pytest.raises(DiagramError, match="crossing count mismatch"):
        parse_diagram("board holes=0\ncurve a : (0,0) (1,0) (1,1)\nover : a\n")


def test_geometry_validation_errors():
    b1 = Board(1)
    with pytest.raises(DiagramError, match="meets hole 1"):
        Diagram(b1, [rect("7/8", "-1/8", "9/8", "1/8")], [])
    b0 = Board(0)
    with pytest.raises(DiagramError, match="zero-length edge"):
        Diagram(b0, [[(F(0), F(0)), (F(0), F(0)), (F(1), F(0)), (F(1), F(1))]], [])
    with pytest.raises(DiagramError, match="at least 3 vertices"):
        Diagram(b0, [[(F(0), F(0)), (F(1), F(0))]], [])
    with pytest.raises(DiagramError, match="doubles back"):
        Diagram(b0, [[(F(0), F(0)), (F(2), F(0)), (F(1), F(0)), (F(1), F(1))]], [])
    # Two squares sharing a piece of an edge.
    with pytest.raises(DiagramError, match="collinear overlap"):
        Diagram(
            Board(0),
            [rect(0, 0, 2, 2), rect(1, 0, 3, -2)],
            [],
            ["a", "b"],
        )
    # Vertex of one curve in the interior of another's edge.
    with pytest.raises(DiagramError, match="non-transverse contact"):
        Diagram(
            Board(0),
            [
                rect(0, 0, 2, 2),
                [(F(1), F(0)), (F(3), F(-1)), (F(3), F(1))],
            ],
            [],
            ["a", "b"],
        )
    # Horizontal edge through the self-crossing of the second curve.
    with pytest.raises(DiagramError, match="triple point"):
        Diagram(
            Board(0),
            [
                [(F(-3), F(0)), (F(3), F(0)), (F(3), F(3)), (F(-3), F(3))],
                [(F(-1), F(-1)), (F(1), F(1)), (F(1), F(-1)), (F(-1), F(1))],
            ],
            [],
            ["a", "b"],
        )
    # A vertex landing on a non-adjacent edge of the same curve.
    with pytest.raises(DiagramError, match="contact between 'c0' and 'c0'"):
        Diagram(
            Board(0),
            [
                [
                    (F(0), F(0)),
                    (F(4), F(0)),
                    (F(4), F(2)),
                    (F(2), F(0)),
                    (F(2), F(-2)),
                    (F(0), F(-2)),
                ]
            ],
            [],
        )


# Points on a half-unit lattice make shared vertices, collinear overlaps,
# T-contacts and edges through hole centres common; free rationals make
# transverse crossings at awkward parameters.
_LATTICE = st.integers(-2, 12).map(lambda k: F(k, 2))
_COORD = st.one_of(_LATTICE, st.builds(F, st.integers(-60, 360), st.integers(50, 60)))
_POINT = st.tuples(_COORD, _COORD)


@st.composite
def _polylines(draw):
    """One to three closed polylines; some put their first edge through a
    shared centre, so that three of them make a triple point."""
    cx, cy = draw(st.tuples(_LATTICE, _LATTICE))
    polylines = []
    for _ in range(draw(st.integers(1, 3))):
        poly = draw(st.lists(_POINT, min_size=3, max_size=7))
        if draw(st.booleans()):
            vx, vy = draw(_POINT)
            poly[:2] = [(cx - vx, cy - vy), (cx + vx, cy + vy)]
        polylines.append(poly)
    return polylines


def _crossings_or_error(find, n_holes, polylines):
    ids = [f"c{i}" for i in range(len(polylines))]
    try:
        return find(n_holes, polylines, ids)
    except DiagramError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(n_holes=st.integers(0, 5), polylines=_polylines())
# An edge tangent to hole 1 from above, and one tangent at its right end.
@example(n_holes=1, polylines=[[(F(0), F(1, 4)), (F(2), F(1, 4)), (F(2), F(1))]])
@example(n_holes=2, polylines=[[(F(5, 4), F(-1)), (F(5, 4), F(1)), (F(3), F(1))]])
# Edges starting and ending on hole 1's rim.
@example(n_holes=1, polylines=[[(F(5, 4), F(0)), (F(2), F(1)), (F(2), F(-1))]])
@example(n_holes=1, polylines=[[(F(2), F(-1)), (F(5, 4), F(0)), (F(2), F(1))]])
# The closing edge continues the first one straight through vertex 0.
@example(n_holes=0, polylines=[[(F(1), F(0)), (F(2), F(0)), (F(2), F(2)), (F(0), F(0))]])
def test_find_crossings_matches_fraction_reference(n_holes, polylines):
    assert _crossings_or_error(find_crossings, n_holes, polylines) == _crossings_or_error(
        fraction_find_crossings, n_holes, polylines
    )


def test_find_crossings_exact_on_large_coprime_denominators():
    board = Board(5)
    da = canonical_diagram([(1, 2, 3), (4,)], board)
    db = canonical_diagram([(3, 4, 5), (2,)], board)
    cx, cy = F(1, 2), F(1, 3)
    scale = (1 + F(1, 1097)) * (1 + F(1, 1093))
    polylines = list(da.polylines) + [
        [(cx + scale * (x - cx), cy + scale * (y - cy)) for x, y in poly]
        for poly in db.polylines
    ]
    found = _crossings_or_error(find_crossings, 5, polylines)
    assert isinstance(found, list) and len(found) >= 4
    assert found == _crossings_or_error(fraction_find_crossings, 5, polylines)


# Parameters along an edge: midpoints of lattice edges lie on y = 0, and
# the 1097ths are the stacking overlay's awkward denominators.
_INNER_T = st.one_of(
    st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]), st.builds(F, st.integers(1, 1096), st.just(1097))
)


@st.composite
def _loop_and_points(draw):
    """A closed polyline on 0-5 holes and one to three distinct points on
    it, as sorted traversal parameters (edge index plus edge parameter)."""
    n_holes = draw(st.integers(0, 5))
    poly = draw(st.lists(_POINT, min_size=3, max_size=7))
    g = st.builds(lambda s, t: s + t, st.integers(0, len(poly) - 1), _INNER_T)
    return n_holes, poly, sorted(draw(st.lists(g, min_size=1, max_size=3, unique=True)))


def _check_windings(n_holes, poly, gs):
    lap = path_winding([*poly, poly[0]], n_holes)
    assert arc_windings(n_holes, poly, []) == [lap]
    arcs = [arc_points(poly, g1, g2) for g1, g2 in zip(gs, gs[1:] + gs[:1])]
    found = arc_windings(n_holes, poly, [(g, pts[0][1]) for g, pts in zip(gs, arcs)])
    assert len(found) == max(len(gs), 1)
    for g, pts, w in zip(gs, arcs, found):
        assert w == path_winding(pts, n_holes), g
    assert tuple(map(sum, zip(*found))) == lap


@settings(max_examples=300, deadline=None)
@given(case=_loop_and_points())
# A vertex on y = 0, then a vertical edge through hole 1's centre.
@example(case=(2, [(F(3, 2), F(-1)), (F(3, 2), F(0)), (F(3, 2), F(1)), (F(-1), F(1))], [F(1, 2)]))
@example(case=(2, [(F(1), F(-1)), (F(1), F(1)), (F(-1), F(1))], [F(1, 2), F(3, 2)]))
# A horizontal edge on y = 0.
@example(case=(3, [(F(0), F(0)), (F(5, 2), F(0)), (F(5, 2), F(1)), (F(0), F(1))], [F(5, 2)]))
# Points with y = 0 on an upward and on a downward edge.
@example(case=(3, rect(0, -1, 3, 1), [F(3, 2), F(7, 2)]))
# Two points on one edge: either side of y = 0 on an upward and on a
# downward edge, then both below it.
@example(case=(3, rect(0, -1, 3, 1), [F(5, 4), F(7, 4)]))
@example(case=(3, rect(0, -1, 3, 1), [F(13, 4), F(15, 4)]))
@example(case=(3, rect(0, -1, 3, 1), [F(9, 8), F(11, 8)]))
# One point: its arc wraps the whole loop.
@example(case=(3, rect(0, -1, 3, 1), [F(5, 4)]))
def test_winding_kernel_matches_fraction_reference(case):
    n_holes, poly, gs = case
    _check_windings(n_holes, poly, gs)


def test_winding_kernel_on_overlay_crossings():
    """The arcs between the crossings of a stacking overlay scaled by
    1 + 1/1097, whose coordinates have large coprime denominators."""
    board = Board(5)
    da = canonical_diagram([(1, 2, 3), (4,)], board)
    db = canonical_diagram([(3, 4, 5), (2,)], board)
    cx, cy = F(1, 2), F(1, 3)
    scale = 1 + F(1, 1097)
    polylines = list(da.polylines) + [
        [(cx + scale * (x - cx), cy + scale * (y - cy)) for x, y in poly]
        for poly in db.polylines
    ]
    contacts = find_crossings(5, polylines, [f"c{i}" for i in range(len(polylines))])
    assert len(contacts) >= 4
    for pi, poly in enumerate(polylines):
        gs = sorted(br[1] + br[2] for _, *branches, _ in contacts for br in branches if br[0] == pi)
        _check_windings(5, poly, gs)


def test_over_token_errors():
    kinked = r1_kinked(canonical_diagram([(1,)], Board(1)), 0, True)
    with pytest.raises(DiagramError, match="needs token"):
        Diagram(kinked.board, kinked.polylines, ["k0"], kinked.ids)
    two = [rect("5/8", "-7/16", "11/8", "7/16"), rect("9/16", "-23/64", "23/16", "33/64")]
    with pytest.raises(DiagramError, match="names neither"):
        Diagram(Board(1), two, ["a", "zzz"], ["a", "b"])


# ---------------------------------------------------------------------------
# Resolution: pinned values


def test_trivial_loop_and_single_hole_loop():
    b = Board(1)
    away = Diagram(b, [rect(3, 3, 4, 4)], [])
    assert resolve(away) == SkeinElement.unit(b).scale(MINUS_ALPHA)
    around = Diagram(b, [rect("5/8", "-7/16", "11/8", "7/16")], [])
    assert resolve(around) == SkeinElement.basis(b, [(1,)])


def test_positive_curl_calibration():
    # One positive kink on a trivial loop: value -q^{3/2} times a free loop.
    curl = [(-5, 0), (2, 0), (2, -2), (0, -2), (0, 3), (-5, 3)]
    poly = [(F(x), F(y)) for x, y in curl]
    b0 = Board(0)
    pos = resolve(Diagram(b0, [poly], ["c-"], ["c"]))
    assert pos.terms == {(): Laurent({5: 1, 1: 1})}
    neg = resolve(Diagram(b0, [poly], ["c+"], ["c"]))
    assert neg.terms == {(): Laurent({-5: 1, -1: 1})}


def test_orientation_reversal_invariance():
    curl = [(-5, 0), (2, 0), (2, -2), (0, -2), (0, 3), (-5, 3)]
    poly = [(F(x), F(y)) for x, y in curl]
    rev = [poly[0]] + poly[:0:-1]
    fwd = resolve(Diagram(Board(0), [poly], ["c-"], ["c"]))
    # Reversal renumbers the branches, so the token flips to keep the
    # same strand on top.
    bwd = resolve(Diagram(Board(0), [rev], ["c+"], ["c"]))
    assert fwd == bwd


# ---------------------------------------------------------------------------
# Resolution: local moves


_SPLICE_CASES = [
    (Board(1), [(1,)]),
    (Board(1), [(1,), (1,)]),
    (Board(2), [(1, 2), (2,)]),
    (Board(4), [(1, 3), (2, 4)]),
    (Board(5), [(2,), (1, 2, 3), (5,)]),
]


def test_r1_kink_scales_by_curl_factor():
    for board, comps in _SPLICE_CASES:
        base_d = canonical_diagram(comps, board)
        base = resolve(base_d)
        for comp_index in range(len(base_d.polylines)):
            for positive, e in ((True, 3), (False, -3)):
                kinked = r1_kinked(base_d, comp_index, positive)
                assert len(kinked.crossings) == 1
                assert resolve(kinked) == base.scale(Laurent.h_power(e, -1))


def test_r2_poke_scales_by_free_loop():
    for board, comps in _SPLICE_CASES:
        base_d = canonical_diagram(comps, board)
        base = resolve(base_d)
        for comp_index in range(len(base_d.polylines)):
            for rect_over in (True, False):
                poked = r2_poked(base_d, comp_index, rect_over)
                assert len(poked.crossings) == 2
                assert resolve(poked) == base.scale(MINUS_ALPHA)


def test_r2_two_loops_one_hole():
    # Two loops around the hole crossing twice with matched overs slide
    # apart into disjoint parallel loops.
    b = Board(1)
    curves = [
        rect("5/8", "-7/16", "11/8", "7/16"),
        rect("9/16", "-23/64", "23/16", "33/64"),
    ]
    expected = SkeinElement.basis(b, [(1,), (1,)])
    for tokens in (["a", "a"], ["b", "b"]):
        d = Diagram(b, curves, tokens, ["a", "b"])
        assert len(d.crossings) == 2
        assert resolve(d) == expected
        assert naive_resolve(d) == resolve(d).terms


_R3_A = [(-6, -4), (6, -4), (6, 0), (-6, 0)]
_R3_B = [(0, -5), (0, 5), (4, 5), (4, -5)]
_R3_C = {
    1: [(-3, -2), (2, 3), (2, 6), (-8, 6), (-8, -2)],
    2: [(-2, -3), (3, 2), (3, 6), (-8, 6), (-8, -3)],
}


def _r3_diagram(which, heights, scale, shift):
    sx, sy = shift
    polys = [
        [(scale * F(x) + sx, scale * F(y) + sy) for x, y in poly]
        for poly in (_R3_A, _R3_B, _R3_C[which])
    ]
    ids = ["a", "b", "c"]

    def over(pt, br1, br2):
        return 0 if heights[ids[br1[0]]] > heights[ids[br2[0]]] else 1

    return Diagram.from_over_rule(Board(0), polys, ids, over)


def test_r3_slide_invariance():
    # A full strand slides across a crossing it passes entirely over
    # (or entirely under); both diagrams resolve identically.
    rng = random.Random(11)
    for heights in ({"c": 3, "a": 2, "b": 1}, {"b": 3, "a": 2, "c": 1}):
        for _ in range(5):
            scale = F(rng.randint(1, 8), rng.randint(1, 8))
            shift = (F(rng.randint(-40, 40), 8), F(rng.randint(-40, 40), 8))
            d1 = _r3_diagram(1, heights, scale, shift)
            d2 = _r3_diagram(2, heights, scale, shift)
            assert len(d1.crossings) == 8 and len(d2.crossings) == 8
            report = verify_skein_identity([(1, d1)], [(1, d2)])
            assert report.ok, report.first_discrepancy
            assert report.first_discrepancy is None


def test_verify_identity_reports_discrepancy():
    b0 = Board(0)
    free = Diagram(b0, [rect(0, 0, 1, 1)], [])
    report = verify_skein_identity([(1, free)], [(Laurent.h_power(2), free)])
    assert not report.ok
    assert report.first_discrepancy.startswith("{}: ")


# ---------------------------------------------------------------------------
# Resolution: oracle equivalence on random diagrams


def test_resolve_matches_naive_enumeration():
    for d in random_diagrams(seed=20260401, count=25):
        got = resolve(d)
        assert got.terms == naive_resolve(d), render_diagram(d)


def test_r3_diagrams_match_naive_enumeration():
    d = _r3_diagram(1, {"c": 3, "a": 2, "b": 1}, F(1), (F(0), F(0)))
    assert resolve(d).terms == naive_resolve(d)


# ---------------------------------------------------------------------------
# Integer state kernel against the port-dict state loop

PRODUCTS_5H = Path(__file__).resolve().parent.parent / "perfbench" / "products_5h.json"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _assert_kernel_matches_reference(d):
    """Per group, the same multicurves with the same coefficient term maps."""
    got = [
        skein._resolve_component(d, polys, cross_ids)
        for polys, cross_ids in skein._crossing_groups(d)
    ]
    want = reference_groups(d)
    assert [{m: c.terms for m, c in g.items()} for g in got] == [
        {m: c.terms for m, c in g.items()} for g in want
    ], render_diagram(d)


def _products_5h_pairs():
    """The board and the 14 products-5h pairs of basis elements."""
    spec = json.loads(PRODUCTS_5H.read_text(encoding="utf-8"))
    board = Board(spec["n_holes"])
    pairs = [
        (canonical_multicurve(p["a"][0][1], board), canonical_multicurve(p["b"][0][1], board))
        for p in spec["products"]
        if len(p["a"]) == 1 and len(p["b"]) == 1
    ]
    assert len(pairs) == 14
    return board, pairs


def _products_5h_overlays():
    """Stacking diagrams of the 14 products-5h pairs of basis elements."""
    board, pairs = _products_5h_pairs()
    return [stacking_diagram(ma, mb, board) for ma, mb in pairs]


def test_state_kernel_matches_reference_on_products_5h_basis_pairs():
    for d in _products_5h_overlays():
        _assert_kernel_matches_reference(d)


@pytest.mark.parametrize("k", [1, 2])
def test_state_kernel_matches_reference_on_ladder(k):
    d = stacking_diagram(((1, 3),) * k, ((1, 2),) * k, Board(3))
    assert len(d.crossings) == {1: 4, 2: 12}[k]
    _assert_kernel_matches_reference(d)


def test_state_kernel_matches_reference_on_a_one_crossing_group():
    # The curl of `kink3` is a group of c = 1: one walk, no flip, and the
    # open crossing's two smoothings give both states.
    d = parse_diagram((GOLDEN / "kink3.diagram").read_text(encoding="utf-8"))
    assert [len(cross_ids) for _, cross_ids in skein._crossing_groups(d)] == [1]
    _assert_kernel_matches_reference(d)


def test_open_crossing_paths_pair_its_ports_like_a_smoothing():
    # The kernel leaves a group's last crossing open and closes its two
    # paths by its two smoothings only, with no straight-through case.
    # Here every crossing in turn is left open under a seeded random state
    # of the others, on the products-5h overlays and random diagrams.
    rng = random.Random(2024)
    seen = [0, 0]  # partial states whose paths pair like the a / b smoothing
    for d in _products_5h_overlays() + [
        d for seed in range(20) for d in random_diagrams(seed=seed, count=3)
    ]:
        for polys, cross_ids in skein._crossing_groups(d):
            for open_index in range(len(cross_ids)):
                state = rng.getrandbits(len(cross_ids))
                paths, smoothings = open_crossing_pairing(d, polys, cross_ids, open_index, state)
                assert paths in smoothings, render_diagram(d)
                seen[smoothings.index(paths)] += 1
    assert min(seen) > 100, seen


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_state_kernel_matches_reference_on_random_diagrams(seed):
    for d in random_diagrams(seed=seed, count=3):
        _assert_kernel_matches_reference(d)


@pytest.mark.parametrize("total", [1, 2, 3, 4, 7, 8])
def test_packed_windings_decode_exactly_at_the_width_limit(total):
    width = skein._field_width(total)
    for w in [(total, -total, 0), (-total, total, total), (total - 1, -total, 1)]:
        assert skein._unpack(skein._pack(w, width), 3, width) == w
    # A loop winding twice about a hole still trips the embedding check.
    if total >= 2:
        with pytest.raises(AssertionError, match="non-embedded"):
            skein._classify_windings(skein._unpack(skein._pack((0, total, 0), width), 3, width))


def test_state_kernel_keeps_the_laminar_check(monkeypatch):
    d = stacking_diagram(((1, 3),), ((1, 2),), Board(3))
    ((polys, cross_ids),) = skein._crossing_groups(d)
    monkeypatch.setattr(skein, "is_laminar", lambda comps: False)
    with pytest.raises(AssertionError, match="non-laminar family"):
        skein._resolve_component(d, polys, cross_ids)


def test_equal_coefficients_share_one_scalar():
    board = Board(2)
    e = SkeinElement(board, {((1,),): Laurent({1: 2}), ((2,),): Laurent({1: 2}), (): ONE})
    assert e.terms[((1,),)] is e.terms[((2,),)]
    assert e.terms[()] is not e.terms[((1,),)]


def test_specialization_commutes_with_resolution():
    # Substituting q^{1/2} -> -1 before or after the state sum agrees,
    # coefficient by coefficient.
    for d in random_diagrams(seed=7_031, count=12):
        spec = {
            m: c.specialize_classical() for m, c in resolve(d).terms.items()
        }
        spec = {m: v for m, v in spec.items() if v}
        assert spec == naive_specialized_resolve(d), render_diagram(d)


def test_state_cap_enforced():
    # The k=4 ladder is one group of 40 crossings: the cap refuses it
    # before visiting any of its 2^40 states.
    d = stacking_diagram(((1, 3),) * 4, ((1, 2),) * 4, Board(3))
    assert len(d.crossings) == 40 > STATE_CAP
    with pytest.raises(ValueError, match=f"has 40 crossings, exceeding the state cap {STATE_CAP}$"):
        resolve(d)


# ---------------------------------------------------------------------------
# Canonical crossing-free diagrams


def _searched_crossings(d):
    """The crossing search that `canonical_diagram` skips, run on its bands."""
    return find_crossings(d.board.n_holes, d.polylines, d.ids)


def test_layered_diagram_roundtrip_exhaustive_small():
    for n in range(5):
        board = Board(n)
        for m in all_laminar_multisets(n, 4):
            d = canonical_diagram(m, board)
            assert not d.crossings and not _searched_crossings(d), m
            assert resolve(d) == SkeinElement.basis(board, m), m


def test_layered_diagram_roundtrip_exhaustive_five_holes():
    # The integer layout equals the Fraction reference, coordinate by
    # coordinate, and renders to the md5 measured on the Fraction layout.
    board = Board(5)
    digest = hashlib.md5()
    for m in all_laminar_multisets(5, 4):
        d = canonical_diagram(m, board)
        assert not d.crossings and not _searched_crossings(d), m
        assert resolve(d) == SkeinElement.basis(board, m), m
        assert d.polylines == tuple(reference_bands(m, board)), m
        assert all(type(c) is F for poly in d.polylines for p in poly for c in p), m
        digest.update(render_diagram(d).encode())
    assert digest.hexdigest() == "21859b4482cdf352016a5d4b7b98b110"


def _random_laminar(rng, n_holes, n_comps):
    comps = []
    while len(comps) < n_comps:
        comp = tuple(sorted(rng.sample(range(1, n_holes + 1), rng.randint(1, n_holes))))
        if is_laminar(comps + [comp]):
            comps.append(comp)
    return tuple(sorted(comps))


@pytest.mark.parametrize("n_holes", [5, 6])
def test_canonical_bands_of_many_components_do_not_cross(n_holes):
    # beyond the exhaustive round trip's 4 components: stacking_diagram's
    # laminar branch draws the union of two factors' components
    rng = random.Random(f"bands-{n_holes}")
    board = Board(n_holes)
    for n_comps in range(5, 9):
        for _ in range(100):
            m = _random_laminar(rng, n_holes, n_comps)
            d = canonical_diagram(m, board)
            assert _searched_crossings(d) == [], m
            assert len(d.polylines) == n_comps and not d.crossings


@st.composite
def _deep_laminar(draw, n_holes=7, max_comps=8):
    """Laminar multicurves, mostly nested: each new component is drawn
    inside an earlier one or anywhere on the board, and kept if laminar."""
    comps = []
    for _ in range(draw(st.integers(1, max_comps))):
        if comps and draw(st.booleans()):
            outer = draw(st.sampled_from(comps))
            comp = draw(st.sets(st.sampled_from(outer), min_size=1))
        else:
            comp = draw(st.sets(st.integers(1, n_holes), min_size=1))
        comp = tuple(sorted(comp))
        if is_laminar(comps + [comp]):
            comps.append(comp)
    return tuple(sorted(comps))


@settings(max_examples=150, deadline=None)
@given(m=_deep_laminar())
@example(m=((4,),) * 8)
@example(m=tuple((h,) for h in range(1, 8)) + ((1, 2, 3, 4, 5, 6, 7),))
@example(m=((1, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6), (2, 3, 4, 5, 6), (2, 3, 4, 5),
            (3, 4, 5), (3, 4), (4,), (4,)))
def test_integer_layout_matches_fraction_reference_deep(m):
    # deeper nesting than the 4-component exhaustive test reaches
    board = Board(7)
    polylines = canonical_diagram(m, board).polylines
    assert list(polylines) == reference_bands(m, board)
    assert all(type(c) is F for poly in polylines for p in poly for c in p), m


@pytest.mark.parametrize("prime", [1009, 1013, 1097])
def test_integer_overlay_matches_fraction_reference(monkeypatch, prime):
    # One prime at a time: the first is the overlay's usual one, and the
    # others are the arithmetic its general-position retries run.
    monkeypatch.setattr(skein, "_PERTURB_PRIMES", (prime,))
    board5, pairs5 = _products_5h_pairs()
    cases = [(board5, ma, mb) for ma, mb in pairs5]
    rng = random.Random(f"overlay-{prime}")
    for n_holes in (3, 4, 5):
        board = Board(n_holes)
        for _ in range(30):
            ma = _random_laminar(rng, n_holes, rng.randint(1, 4))
            mb = _random_laminar(rng, n_holes, rng.randint(1, 4))
            cases.append((board, ma, mb))
    overlays = 0
    for board, ma, mb in cases:
        if is_laminar(ma + mb):
            continue
        d = stacking_diagram(ma, mb, board)
        assert list(d.polylines) == reference_overlay(ma, mb, board, prime), (ma, mb)
        assert all(type(c) is F for poly in d.polylines for p in poly for c in p)
        overlays += 1
    assert overlays >= 40, overlays


def test_interleaved_components_stay_disjoint():
    # {1,3} and {2,4} interleave along the board yet never cross; the
    # band enclosing {1,3} passes beside hole 2 with zero winding there.
    board = Board(4)
    m = ((1, 3), (2, 4))
    d = canonical_diagram(m, board)
    assert not d.crossings and not _searched_crossings(d)
    assert resolve(d) == SkeinElement.basis(board, m)
    deep = ((1, 3), (1, 3), (2, 4))
    d2 = canonical_diagram(deep, board)
    assert not d2.crossings and not _searched_crossings(d2)
    assert resolve(d2) == SkeinElement.basis(board, deep)


# ---------------------------------------------------------------------------
# Stacking products


def test_multiply_unit_and_scalars():
    rng = random.Random(5)
    b = Board(3)
    unit = SkeinElement.unit(b)
    choices = all_laminar_multisets(3, 3)
    for _ in range(25):
        m = choices[rng.randrange(len(choices))]
        x = SkeinElement.basis(b, m)
        assert multiply(unit, x) == x
        assert multiply(x, unit) == x
        assert multiply(x.scale(Q), unit.scale(2)) == x.scale(Q + Q)
    assert multiply(SkeinElement.zero(b), unit) == SkeinElement.zero(b)


def test_multiply_board_mismatch():
    with pytest.raises(ValueError, match="different boards"):
        multiply(SkeinElement.unit(Board(1)), SkeinElement.unit(Board(2)))


def test_one_hole_products_are_polynomial():
    # Around a single hole the stacking product is literally polynomial:
    # parallel copies concatenate and nothing ever crosses.
    b = Board(1)
    def power(k):
        return SkeinElement.basis(b, [(1,)] * k)
    for i in range(7):
        for j in range(7 - i):
            sd = stacking_diagram(((1,),) * i, ((1,),) * j, b)
            assert not sd.crossings
            assert multiply(power(i), power(j)) == power(i + j)
    acc = SkeinElement.unit(b)
    z = power(1)
    for k in range(1, 7):
        acc = multiply(acc, z)
        assert acc == power(k)


def test_stacking_diagram_layers_first_factor_on_top():
    sd = stacking_diagram(((1, 2),), ((2, 3),), Board(3))
    assert len(sd.crossings) >= 2
    a_ids = {i for i in sd.ids if i.startswith("a")}
    assert all(tok in a_ids for tok in sd.over_tokens)
    laminar = stacking_diagram(((1,),), ((1, 2),), Board(2))
    assert not laminar.crossings


def test_associativity_on_faithful_boards():
    # With at most two holes every embedded loop class is pinned by its
    # enclosed subset, so collapsing between steps loses nothing and the
    # stacking product composes associatively.
    rng = random.Random(90210)
    for n in (1, 2):
        b = Board(n)
        choices = all_laminar_multisets(n, 2)
        for _ in range(12):
            x, y, z = (
                SkeinElement.basis(b, choices[rng.randrange(len(choices))])
                for _ in range(3)
            )
            left = multiply(multiply(x, y), z)
            right = multiply(x, multiply(y, z))
            assert left == right, (x.render(), y.render(), z.render())


def test_associativity_for_laminar_triples():
    # When all three factors stay jointly laminar the product is plain
    # multiset union, associative outright.
    b = Board(3)
    triples = [
        ([(1,)], [(1, 2)], [(2,)]),
        ([(1, 2, 3)], [(2,), (2,)], [(1, 2, 3), (3,)]),
        ([(1,), (3,)], [(1, 2, 3)], [(2, 3)]),
    ]
    for ma, mb, mc in triples:
        x, y, z = (SkeinElement.basis(b, m) for m in (ma, mb, mc))
        union = SkeinElement.basis(b, list(ma) + list(mb) + list(mc))
        assert multiply(multiply(x, y), z) == union
        assert multiply(x, multiply(y, z)) == union


@pytest.mark.xfail(
    reason="enclosed-set classification merges loops with distinct hole "
    "routings, so re-expanding intermediate products from canonical "
    "representatives is lossy on 3+ holes; see ROADMAP item 3",
    strict=True,
)
def test_associativity_on_three_holes_random():
    rng = random.Random(90210)
    b = Board(3)
    choices = all_laminar_multisets(3, 2)
    for _ in range(25):
        x, y, z = (
            SkeinElement.basis(b, choices[rng.randrange(len(choices))])
            for _ in range(3)
        )
        left = multiply(multiply(x, y), z)
        right = multiply(x, multiply(y, z))
        assert left == right, (x.render(), y.render(), z.render())


def test_association_order_counterexample_pinned():
    # Both orders are faithful stepwise computations (each stacked
    # diagram matches the brute-force enumeration) yet they disagree:
    # the first product files clean and rerouted loops under one basis
    # multicurve, and the canonical representative multiplies on
    # differently afterwards.
    b = Board(3)
    x = SkeinElement.basis(b, [(1,), (2, 3)])
    y = SkeinElement.basis(b, [(1, 2), (2,)])
    z = SkeinElement.basis(b, [(1, 3), (2,)])
    xy = multiply(x, y)
    assert xy == (
        SkeinElement.basis(b, [(1,), (1, 3), (2,)]).scale(Q + QBAR)
        + SkeinElement.basis(b, [(1,), (1, 2, 3), (2,), (2,)])
        + SkeinElement.basis(b, [(1,), (1,), (2,), (3,)])
    )
    left = multiply(xy, z)
    right = multiply(x, multiply(y, z))
    assert left == (
        SkeinElement.basis(b, [(1,), (1, 3), (1, 3), (2,), (2,)]).scale(Q + QBAR)
        + SkeinElement.basis(b, [(1,), (1, 2, 3), (1, 3), (2,), (2,), (2,)])
        + SkeinElement.basis(b, [(1,), (1,), (1, 3), (2,), (2,), (3,)])
    )
    assert right == (
        SkeinElement.basis(b, [(1,), (2,), (2,), (2, 3), (2, 3)]).scale(Q + QBAR)
        + SkeinElement.basis(b, [(1,), (1,), (1, 2, 3), (2,), (2,), (2, 3)])
        + SkeinElement.basis(b, [(1,), (2,), (2,), (2,), (2, 3), (3,)])
    )
    assert left != right


def test_product_of_overlapping_bands_pinned():
    # The two-band product resolves into the subset basis with a bubble
    # coefficient q + q^{-1} on the merged band.
    b = Board(3)
    prod = multiply(
        SkeinElement.basis(b, [(1, 2)]), SkeinElement.basis(b, [(2, 3)])
    )
    expected = (
        SkeinElement.basis(b, [(1, 3)]).scale(Q + QBAR)
        + SkeinElement.basis(b, [(2,), (1, 2, 3)])
        + SkeinElement.basis(b, [(1,), (3,)])
    )
    assert prod == expected


# ---------------------------------------------------------------------------
# Classical evaluation


def test_epsilon_basic_values():
    b = Board(2)
    m1 = ((0.0, 1.0), (-1.0, 0.0))
    m2 = ((2.0, 0.0), (0.0, 0.5))
    unit = SkeinElement.unit(b)
    assert epsilon_of_element(unit, (m1, m2)) == 1
    x1 = SkeinElement.basis(b, [(1,)])
    assert epsilon_of_element(x1, (m1, m2)) == -0.0  # trace of m1 is 0
    x2 = SkeinElement.basis(b, [(2,)])
    assert epsilon_of_element(x2, (m1, m2)) == -2.5
    pair = SkeinElement.basis(b, [(1, 2), (2,)])
    # -tr(m1 m2) times -tr(m2)
    assert epsilon_of_element(pair, (m1, m2)) == pytest.approx(0.0)
    scaled = x2.scale(Q + QBAR)
    assert epsilon_of_element(scaled, (m1, m2)) == pytest.approx(-5.0)


def test_epsilon_rejects_bad_input():
    b = Board(2)
    unit = SkeinElement.unit(b)
    with pytest.raises(ValueError):
        epsilon_of_element(unit, (((1, 0), (0, 1)),))
    with pytest.raises(ValueError, match="determinant"):
        epsilon_of_element(unit, (((1, 0), (0, 1)), ((2, 0), (0, 1))))


def test_epsilon_matches_honest_holonomy_on_two_holes():
    # With at most two holes every embedded loop is determined by its
    # enclosed subset, so evaluating sorted-subset words agrees with
    # evaluating the loops' actual words.
    rng = random.Random(314)
    for d in random_diagrams(seed=909, count=14, max_holes=2):
        mats = tuple(random_unimodular(rng) for _ in range(d.board.n_holes))
        got = epsilon_of_element(resolve(d), mats)
        want = naive_epsilon(d, mats)
        assert got == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))


def test_epsilon_matches_honest_holonomy_on_layered_diagrams():
    # Span-laminar families are drawn as round curves, so the sorted
    # subset word is the actual holonomy word.
    rng = random.Random(2718)
    choices = [m for m in all_laminar_multisets(5, 3) if not spans_interleave(m)]
    board = Board(5)
    for _ in range(30):
        m = choices[rng.randrange(len(choices))]
        mats = tuple(random_unimodular(rng) for _ in range(5))
        d = canonical_diagram(m, board)
        got = epsilon_of_element(SkeinElement.basis(board, m), mats)
        want = naive_epsilon(d, mats)
        assert got == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))


def test_epsilon_misses_rerouting_of_interleaved_components():
    # {2,4} and {3,5} overlap without nesting, so no disjoint round pair
    # exists: the drawn {3,5} curve detours over hole 4 and its holonomy
    # is a conjugate g3*(g4 g5 g4^-1), which the sorted-subset formula
    # cannot distinguish from g3*g5.
    board = Board(5)
    m = ((2, 4), (3, 5))
    assert spans_interleave(m)
    d = canonical_diagram(m, board)
    mats = (
        ((0, 1), (-1, 0)),
        ((1, 2), (0, 1)),
        ((1, 0), (3, 1)),
        ((2, 1), (1, 1)),
        ((1, 1), (1, 2)),
    )
    got = epsilon_of_element(SkeinElement.basis(board, m), mats)
    want = naive_epsilon(d, mats)
    # engine: (-tr(g2 g4)) * (-tr(g3 g5)) = (-5) * (-6)
    # honest: (-tr(g2 g4)) * (-tr(g3 g4 g5 g4^-1)) = (-5) * (-18)
    assert got == pytest.approx(30.0)
    assert want == pytest.approx(90.0)


def test_epsilon_multiplicative_for_laminar_factors():
    rng = random.Random(424242)
    b = Board(3)
    pairs = [
        ([(1,)], [(2, 3)]),
        ([(1, 2)], [(1, 2), (1,)]),
        ([(1, 2, 3)], [(2,)]),
        ([(1,), (3,)], [(1, 2, 3)]),
    ]
    for ma, mb in pairs:
        x = SkeinElement.basis(b, ma)
        y = SkeinElement.basis(b, mb)
        for _ in range(5):
            mats = tuple(random_unimodular(rng) for _ in range(3))
            lhs = epsilon_of_element(multiply(x, y), mats)
            rhs = epsilon_of_element(x, mats) * epsilon_of_element(y, mats)
            assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))


def test_collar_rules_are_skein_identities():
    """Each rule (a, b) -> [(coeff, word)] of `collar_algebra` holds in the
    state sum on 3 holes, with t1, x and l1 the curves around {1,2}, {2,3}
    and {1,3} and c, cp the boundary terms of t1*x and x*l1; the rules are
    read from the presentation's own table.  Scaling one replacement
    coefficient by q must break the identity.  The hole-set basis makes
    t1*x equal x*t1, so this cannot see routing; ROADMAP item 8 stage 2
    checks the ordered products once curve classes are faithful."""
    b = Board(3)

    def curve(*comps):
        return SkeinElement.basis(b, comps)

    spec = collar_algebra()
    elements = {
        "t1": curve((1, 2)),
        "x": curve((2, 3)),
        "l1": curve((1, 3)),
        "c": curve((1,), (3,)) + curve((2,), (1, 2, 3)),
        "cp": curve((1,), (2,)) + curve((3,), (1, 2, 3)),
    }
    gens = [elements[name] for name in spec.generators]

    def combination(replacement):
        total = SkeinElement.zero(b)
        for coeff, word in replacement:
            product = gens[word[0]]
            for g in word[1:]:
                product = multiply(product, gens[g])
            total = total + product.scale(coeff)
        return total

    assert len(spec.rules) == 2
    for (left, right), replacement in spec.rules.items():
        product = multiply(gens[left], gens[right])
        assert product == combination(replacement)
        (coeff, word), *rest = replacement
        assert product != combination([(coeff * Q, word), *rest])


def test_subset_basis_forgets_routing():
    # Pinned witness: the two-band product's single-loop states carry
    # words g1*g3 and g1*g2*g3*g2^{-1}; the subset basis files both
    # under {1,3}, so the classical evaluation of the product differs
    # from the honest diagram evaluation by tr(g1*g3) - tr(g1*g2*g3*g2^{-1}).
    b = Board(3)
    g1 = ((0.0, 1.0), (-1.0, 0.0))
    g2 = ((2.0, 0.0), (0.0, 0.5))
    g3 = ((0.0, 1.0), (-1.0, 1.0))
    mats = (g1, g2, g3)
    x = SkeinElement.basis(b, [(1, 2)])
    y = SkeinElement.basis(b, [(2, 3)])
    d = stacking_diagram(((1, 2),), ((2, 3),), b)
    honest = naive_epsilon(d, mats)
    collapsed = epsilon_of_element(multiply(x, y), mats)
    product = epsilon_of_element(x, mats) * epsilon_of_element(y, mats)
    assert honest == pytest.approx(product, abs=1e-9)
    assert collapsed == pytest.approx(-2.25, abs=1e-12)
    assert abs(collapsed - honest) == pytest.approx(2.25, abs=1e-12)

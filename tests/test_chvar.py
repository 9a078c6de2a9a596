"""Tests for the trace-calculus constructions and classical evaluations."""

import cmath
import itertools
import math
import random
import re

import numpy as np
import pytest

from numeric_oracles import (
    build_X1_point,
    build_X1_point_direct,
    epsilon_l_direct,
    epsilon_u_direct,
    gamma_values,
    third_numpy,
    third_with_traces,
)
from skeinlab import chvar, cli
from skeinlab.chvar import (
    bridge_representation,
    build_X1_points,
    epsilon_basics,
    epsilon_torsion_elements,
    fricke_f,
    nonvanishing_scan,
    pair_with_traces,
    solve_t123,
    zero_locus_roots,
)
from skeinlab.cheby import cheb_sine
from skeinlab.skein import Board, SkeinElement, epsilon_of_element


# numpy arrays or chvar's row pairs
def _tr(m):
    return complex(m[0][0] + m[1][1])


def _det(m):
    return complex(m[0][0] * m[1][1] - m[0][1] * m[1][0])


def _inv(m):
    return np.array([[m[1][1], -m[0][1]], [-m[1][0], m[0][0]]], dtype=complex)


def _random_sl2(rng):
    while True:
        g = np.array(
            [[rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(2)] for _ in range(2)],
            dtype=complex,
        )
        d = _det(g)
        if abs(d) > 1e-3:
            return g / np.sqrt(d)


def _random_trace_t(rng, t):
    lam = (t + cmath.sqrt(t * t - 4)) / 2
    g = _random_sl2(rng)
    return g @ np.diag([lam, 1 / lam]).astype(complex) @ _inv(g)


def _random_t(rng):
    # keep well away from +-2
    while True:
        t = rng.uniform(-3.5, 3.5) + 1j * rng.uniform(-1.0, 1.0)
        if abs(t - 2) > 0.3 and abs(t + 2) > 0.3:
            return t


def test_fricke_vanishes_on_trace_t_triples():
    rng = random.Random(4821)
    for _ in range(10):
        t = _random_t(rng)
        for _ in range(100):
            a1, a2, a3 = (_random_trace_t(rng, t) for _ in range(3))
            val = fricke_f(
                _tr(a1 @ a2),
                _tr(a1 @ a3),
                _tr(a2 @ a3),
                _tr(a1 @ a2 @ a3),
                t,
            )
            assert abs(val) < 1e-8


def test_pair_with_traces_hits_targets():
    rng = random.Random(77)
    for _ in range(50):
        t = _random_t(rng)
        t12 = rng.uniform(-4, 4) + 1j * rng.uniform(-2, 2)
        if abs(t12 - 2) < 0.1 or abs(t12 - (t * t - 2)) < 0.1:
            continue
        a1, a2 = map(np.array, pair_with_traces(t, t12))
        assert abs(_tr(a1) - t) < 1e-12
        assert abs(_tr(a2) - t) < 1e-12
        assert abs(_tr(a1 @ a2) - t12) < 1e-10
        assert abs(_det(a1) - 1) < 1e-12
        assert abs(_det(a2) - 1) < 1e-12
        comm = _tr(a1 @ a2 @ _inv(a1) @ _inv(a2))
        assert abs(comm - 2) > 1e-8


@pytest.mark.parametrize(
    "t,t12",
    [
        (2.0, 1.3),
        (-2.0, 1.3),
        (1.5, 2.0),
        (1.5, 1.5 * 1.5 - 2),
    ],
)
def test_pair_with_traces_rejects_degenerate(t, t12):
    with pytest.raises(ValueError):
        pair_with_traces(t, t12)


def test_solve_t123_vieta_and_plugback():
    rng = random.Random(31)
    for _ in range(40):
        t = _random_t(rng)
        t12, t13, t23 = (
            rng.uniform(-3, 3) + 1j * rng.uniform(-1, 1) for _ in range(3)
        )
        r1, r2 = solve_t123(t12, t13, t23, t)
        assert abs(fricke_f(t12, t13, t23, r1, t)) < 1e-7
        assert abs(fricke_f(t12, t13, t23, r2, t)) < 1e-7
        assert abs(r1 + r2 + t * (t * t - t12 - t13 - t23)) < 1e-9


def test_third_with_traces_roundtrip():
    rng = random.Random(88)
    for _ in range(30):
        t = _random_t(rng)
        t12 = rng.uniform(-3, 3) + 0.5j
        if abs(t12 - 2) < 0.2 or abs(t12 - (t * t - 2)) < 0.2:
            continue
        a1, a2 = pair_with_traces(t, t12)
        t13 = rng.uniform(-3, 3) - 0.3j
        t23 = rng.uniform(-3, 3) + 0.1j
        t123 = solve_t123(t12, t13, t23, t)[rng.randrange(2)]
        a1, a2, a3 = map(np.array, (a1, a2, third_with_traces(a1, a2, t, t13, t23, t123)))
        assert abs(_det(a3) - 1) < 1e-9
        assert abs(_tr(a3) - t) < 1e-9
        assert abs(_tr(a1 @ a3) - t13) < 1e-9
        assert abs(_tr(a2 @ a3) - t23) < 1e-9
        assert abs(_tr(a1 @ a2 @ a3) - t123) < 1e-9


def test_third_with_traces_rejects_non_root():
    a1, a2 = pair_with_traces(1.4, 0.9)
    t123 = solve_t123(0.9, 1.1, -0.5, 1.4)[0]
    with pytest.raises(ValueError, match="determinant"):
        third_with_traces(a1, a2, 1.4, 1.1, -0.5, t123 + 0.37)


def test_trefoil_bridge_traces():
    for t in (1.2, 1.5 + 0.2j, -1.1 + 0.4j):
        sols = bridge_representation(1, 3, t)
        assert sols
        for u, v in (map(np.array, pair) for pair in sols):
            assert abs(_tr(u) - t) < 1e-8
            assert abs(_tr(v) - t) < 1e-8
            w = u @ v  # relator word for b = 3
            assert np.max(np.abs(w @ u - v @ w)) < 1e-6
            s = _tr(u @ v)
            # the trefoil pins tr(uv) up to the s <-> t^2 - s symmetry
            assert min(abs(s - 1), abs(s - (t * t - 1))) < 1e-6


def test_figure_eight_bridge_has_two_solutions():
    t = 1.3
    sols = bridge_representation(3, 5, t)
    assert len(sols) == 2
    for u, v in (map(np.array, pair) for pair in sols):
        w = u @ _inv(v) @ _inv(u) @ v  # exponents +,-,-,+ for slope 3/5
        assert np.max(np.abs(w @ u - v @ w)) < 1e-6
        comm = _tr(u @ v @ _inv(u) @ _inv(v))
        assert abs(comm - 2) > 1e-6


def test_even_numerator_bridge_matches_its_odd_slope():
    # 2/5 and 3/5 close to the same two-bridge knot, so their traces agree
    t = 1.3
    even = [_tr(np.matmul(u, v)) for u, v in bridge_representation(2, 5, t)]
    odd = [_tr(np.matmul(u, v)) for u, v in bridge_representation(3, 5, t)]
    assert len(even) == len(odd) == 2
    for s in even:
        assert min(abs(s - o) for o in odd) < 1e-9
        assert min(abs(s - w) for w in (1.345 + 0.7556j, 1.345 - 0.7556j)) < 1e-4


def test_bridge_representation_rejections():
    with pytest.raises(ValueError, match="b > 2"):
        bridge_representation(1, 2, 1.4)
    with pytest.raises(ValueError, match="lowest terms"):
        bridge_representation(2, 4, 1.4)
    with pytest.raises(ValueError, match=f"b <= {chvar.MAX_SLOPE_DENOMINATOR}"):
        bridge_representation(1, chvar.MAX_SLOPE_DENOMINATOR + 1, 1.4)


def _sample_b(rng, t):
    radius = rng.uniform(0.5, 2.5)
    phase = rng.uniform(0, 2 * math.pi)
    return t * t + radius * cmath.exp(1j * phase)


def test_build_X1_point_traces_and_branches():
    rng = random.Random(9)
    t = 2 * math.cos(0.8)
    tangles = ((1, 3),) * 4
    for _ in range(5):
        b = _sample_b(rng, t)
        seen = set()
        for b1 in (0, 1):
            for b2 in (0, 1):
                point = build_X1_point(tangles, t, b, (b1, b2))
                d = point.data
                assert abs(d.t24 - b) < 1e-9
                for i, m in enumerate(point.x, start=1):
                    assert abs(_det(m) - 1) < 1e-9
                    assert abs(_tr(m) - t) < 1e-9
                # Cayley-Hamilton pins the inverse-pair trace
                x2, x4 = np.array(point.x[1]), np.array(point.x[3])
                assert abs(_tr(_inv(x2) @ x4) - (t * t - b)) < 1e-9
                seen.add((round(d.t124.real, 6), round(d.t124.imag, 6),
                          round(d.t234.real, 6), round(d.t234.imag, 6)))
        assert len(seen) == 4


def test_build_X1_point_rejects_degenerate_b():
    t = 1.4
    with pytest.raises(ValueError):
        build_X1_point((0.9, 0.9, 0.9, 0.9), t, t * t - 2)


def test_build_X1_point_validates_input_shape():
    with pytest.raises(ValueError, match="four tangles"):
        build_X1_point((0.9, 0.9), 1.4, 0.5)
    with pytest.raises(ValueError, match="two bits"):
        build_X1_point((0.9,) * 4, 1.4, 0.5, (0, 2))


_BRANCHES = ((0, 0), (0, 1), (1, 0), (1, 1))


def _same_branch(got, want):
    if isinstance(want, str):
        return isinstance(got, ValueError) and str(got) == want
    return (
        got.branches == want.branches
        and got.x == want.x
        and vars(got.data) == vars(want.data)
    )


def test_build_X1_points_match_the_direct_route():
    # Each branch must equal the one built alone, bit for bit, and fail
    # where it fails with the same message.  Zero-locus roots of the
    # symmetric family lie on the reducible locus (a failure every branch
    # shares); points just off them give singular trace systems, which
    # each branch reports.  The two fixed points, found by a search near
    # b = 2 and near the roots, fail branch by branch: det x1 or det x3
    # lands just past 1e-9, and the message a branch gives depends on the
    # order of the checks.  Where the determinant lands is a matter of
    # rounding, so a change to the elimination moves these points.
    rng = random.Random(2024)
    symmetric, mixed = ((1, 3),) * 4, ((1, 3), (1, 5), (3, 7), 0.4 + 0.3j)
    cases = [
        (symmetric, 0.4797532436531643, [2.0003369011631498 + 0.0009415400184104698j]),
        (mixed, -1.7259758420732123, [0.9780751708277172 + 0.00039788201583765563j]),
    ]
    for tangles in (symmetric, mixed):
        for _ in range(4):
            t = 2 * math.cos(rng.uniform(0.3, math.pi - 0.3))
            d = build_X1_point_direct(tangles, t, _sample_b(rng, t), (0, 0)).data
            roots = zero_locus_roots(t, d.t12, d.t41) + zero_locus_roots(t, d.t23, d.t34)
            cases.append((tangles, t, [_sample_b(rng, t), *roots, *(r + 1e-6 for r in roots)]))
    shared = per_branch = built = 0
    split = []
    for tangles, t, b_values in cases:
        for b in b_values:
            want = []
            for branch in _BRANCHES:
                try:
                    want.append(build_X1_point_direct(tangles, t, b, branch))
                except ValueError as exc:
                    want.append(str(exc))
            try:
                got = build_X1_points(tangles, t, b)
            except ValueError as exc:
                assert want == [str(exc)] * 4
                shared += 1
                continue
            assert len(got) == 4
            for k, branch in enumerate(_BRANCHES):
                assert _same_branch(got[k], want[k])
                if isinstance(want[k], str):
                    per_branch += 1
                else:
                    built += 1
            if len({type(w) for w in want}) == 2:
                split.append(b)
    assert shared and per_branch and built
    # the fixed points are the ones whose branches part ways
    assert split == [cases[0][2][0], cases[1][2][0]]


def test_scan_shares_work_between_branches(monkeypatch):
    counts = {"solve": 0, "columns": 0, "points": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            if name == "solve":
                counts["columns"] += len(args[1])
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(chvar, "_solve", counting("solve", chvar._solve))
    monkeypatch.setattr(chvar, "build_X1_points", counting("points", chvar.build_X1_points))
    rng = random.Random(314)
    t = 2 * math.cos(0.8)
    grid = [_sample_b(rng, t) for _ in range(32)]
    nonvanishing_scan(((1, 3),) * 4, t, grid)
    # one call per b: two trace systems eliminated, each for the roots it serves
    assert counts["points"] == 32
    assert 0 < counts["solve"] <= 2 * 32 and 0 < counts["columns"] <= 4 * 32


def test_build_X1_points_agree_with_numpy_solve():
    # chvar's elimination on the ten distinct traces against numpy's solve
    # on all sixteen: the same points up to rounding
    rng = random.Random(77)
    for tangles in (((1, 3),) * 4, ((1, 3), (1, 5), (3, 7), 0.4 + 0.3j)):
        for _ in range(6):
            t = 2 * math.cos(rng.uniform(0.3, math.pi - 0.3))
            b = _sample_b(rng, t)
            for k, got in enumerate(build_X1_points(tangles, t, b)):
                want = build_X1_point_direct(tangles, t, b, _BRANCHES[k], third_numpy)
                for m, w in zip(got.x, want.x):
                    assert np.allclose(m, w, rtol=1e-9, atol=1e-9)
                for field, value in vars(got.data).items():
                    assert abs(value - getattr(want.data, field)) < 1e-9 * max(1, abs(value))


def _first_bridge_traces(slope, ts):
    return [
        [_tr(np.matmul(u, v)) for u, v in bridge_representation(*slope, t)] for t in ts
    ]


def _cli_t_values(seeds):
    # the trace values `chvar scan` and `verify all` sample at these seeds
    ts = []
    for seed in seeds:
        rng = random.Random(f"{seed}:chvar-t")
        ts.extend(cli._sample_t(rng) for _ in range(8))
    return ts


@pytest.mark.parametrize("slope", [(1, 3), (1, 5), (3, 7), (2, 5), (2, 7), (3, 5)])
def test_bridge_roots_match_numpy(slope, monkeypatch):
    # the same representations, in the same order, when numpy finds the roots
    ts = [1.2, 1.3, 1.5 + 0.2j, -1.1 + 0.4j, *_cli_t_values(range(8))]
    ours = _first_bridge_traces(slope, ts)
    monkeypatch.setattr(
        chvar, "_roots", lambda coeffs: list(map(complex, np.roots(coeffs[::-1])))
    )
    for t, got, want in zip(ts, ours, _first_bridge_traces(slope, ts)):
        assert len(got) == len(want), t
        assert all(abs(g - w) < 1e-9 for g, w in zip(got, want)), t


def test_bridge_mirror_slopes_solve_at_the_default_scan_traces():
    # the controls of the two pins below
    ts = _cli_t_values([0])
    assert all(bridge_representation(1, 4, t) for t in ts)
    assert bridge_representation(1, 31, ts[0])


@pytest.mark.xfail(strict=True, raises=ValueError, reason="known defect: 3/4 finds no root")
def test_bridge_slope_3_4_solves_at_the_default_scan_traces():
    # Pinned: at all 8 traces `chvar scan` samples at seed 0, 3/4 raises
    # "no irreducible solution" while its mirror 1/4 solves at each.
    for t in _cli_t_values([0]):
        assert bridge_representation(3, 4, t)


@pytest.mark.xfail(strict=True, raises=ValueError, reason="known defect: 2/31 finds no root")
def test_bridge_slope_2_31_solves_at_the_first_default_scan_trace():
    # Pinned: at t0 ~ -1.773002, the first trace `chvar scan` samples at
    # seed 0, 2/31 raises "no irreducible solution" while 1/31 solves.
    (t0, *_) = _cli_t_values([0])
    assert abs(t0 + 1.773002) < 1e-6
    assert bridge_representation(2, 31, t0)


def test_bridge_root_order_survives_rounding(monkeypatch):
    # For real t the relator's coefficients are real, so its complex roots
    # come in conjugate pairs whose real parts agree only up to rounding.
    ts = _cli_t_values([2])
    chosen = [s[0] for s in _first_bridge_traces((3, 7), ts)]
    assert any(abs(s.imag) > 0.1 for s in chosen)
    roots = chvar._roots
    for shift in (1e-13, -1e-13):
        monkeypatch.setattr(
            chvar, "_roots", lambda c: [z + shift if z.imag > 0 else z for z in roots(c)]
        )
        moved = [s[0] for s in _first_bridge_traces((3, 7), ts)]
        assert all(abs(a - b) < 1e-9 for a, b in zip(moved, chosen))


def test_epsilon_band_formulas_match_direct_traces():
    t = 2 * math.cos(0.7)
    b = _sample_b(random.Random(12), t)
    for tangles in (((1, 3),) * 4, ((1, 3), (1, 5), (3, 7), 0.4 + 0.3j)):
        for branches in ((0, 0), (0, 1), (1, 0), (1, 1)):
            point = build_X1_point(tangles, t, b, branches)
            basics = epsilon_basics(point)
            for i in range(1, 5):
                assert abs(basics.eps_l[i - 1] - epsilon_l_direct(point, i)) < 1e-9
                assert abs(basics.eps_u[i - 1] - epsilon_u_direct(point, i)) < 1e-9
            assert basics.eps_t == -t
            assert abs(basics.eps_x - (point.data.t24 - t * t)) < 1e-12


def test_hole_set_basis_cannot_write_l2_pinned():
    """Pins the hole-set basis's gap: at rho = (x1, x2^-1, x3, x4^-1) on 4
    holes, eps(u_2) is the basis curve {1,2,3}, but eps(l_2), a curve
    around the same three holes routed the other way, is none of the 15
    hole-set curves, so no torsion candidate's factor u_2 - l_2 can be
    written.  Faithful curve classes (ROADMAP item 3) swap this pin for a
    test that writes l_2 and checks it."""
    t = 2 * math.cos(0.7)
    b = cli._sample_b(random.Random(12), t)
    board = Board(4)
    hole_sets = [s for k in range(1, 5) for s in itertools.combinations(range(1, 5), k)]
    for branches in ((0, 0), (0, 1), (1, 0), (1, 1)):
        point = build_X1_point(((1, 3), (1, 5), (3, 7), 0.4 + 0.3j), t, b, branches)
        x1, x2, x3, x4 = point.x
        rho = (x1, _inv(x2), x3, _inv(x4))
        eps = {s: epsilon_of_element(SkeinElement.basis(board, [s]), rho) for s in hole_sets}
        assert abs(eps[(1, 2, 3)] - epsilon_u_direct(point, 2)) < 1e-9
        # nearest curve at 1.72, 1.04, 0.200 and 0.594 on the four branches
        assert min(abs(v - epsilon_l_direct(point, 2)) for v in eps.values()) > 0.1


def test_epsilon_invariant_under_conjugation():
    rng = random.Random(21)
    t = 2 * math.cos(1.1)
    point = build_X1_point(((1, 3),) * 4, t, _sample_b(rng, t))
    g = _random_sl2(rng)
    for i in range(1, 5):
        a, m, c = (
            np.array(point.x[(i - 2) % 4]),
            np.array(point.x[(i - 1) % 4]),
            np.array(point.x[i % 4]),
        )
        direct = -_tr(_inv(a) @ m @ _inv(c))
        moved = -_tr(
            _inv(g @ a @ _inv(g)) @ (g @ m @ _inv(g)) @ _inv(g @ c @ _inv(g))
        )
        assert abs(direct - moved) < 1e-9


def test_inverse_pair_trace_identity():
    rng = random.Random(33)
    for _ in range(30):
        x = _random_sl2(rng)
        y = _random_sl2(rng)
        want = _tr(x) * _tr(y) - _tr(x @ y)
        assert abs(_tr(_inv(x) @ y) - want) < 1e-9


def test_gamma_values_match_symbolic_family():
    for x in (2.3, 0.7 - 1.1j, -1.9 + 0.2j):
        numeric = gamma_values(x, 16)
        for n in range(1, 17):
            poly = cheb_sine(n)
            symbolic = sum(
                coeff.specialize_classical() * x ** mono[0]
                for mono, coeff in poly.terms.items()
            )
            assert abs(numeric[n - 1] - symbolic) < 1e-9 * max(1.0, abs(symbolic))


def test_torsion_family_products_and_ladder():
    rng = random.Random(55)
    t = 2 * math.cos(0.9)
    point = build_X1_point(((1, 3),) * 4, t, _sample_b(rng, t), (0, 1))
    basics = epsilon_basics(point)
    tor = epsilon_torsion_elements(point)
    diff = [basics.eps_u[i] - basics.eps_l[i] for i in range(4)]
    for i in range(1, 5):
        partner = (i + 2 - 1) % 4 + 1
        assert abs(
            tor.eps_e_family[i - 1] - diff[partner - 1] * (-diff[i - 1])
        ) < 1e-12
        assert abs(
            tor.eps_et_family[i - 1] - diff[partner - 1] * diff[i - 1]
        ) < 1e-12
    assert tor.eps_e == tor.eps_e_family[0]
    assert tor.eps_x == basics.eps_x
    # the ladder 2*eps(e)*gamma_n(eps(x)), against the sine family at h = -1
    ladder = [2 * tor.eps_e * g for g in gamma_values(tor.eps_x, 8)]
    for n in range(1, 9):
        symbolic = sum(
            coeff.specialize_classical() * tor.eps_x ** mono[0]
            for mono, coeff in cheb_sine(n).terms.items()
        )
        want = 2 * tor.eps_e * symbolic
        assert abs(ladder[n - 1] - want) < 1e-9 * max(1.0, abs(want))


def test_zero_locus_roots_kill_a_band_difference():
    t = 2 * math.cos(0.8)
    s = _tr(np.matmul(*bridge_representation(1, 3, t)[0]))
    c = t * t - s
    tested = 0
    for root in zero_locus_roots(t, c, c):
        best = math.inf
        for b1 in (0, 1):
            for b2 in (0, 1):
                try:
                    point = build_X1_point((s, s, s, s), t, root, (b1, b2))
                except ValueError:
                    continue
                basics = epsilon_basics(point)
                best = min(best, abs(basics.eps_u[0] - basics.eps_l[0]))
        if best < math.inf:
            tested += 1
            assert best < 1e-6
    assert tested >= 1


def test_nonvanishing_scan_reports():
    rng = random.Random(314)
    t = 2 * math.cos(0.8)
    grid = [_sample_b(rng, t) for _ in range(40)]
    report = nonvanishing_scan(((1, 3),) * 4, t, grid)
    assert report.nonvanish_fraction >= 0.95
    assert len(report.records) == 40
    assert len(report.quad_roots) == 4
    for rec in report.records:
        if rec.eps_e_min_abs <= 1e-6:
            assert min(abs(rec.b - r) for r in report.quad_roots) < 1e-6
    # each candidate is generically nonvanishing on at least one branch;
    # any other branch fraction is exactly 0.0 (identically vanishing
    # component of the fully symmetric tangle family)
    for label, fractions in report.sibling_fractions:
        assert max(fractions) >= 0.95
        for frac in fractions:
            assert frac >= 0.95 or frac == 0.0
    degenerate = {
        label: tuple(k for k, frac in enumerate(fractions) if frac == 0.0)
        for label, fractions in report.sibling_fractions
    }
    # mixed branches are rigid for the even-indexed candidates here
    assert degenerate["e2"] == (1, 2)
    assert degenerate["e4"] == (1, 2)
    assert degenerate["etilde2"] == (1, 2)
    assert degenerate["etilde4"] == (1, 2)
    assert degenerate["e1"] == ()
    assert degenerate["etilde3"] == ()
    lines = report.render().splitlines()
    assert len(lines) == 40
    for line, rec in zip(lines, report.records):
        match = re.fullmatch(r"b=(\S+) eps_e=(\S+)", line)
        assert match, line
        assert complex(match[1]) == pytest.approx(rec.b, rel=1e-8)
        assert complex(match[2]) == pytest.approx(rec.eps_e, rel=1e-8)


def test_nonvanishing_scan_rejects_small_grid():
    with pytest.raises(ValueError, match="32"):
        nonvanishing_scan((0.9,) * 4, 1.4, [2.5, 2.6])


def test_scan_is_deterministic():
    rng = random.Random(99)
    t = 2 * math.cos(1.0)
    grid = [_sample_b(rng, t) for _ in range(32)]
    a = nonvanishing_scan(((1, 3),) * 4, t, grid).render()
    b = nonvanishing_scan(((1, 3),) * 4, t, list(grid)).render()
    assert a == b

"""Tests for the exact scalar ring and the polynomial layer."""

import random
from typing import Dict

import pytest
from hypothesis import given, settings, strategies as st

from skeinlab.fixtures import parse_scalar
from skeinlab.ncrewrite import NcElement, collar_algebra, exterior_algebra
from skeinlab.ring import (
    CPoly,
    Laurent,
    NonExactDivision,
    Q,
    QINV,
    Q_MINUS_QINV,
    Q_PLUS_QINV,
    accumulate,
    m2_adj,
    m2_det,
    m2_mul,
    m2_trace,
    q_power_diff,
    q_power_sum,
)
from skeinlab.skein import Board, SkeinElement


def random_laurent(rng: random.Random, allow_zero: bool = True) -> Laurent:
    n = rng.randint(0, 4)
    terms = {rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(n)}
    value = Laurent(terms)
    if not allow_zero and value.is_zero():
        return Laurent.one()
    return value


def random_cpoly(rng: random.Random, vars=("x", "y")) -> CPoly:
    n = rng.randint(0, 4)
    terms = {}
    for _ in range(n):
        mono = tuple(rng.randint(0, 3) for _ in vars)
        terms[mono] = random_laurent(rng)
    return CPoly(vars, terms)


def test_constants() -> None:
    assert Q == Laurent({2: 1})
    assert QINV == Laurent({-2: 1})
    assert Q * QINV == Laurent.one()
    assert Q + QINV == Q_PLUS_QINV
    assert Q - QINV == Q_MINUS_QINV
    assert q_power_diff(3) == Laurent({6: 1, -6: -1})
    assert q_power_sum(0) == Laurent.integer(2)
    assert q_power_diff(0).is_zero()


def test_zero_coefficients_dropped() -> None:
    assert Laurent({3: 0, 1: 2}).terms == {1: 2}
    assert (Laurent({1: 2}) - Laurent({1: 2})).is_zero()


def test_accumulate_drops_zero_sums() -> None:
    acc = {}
    accumulate(acc, "a", Q)
    accumulate(acc, "b", QINV)
    accumulate(acc, "c", Laurent.zero())
    assert acc == {"a": Q, "b": QINV}
    accumulate(acc, "a", -Q)
    accumulate(acc, "b", QINV)
    assert acc == {"b": QINV * 2}


def test_evaluate_known_point() -> None:
    # At h = i the scalar q + 1/q becomes i^2 + i^(-2) = -2.
    assert Q_PLUS_QINV.evaluate(1j) == pytest.approx(-2)
    assert Laurent.h_power(3).evaluate(2.0) == pytest.approx(8.0)
    assert Laurent.h_power(-2).evaluate(2.0) == pytest.approx(0.25)


def test_specialize_classical() -> None:
    assert Q_PLUS_QINV.specialize_classical() == 2
    assert Q_MINUS_QINV.specialize_classical() == 0
    assert Laurent.h_power(1).specialize_classical() == -1
    assert Laurent.h_power(3, 5).specialize_classical() == -5
    assert Laurent.integer(7).specialize_classical() == 7


def test_arithmetic_matches_numeric_model() -> None:
    # The symbolic ring and complex evaluation must commute.
    rng = random.Random(20260817)
    for _ in range(300):
        a = random_laurent(rng)
        b = random_laurent(rng)
        h = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        va, vb = a.evaluate(h), b.evaluate(h)
        assert (a + b).evaluate(h) == pytest.approx(va + vb)
        assert (a - b).evaluate(h) == pytest.approx(va - vb)
        assert (a * b).evaluate(h) == pytest.approx(va * vb)
        assert (a**3).evaluate(h) == pytest.approx(va**3)


def test_divide_exact_roundtrip() -> None:
    rng = random.Random(7)
    for _ in range(200):
        a = random_laurent(rng)
        b = random_laurent(rng, allow_zero=False)
        assert (a * b).divide_exact(b) == a


def test_divide_exact_units() -> None:
    # Monomials are units: q / q^2 = 1/q exactly.
    assert Q.divide_exact(Laurent.q_power(2)) == QINV


def test_divide_exact_failures() -> None:
    with pytest.raises(NonExactDivision):
        Q_PLUS_QINV.divide_exact(Q_MINUS_QINV)
    with pytest.raises(NonExactDivision):
        Laurent.integer(3).divide_exact(Laurent.integer(2))
    with pytest.raises(ZeroDivisionError):
        Laurent.one().divide_exact(Laurent.zero())


def test_render_known_forms() -> None:
    assert Laurent.zero().render() == "0"
    assert Q_PLUS_QINV.render() == "+1*q^{-1}+1*q^{1}"
    assert Laurent.h_power(3).render() == "+1*q^{3/2}"
    assert Laurent.h_power(-1, -2).render() == "-2*q^{-1/2}"
    assert Laurent.integer(5).render() == "+5"
    assert (Laurent.integer(-1) + Q).render() == "-1+1*q^{1}"


def test_parse_roundtrip() -> None:
    rng = random.Random(11)
    for _ in range(200):
        a = random_laurent(rng)
        assert parse_scalar(a.render()) == a
    assert parse_scalar("0").is_zero()
    assert parse_scalar(" +1*q^{1} + 1*q^{-1} ") == Q_PLUS_QINV
    assert parse_scalar("q^{1}") == parse_scalar("+1*q^1") == Q


def test_parse_rejects_garbage() -> None:
    for bad in ("+1*q^{1/3}", "1 + junk"):
        with pytest.raises(ValueError, match="cannot parse scalar"):
            parse_scalar(bad)


def test_cpoly_basic_algebra() -> None:
    vars = ("x",)
    x = CPoly.variable("x", vars)
    one = CPoly.one(vars)
    assert (x + one) * (x - one) == x * x - one
    assert (x + one) ** 2 == x * x + 2 * x + one


def test_cpoly_distributivity_random() -> None:
    rng = random.Random(23)
    for _ in range(100):
        a, b, c = (random_cpoly(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_cpoly_divide_exact_roundtrip() -> None:
    rng = random.Random(31)
    count = 0
    while count < 100:
        a = random_cpoly(rng)
        b = random_cpoly(rng)
        if b.is_zero():
            continue
        count += 1
        assert (a * b).divide_exact(b) == a


def test_cpoly_divide_exact_failure() -> None:
    vars = ("x",)
    x = CPoly.variable("x", vars)
    one = CPoly.one(vars)
    with pytest.raises(NonExactDivision):
        (x * x + one).divide_exact(x + one)


def test_cpoly_leading_term_graded_lex() -> None:
    vars = ("x", "y")
    p = CPoly(
        vars,
        {(2, 0): Laurent.one(), (1, 1): Laurent.integer(3), (0, 1): Laurent.one()},
    )
    mono, coeff = p.leading()
    # Total degree ties break lexicographically, so x^2 beats x*y.
    assert mono == (2, 0)
    assert coeff == Laurent.one()


def test_cpoly_extend_and_evaluate() -> None:
    rng = random.Random(41)
    p = random_cpoly(rng, vars=("x",))
    q = p.extend(("x", "r"))
    assert q.vars == ("x", "r")
    h = 1.1 + 0.2j
    assert q.evaluate(h, {"x": 0.7, "r": 3.0}) == pytest.approx(
        p.evaluate(h, {"x": 0.7})
    )


def test_cpoly_specialize_classical() -> None:
    vars = ("x",)
    p = CPoly(vars, {(1,): Q_MINUS_QINV, (0,): Q_PLUS_QINV})
    assert p.specialize_classical() == {(0,): 2}


# -- ring laws, as properties ---------------------------------------------------

laurents = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=4).map(Laurent)
monomials = st.builds(Laurent.h_power, st.integers(-8, 8), st.integers(-9, 9).filter(bool))
scalars = laurents | monomials
ints = st.integers(-5, 5)
VARS = ("x", "y")
cpolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), scalars, max_size=4
).map(lambda terms: CPoly(VARS, terms))


def assert_laurent_clean(*values: Laurent) -> None:
    for value in values:
        assert all(type(c) is int and c != 0 for c in value.terms.values()), value.terms
        assert all(type(e) is int for e in value.terms), value.terms


def assert_cpoly_clean(*values: CPoly) -> None:
    for value in values:
        assert all(not c.is_zero() for c in value.terms.values()), value.render()
        assert_laurent_clean(*value.terms.values())


@settings(max_examples=80, deadline=None)
@given(scalars, scalars, scalars, ints)
def test_laurent_ring_laws(a: Laurent, b: Laurent, c: Laurent, k: int) -> None:
    zero, one = Laurent.zero(), Laurent.one()
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + zero == a and a * one == a and one * a == a
    assert (a * zero).is_zero() and (zero * a).is_zero()
    assert (a - a).is_zero() and (a + (-a)).is_zero()
    assert a + k == k + a == a + Laurent.integer(k)
    assert a * k == k * a == a * Laurent.integer(k)
    assert k - a == Laurent.integer(k) - a
    assert_laurent_clean(a + b, a - b, -a, a * b, b * a, a * c, a * k, a + k, k - a, a - a)


@settings(max_examples=50, deadline=None)
@given(scalars, monomials)
def test_laurent_one_term_product_keeps_term_order(a: Laurent, m: Laurent) -> None:
    (em, cm), = m.terms.items()
    shifted = [(e + em, c * cm) for e, c in a.terms.items()]
    assert list((a * m).terms.items()) == shifted
    assert list((m * a).terms.items()) == shifted


def double_loop_product(a: Laurent, b: Laurent) -> Dict[int, int]:
    """Term map of a * b by the general double loop, zero sums dropped."""
    out: Dict[int, int] = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            nc = out.get(e1 + e2, 0) + c1 * c2
            if nc:
                out[e1 + e2] = nc
            else:
                out.pop(e1 + e2, None)
    return out


@settings(max_examples=100, deadline=None)
@given(monomials | scalars, monomials | scalars)
def test_laurent_product_matches_the_double_loop(a: Laurent, b: Laurent) -> None:
    # One-term factors take a one-comprehension path; term order included.
    assert list((a * b).terms.items()) == list(double_loop_product(a, b).items())
    assert_laurent_clean(a * b)


@settings(max_examples=80, deadline=None)
@given(scalars, scalars, scalars, ints)
def test_laurent_render_parse_and_hash(a: Laurent, b: Laurent, c: Laurent, k: int) -> None:
    for value in (a, a * b, a - b, a * k):
        assert parse_scalar(value.render()) == value
    assert hash(a + b) == hash(b + a)
    assert hash(a * (b + c)) == hash(a * b + a * c)
    assert Laurent.integer(k) == k and hash(Laurent.integer(k)) == hash(k)
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=40, deadline=None)
@given(cpolys, cpolys, cpolys, scalars, ints)
def test_cpoly_ring_laws(f: CPoly, g: CPoly, h: CPoly, s: Laurent, k: int) -> None:
    zero, one = CPoly.zero(VARS), CPoly.one(VARS)
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f + g == g + f and f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + zero == f and f * one == f
    assert (f * zero).is_zero()
    assert (f - f).is_zero() and (f + (-f)).is_zero()
    assert (f + g) * s == f * s + g * s
    assert f * k == k * f == f * CPoly.constant(k, VARS)
    assert hash(f + g) == hash(g + f)
    assert hash(f * (g + h)) == hash(f * g + f * h)
    assert_cpoly_clean(f + g, f - g, -f, f * g, f * s, s * f, f * k, f - f)


# -- the module arithmetic the three combination types share -----------------


def _skein_elements():
    board = Board(3)
    x = SkeinElement.basis(board, [(1, 2), (3,)]).scale(Q) + SkeinElement.basis(board, [(1,)])
    return x, SkeinElement.basis(Board(2), [(1,)]), "different boards"


def _nc_elements():
    spec = collar_algebra()
    t1, x = NcElement.generator(spec, "t1"), NcElement.generator(spec, "x")
    return x * t1 * Q_MINUS_QINV + t1, NcElement.generator(exterior_algebra(), "x"), (
        "different presentations"
    )


def _cpolys():
    x = CPoly.variable("x", ("x", "y"))
    y = CPoly.variable("y", ("x", "y"))
    return x * y * QINV - CPoly.constant(3, ("x", "y")), CPoly.one(("x",)), "variable mismatch"


@pytest.mark.parametrize("make", [_skein_elements, _nc_elements, _cpolys])
def test_combination_module_arithmetic(make) -> None:
    x, stranger, mismatch = make()
    assert len(x.terms) == 2 and x and not x.is_zero()
    zero = x - x
    assert zero.is_zero() and not zero and zero.terms == {}
    assert x + zero == x and -(-x) == x
    assert 2 * x == x + x == x.scale(2) == x * 2
    assert x.scale(0).is_zero() and (Laurent.zero() * x).is_zero()
    assert Q * x == x.scale(Q) and (Q * x).terms == {k: c * Q for k, c in x.terms.items()}
    copy = (x + x) - x
    assert copy is not x and copy == x and hash(copy) == hash(x)
    assert x != x.scale(-1) and x != stranger
    assert repr(x) == f"{type(x).__name__}({x.render()!r})"
    for op in (lambda: x + stranger, lambda: x - stranger, lambda: stranger + x):
        with pytest.raises(ValueError, match=mismatch):
            op()
    for other in (1, Laurent.one(), "x"):
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            other + x
    with pytest.raises(TypeError):
        x * 1.5


# -- 2x2 helpers ----------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b",
    [
        (((2, 3), (5, 7)), ((1, -4), (0, 6))),
        (
            ((Q, Laurent.integer(1)), (QINV - 2, Laurent.h_power(3))),
            ((Q_PLUS_QINV, Laurent.h_power(-1, 5)), (Laurent.integer(-2), Q_MINUS_QINV)),
        ),
    ],
)
def test_m2_helpers(a, b) -> None:
    for m in (a, b):
        d = m2_det(m)
        assert m2_mul(m, m2_adj(m)) == m2_mul(m2_adj(m), m) == ((d, 0), (0, d))
        assert m2_trace(m) == m[0][0] + m[1][1]
        assert m2_adj(m2_adj(m)) == m
    assert m2_trace(a, b) == m2_trace(b, a)
    assert m2_trace(a, b, a) == m2_trace(m2_mul(a, b), a) == m2_trace(a, a, b)
    assert m2_det(m2_mul(a, b)) == m2_det(a) * m2_det(b)

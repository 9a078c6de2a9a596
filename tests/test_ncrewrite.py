"""Tests for the rewriting engine, the matrix lemma, and the element
derivations."""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from nc_oracles import unresolved_overlaps, walk_normalize
from skeinlab.ncrewrite import (
    NcAlgebraSpec,
    NcElement,
    _band_coefficient,
    _route_b_input,
    collar_algebra,
    derive_e_n,
    exterior_algebra,
    matrix_cosine,
    matrix_cosine_closed,
    twisted_companion,
    verify_commute_many,
    verify_matrix_lemma,
)
from skeinlab.cheby import VARS_X, VARS_XR, boundary_form
from skeinlab.ring import CPoly, Laurent, Q, QINV, Q_PLUS_QINV, m2_mul


def random_element(rng: random.Random, spec: NcAlgebraSpec, max_len: int = 5) -> NcElement:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        word = tuple(
            rng.randrange(len(spec.generators)) for _ in range(rng.randint(0, max_len))
        )
        terms[word] = Laurent({rng.randint(-3, 3): rng.randint(-5, 5)})
    return NcElement(spec, terms)


def test_rules_must_decrease() -> None:
    with pytest.raises(ValueError):
        NcAlgebraSpec("bad", ("a", "b"), {(1, 0): [(Laurent.one(), (1, 0))]})
    with pytest.raises(ValueError):
        NcAlgebraSpec("bad", ("a", "b"), {(1, 0): [(Laurent.one(), (1, 1))]})
    # A genuinely decreasing rule is accepted.
    NcAlgebraSpec("ok", ("a", "b"), {(1, 0): [(Laurent.one(), (0, 1))]})
    # Central letters in a replacement do not count against the order.
    NcAlgebraSpec("ok", ("a", "b", "z"), {(1, 0): [(Laurent.one(), (0, 2, 2))]}, ("z",))


def test_rule_keyed_on_central_generator_is_rejected() -> None:
    with pytest.raises(ValueError, match="central"):
        NcAlgebraSpec("bad", ("a", "z"), {(1, 0): [(Laurent.one(), ())]}, ("z",))
    with pytest.raises(ValueError, match="central"):
        NcAlgebraSpec("bad", ("a", "z"), {(0, 1): [(Laurent.one(), ())]}, ("z",))


def test_collar_single_step() -> None:
    spec = collar_algebra()
    nf = spec.normal_form_word(spec.word("x", "t1"))
    expected = {
        spec.word("t1", "x"): Laurent.q_power(2),
        spec.word("l1"): QINV - Laurent.q_power(3),
        spec.word("c"): Laurent.one() - Laurent.q_power(2),
    }
    assert nf == expected


def test_collar_normal_words_have_trailing_x() -> None:
    # A normal word is its non-central letters followed by a sorted tail of
    # the central c and cp; among the non-central letters x occurs only as
    # a suffix block, since x moves right past t1 and l1.
    rng = random.Random(20260817)
    spec = collar_algebra()
    xg = spec.index("x")
    for _ in range(80):
        elem = random_element(rng, spec).normalize()
        for word in elem.terms:
            name = spec.word_names(word)
            k = len(word)
            while k and word[k - 1] in spec.central:
                k -= 1
            head, tail = word[:k], word[k:]
            assert list(tail) == sorted(tail), f"unsorted central tail in {name}"
            assert not spec.central & set(head), f"central letter inside {name}"
            first_x = head.index(xg) if xg in head else len(head)
            assert set(head[first_x:]) <= {xg}, f"x inside word {name}"


def test_confluence_leftmost_vs_rightmost() -> None:
    rng = random.Random(7)
    for spec in (collar_algebra(), exterior_algebra()):
        for _ in range(60):
            elem = random_element(rng, spec)
            rightmost = walk_normalize(elem, rightmost=True)
            assert walk_normalize(elem) == rightmost
            assert elem.normalize() == rightmost


@st.composite
def spec_elements(draw, spec: NcAlgebraSpec, max_len: int = 6) -> NcElement:
    words = st.lists(st.integers(0, len(spec.generators) - 1), max_size=max_len).map(tuple)
    scalars = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=3)
    terms = draw(st.dictionaries(words, scalars.map(Laurent), min_size=1, max_size=4))
    return NcElement(spec, terms)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normalize_matches_both_reference_walkers(data) -> None:
    for spec in (collar_algebra(), exterior_algebra()):
        elem = data.draw(spec_elements(spec))
        nf = elem.normalize()
        assert nf == walk_normalize(elem)
        assert nf == walk_normalize(elem, rightmost=True)


def test_exterior_x_r_l1p_normalizes_to_x_l1p_r() -> None:
    # The word where the exterior presentation used to split: with r
    # central, every strategy carries it to the tail.
    ext = exterior_algebra()
    elem = NcElement(ext, {ext.word("x", "r", "l1p"): Laurent.one()})
    want = {ext.word("x", "l1p", "r"): Laurent.one()}
    assert elem.normalize().terms == want
    assert walk_normalize(elem).terms == want
    assert walk_normalize(elem, rightmost=True).terms == want


def test_presentations_resolve_every_overlap() -> None:
    for spec in (collar_algebra(), exterior_algebra()):
        assert unresolved_overlaps(spec) == [], spec.name


def test_overlap_check_catches_commuting_rules_for_r() -> None:
    # The exterior presentation with r as an ordinary letter and its
    # centrality spelled out as four commuting rules, as it once was.
    ext = exterior_algebra()
    L1, L1P, T, R, X = range(5)
    one = Laurent.one()
    rules = dict(ext.rules)
    rules.update({
        (X, R): [(one, (R, X))],
        (R, T): [(one, (T, R))],
        (R, L1): [(one, (L1, R))],
        (R, L1P): [(one, (L1P, R))],
    })
    spec = NcAlgebraSpec("commuting-r", ext.generators, rules)
    unresolved = unresolved_overlaps(spec)
    assert [word for word, _, _ in unresolved] == [(X, R, L1P)]
    (_, left, right), = unresolved
    assert left.terms == {(R, X, L1P): one}
    assert right.terms == {(X, L1P, R): one}


def test_normalize_matches_reference_walkers_on_route_b() -> None:
    for n in range(1, 13):
        for mutate in (False, True):
            elem = _route_b_input(n, _band_coefficient(n, mutate))
            nf = elem.normalize()
            assert nf == walk_normalize(elem), f"n={n} mutate={mutate}"
            assert nf == walk_normalize(elem, rightmost=True), f"n={n} mutate={mutate}"
            assert nf.is_zero() != mutate


def test_route_b_retains_bounded_memory() -> None:
    # A run's only store is its suffix memo, freed on return, so once the
    # Chebyshev caches are warm route b leaves nothing on the shared spec.
    # Any cache kept on the spec fails this when it starts empty: one of
    # rule products holds about 73 KB here, a suffix memo kept across
    # calls about 1 MB.  Earlier tests may have filled such a cache, so
    # the spec must also hold nothing beyond its presentation.
    for n in range(1, 25):
        verify_commute_many(n, route="a")
    spec = collar_algebra()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(1, 25):
            assert verify_commute_many(n, route="b").ok
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 5_000, f"route b for n <= 24 retains {retained / 1e3:.1f} KB"
    assert sorted(vars(spec)) == ["central", "generators", "name", "rules"]


def test_shared_suffix_memo_gives_fresh_normal_forms() -> None:
    # One memo over every degree, plain and mutated, as `ncverify` shares
    # it: each normal form equals a fresh-memo one, term order included.
    memo = {}
    for mutate in (False, True):
        for n in range(1, 17):
            element = _route_b_input(n, _band_coefficient(n, mutate))
            shared = element.normalize(memo)
            fresh = element.normalize()
            assert [(w, list(c.terms.items())) for w, c in shared.terms.items()] == [
                (w, list(c.terms.items())) for w, c in fresh.terms.items()
            ], (n, mutate)
            assert shared.is_zero() != mutate


def test_normalize_idempotent_and_multiplicative() -> None:
    rng = random.Random(13)
    spec = collar_algebra()
    for _ in range(40):
        a = random_element(rng, spec, max_len=3)
        b = random_element(rng, spec, max_len=3)
        na = a.normalize()
        assert na.normalize() == na
        assert (a * b).normalize() == (na * b.normalize()).normalize()


def test_spec_without_rules_leaves_words_unchanged() -> None:
    spec = NcAlgebraSpec("free", ("l1", "l1p", "t", "r", "x"), {})
    word = spec.word("x", "t", "r", "l1")
    assert spec.normal_form_word(word) == {word: Laurent.one()}


def test_twisted_companion_entries() -> None:
    A = twisted_companion()
    x = CPoly.variable("x", VARS_X)
    assert A[0][0] == x * Laurent.q_power(2)
    assert A[0][1] == CPoly.constant(Q - Laurent.q_power(-3), VARS_X)
    assert A[1][0] == CPoly.constant(QINV - Laurent.q_power(3), VARS_X)
    assert A[1][1] == x * Laurent.q_power(-2)


def test_matrix_cosine_recursion_base() -> None:
    A = twisted_companion()
    two, zero = CPoly.constant(2, VARS_X), CPoly.zero(VARS_X)
    (a, b), (c, d) = m2_mul(A, A)
    assert matrix_cosine(0) == ((two, zero), (zero, two))
    assert matrix_cosine(1) == A
    assert matrix_cosine(2) == ((a - two, b), (c, d - two))
    assert matrix_cosine_closed(0) == ((two, zero), (zero, two))
    assert matrix_cosine_closed(1) == A


def test_matrix_lemma_range() -> None:
    report = verify_matrix_lemma(32)
    assert report.ok, f"first failure at n={report.first_failure}"


def test_commute_many_both_routes() -> None:
    for n in range(1, 17):
        result = verify_commute_many(n, route="both")
        assert result.route_a_ok, f"route a failed at n={n}: {result.residual}"
        assert result.route_b_ok, f"route b failed at n={n}: {result.residual}"
        assert result.ok


def test_commute_many_single_routes() -> None:
    ra = verify_commute_many(3, route="a")
    assert ra.route_a_ok and ra.route_b_ok is None
    rb = verify_commute_many(3, route="b")
    assert rb.route_b_ok and rb.route_a_ok is None


def test_commute_many_mutation_detected() -> None:
    for n in range(1, 9):
        result = verify_commute_many(n, route="both", mutate=True)
        assert not result.ok
        assert result.residual is not None
        assert "route" in result.residual


def test_commute_many_rejects_bad_args() -> None:
    with pytest.raises(ValueError):
        verify_commute_many(0)
    with pytest.raises(ValueError):
        verify_commute_many(2, route="c")


def test_derive_e_n_range() -> None:
    for n in range(1, 17):
        d = derive_e_n(n)
        assert d.ok, f"n={n}: {d.detail}"
        assert d.strand_coeff == boundary_form(n) * QINV


def test_derive_e_n_word_shapes() -> None:
    spec = exterior_algebra()
    tg, l1g = spec.index("t"), spec.index("l1")
    for n in (1, 2, 5, 9):
        d = derive_e_n(n)
        for word in d.element.terms:
            assert word[-1] == tg or word[0] == l1g


def test_derive_e_one_base_case() -> None:
    d = derive_e_n(1)
    assert d.ok
    x = CPoly.variable("x", VARS_XR)
    r = CPoly.variable("r", VARS_XR)
    assert d.strand_coeff == r - x
    assert d.band_coeff == CPoly.constant(Q_PLUS_QINV, VARS_X)
    ext = exterior_algebra()
    expected = NcElement(ext, {(ext.index("l1"),): Q, (ext.index("l1p"),): -Q})
    assert d.base_case_reduced == expected

"""Word rewriting in q-commutation algebras, with exact verifiers.

A small rewriting engine normalizes noncommutative words against a fixed
set of order-decreasing replacement rules; central generators are kept as
a sorted tail of every normal word instead of by commuting rules.  Two
concrete presentations are provided: a five-generator "collar" algebra
whose crossing generator q-commutes past two band generators modulo the
central correction terms c and cp, and a five-generator "exterior"
algebra, with r central, used to reduce the base-case element.

On top of the engine sit three exact verifiers:

  * the closed form of the cosine-kind family on a q-twisted companion
    matrix (`verify_matrix_lemma`); matrices are pairs of rows of `CPoly`
    entries, multiplied by `ring.m2_mul`,
  * the central-element commutation identity checked along two independent
    routes (`verify_commute_many`),
  * the coefficient-level derivation of the n-th central element
    (`derive_e_n`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Dict, List, Mapping, Optional, Tuple

from .cheby import (
    VARS_X,
    VARS_XR,
    boundary_form,
    cheb_cosine,
    cheb_sine,
    qdiff_sine_sum,
    qweighted_cosine,
)
from .ring import (
    ONE,
    Combination,
    CPoly,
    Laurent,
    Matrix2,
    Q,
    QINV,
    Q_PLUS_QINV,
    accumulate,
    m2_mul,
    q_power_diff,
    q_power_sum,
)

Word = Tuple[int, ...]
# Suffix -> its normal form, for one presentation.
SuffixMemo = Dict[Word, Dict[Word, Laurent]]


def _word_key(word: Word) -> Tuple[int, Word]:
    return (len(word), word)


class NcAlgebraSpec:
    """A finite presentation with strictly order-decreasing rewrite rules
    and a set of central generators.

    Generators are ordered by position.  A normal word is a word in the
    non-central generators with no adjacent pair that is a rule key,
    followed by a tail of central generators in ascending order;
    multiplying by a central generator just inserts it into the tail.  ``rules[(a, b)]`` replaces
    the adjacent pair a*b of non-central generators by a Laurent
    combination of words whose non-central letters are strictly smaller
    than (a, b) in the graded lexicographic order.  That order and the
    sorting of the finite central tail make every rewrite sequence
    terminate.  Pairs without a rule are left alone, so the presentation
    may be partial (or empty, giving a free algebra).
    """

    def __init__(
        self,
        name: str,
        generators: Tuple[str, ...],
        rules: Mapping[Tuple[int, int], List[Tuple[Laurent, Word]]],
        central: Tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.generators = tuple(generators)
        self.central = frozenset(self.index(g) for g in central)
        self.rules: Dict[Tuple[int, int], List[Tuple[Laurent, Word]]] = {}
        for (a, b), replacement in rules.items():
            if not (0 <= a < len(generators) and 0 <= b < len(generators)):
                raise ValueError(f"rule key ({a}, {b}) out of range")
            if a in self.central or b in self.central:
                raise ValueError(f"rule key ({a}, {b}) contains a central generator")
            for coeff, word in replacement:
                if any(g < 0 or g >= len(generators) for g in word):
                    raise ValueError(f"rule for ({a}, {b}) uses unknown generator")
                moving = tuple(g for g in word if g not in self.central)
                if _word_key(moving) >= _word_key((a, b)):
                    raise ValueError(
                        f"rule for ({a}, {b}) is not order-decreasing at {word}"
                    )
            self.rules[(a, b)] = [(c, tuple(w)) for c, w in replacement]

    def index(self, name: str) -> int:
        return self.generators.index(name)

    def word(self, *names: str) -> Word:
        return tuple(self.index(n) for n in names)

    def word_names(self, word: Word) -> str:
        return "*".join(self.generators[g] for g in word) if word else "1"

    # -- normalization ------------------------------------------------------

    def normal_form_word(
        self, word: Word, memo: Optional[SuffixMemo] = None
    ) -> Dict[Word, Laurent]:
        """Normal form of a single word, as g times the normal form of the
        rest, built letter by letter from the right.

        ``memo`` maps suffixes to their normal forms; pass one dict to
        share suffixes between the words of one element.  It is the only
        store: the spec keeps nothing after the call returns.
        """
        memo = {} if memo is None else memo
        memo.setdefault((), {(): ONE})
        start = next(i for i in range(len(word) + 1) if word[i:] in memo)
        nf = memo[word[start:]]
        for i in range(start - 1, -1, -1):
            nf = memo[word[i:]] = self._left_multiply(word[i], nf)
        return nf

    def _left_multiply(self, g: int, nf: Mapping[Word, Laurent]) -> Dict[Word, Laurent]:
        """g times a combination of normal words, normalized.  A central g
        joins each word's sorted tail; otherwise only the pair (g, v[0]) of
        a word v can be reducible, and its replacement is folded in from
        the right onto the normal suffix v[1:]."""
        out: Dict[Word, Laurent] = {}
        for v, c in nf.items():
            if g in self.central:
                i = len(v)
                while i and v[i - 1] > g and v[i - 1] in self.central:
                    i -= 1
                accumulate(out, v[:i] + (g,) + v[i:], c)
                continue
            rule = self.rules.get((g, v[0])) if v else None
            if rule is None:
                accumulate(out, (g,) + v, c)
                continue
            for coeff, repl in rule:
                part: Mapping[Word, Laurent] = {v[1:]: ONE}
                for letter in reversed(repl):
                    part = self._left_multiply(letter, part)
                scale = c * coeff
                for w, d in part.items():
                    accumulate(out, w, scale * d)
        return out


class NcElement(Combination):
    """Laurent-linear combination of words in a fixed presentation."""

    __slots__ = ("spec", "terms")
    _CONTEXT = "spec"
    _MISMATCH = "elements belong to different presentations"

    def __init__(
        self, spec: NcAlgebraSpec, terms: Mapping[Word, Laurent] | None = None
    ) -> None:
        self.spec = spec
        self.terms: Dict[Word, Laurent] = {}
        if terms:
            for word, coeff in terms.items():
                if not coeff.is_zero():
                    self.terms[tuple(word)] = coeff

    @classmethod
    def generator(cls, spec: NcAlgebraSpec, name: str) -> "NcElement":
        return cls(spec, {(spec.index(name),): Laurent.one()})

    def __mul__(self, other: "NcElement | Laurent | int") -> "NcElement":
        if isinstance(other, (Laurent, int)):
            return self.scale(other)
        if not isinstance(other, NcElement):
            return NotImplemented
        self._check(other)
        out: Dict[Word, Laurent] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                accumulate(out, w1 + w2, c1 * c2)
        return NcElement(self.spec, out)

    def normalize(self, memo: Optional[SuffixMemo] = None) -> "NcElement":
        """Normal form.  ``memo`` maps suffixes to their normal forms, as
        in `NcAlgebraSpec.normal_form_word`; pass one dict to share them
        between calls on the same presentation."""
        out: Dict[Word, Laurent] = {}
        memo = {} if memo is None else memo
        for word, coeff in self.terms.items():
            for w, c in self.spec.normal_form_word(word, memo).items():
                accumulate(out, w, coeff * c)
        return NcElement(self.spec, out)

    def leading(self) -> Tuple[Word, Laurent]:
        if not self.terms:
            raise ValueError("the zero element has no leading word")
        word = max(self.terms, key=_word_key)
        return word, self.terms[word]

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms, key=_word_key, reverse=True):
            coeff = self.terms[word].render()
            parts.append(f"({coeff})*{self.spec.word_names(word)}")
        return " + ".join(parts)


# -- concrete presentations ----------------------------------------------------


@cache
def collar_algebra() -> NcAlgebraSpec:
    """Five generators t1 < l1 < c < cp < x, with c and cp central.

    The crossing generator x q-commutes past the two band generators with
    central correction terms c and cp.  Normal words read t1/l1 letters,
    then a block of x, then the central tail c^i cp^j.
    """
    T1, L1, C, CP, X = range(5)
    one = Laurent.one()
    rules = {
        (X, T1): [
            (Laurent.q_power(2), (T1, X)),
            (QINV - Laurent.q_power(3), (L1,)),
            (one - Laurent.q_power(2), (C,)),
        ],
        (X, L1): [
            (Laurent.q_power(-2), (L1, X)),
            (Q - Laurent.q_power(-3), (T1,)),
            (one - Laurent.q_power(-2), (CP,)),
        ],
    }
    return NcAlgebraSpec("collar", ("t1", "l1", "c", "cp", "x"), rules, ("c", "cp"))


@cache
def exterior_algebra() -> NcAlgebraSpec:
    """Five generators l1 < l1p < t < r < x, with the boundary generator r
    central.

    x folds the strand generator t into the two band generators plus t*r,
    and q-commutes past l1; x past l1p is left free.
    """
    L1, L1P, T, R, X = range(5)
    one = Laurent.one()
    rules = {
        (X, T): [(Q, (L1P,)), (QINV, (L1,)), (one, (T, R))],
        (X, L1): [
            (Laurent.q_power(-2), (L1, X)),
            (Q - Laurent.q_power(-3), (T,)),
            (one - Laurent.q_power(-2), (T, R)),
        ],
    }
    return NcAlgebraSpec("exterior", ("l1", "l1p", "t", "r", "x"), rules, ("r",))


# -- two by two matrices over polynomials ---------------------------------------


def twisted_companion() -> Matrix2[CPoly]:
    """The q-twisted companion matrix, as a pair of rows.

    Entries, row by row: q^2 x, q - q^-3, q^-1 - q^3, q^-2 x.
    """
    x = CPoly.variable("x", VARS_X)
    return (
        (x * Laurent.q_power(2), CPoly.constant(Laurent({2: 1, -6: -1}), VARS_X)),
        (CPoly.constant(Laurent({-2: 1, 6: -1}), VARS_X), x * Laurent.q_power(-2)),
    )


_matrix_cosine_cache: List[Matrix2[CPoly]] = []


def matrix_cosine(n: int) -> Matrix2[CPoly]:
    """Cosine-kind family applied to the twisted companion matrix, by the
    recursion M(n+1) = A M(n) - M(n-1)."""
    if n < 0:
        raise ValueError("defined for n >= 0")
    if not _matrix_cosine_cache:
        two, zero = CPoly.constant(2, VARS_X), CPoly.zero(VARS_X)
        _matrix_cosine_cache.append(((two, zero), (zero, two)))
        _matrix_cosine_cache.append(twisted_companion())
    A = _matrix_cosine_cache[1]
    while len(_matrix_cosine_cache) <= n:
        k = len(_matrix_cosine_cache)
        (a, b), (c, d) = m2_mul(A, _matrix_cosine_cache[k - 1])
        (e, f), (g, h) = _matrix_cosine_cache[k - 2]
        _matrix_cosine_cache.append(((a - e, b - f), (c - g, d - h)))
    return _matrix_cosine_cache[n]


def matrix_cosine_closed(n: int) -> Matrix2[CPoly]:
    """Closed form of matrix_cosine in terms of the sine-kind family."""
    band = cheb_sine(n)
    return (
        (qweighted_cosine(n), band * (QINV * q_power_diff(2 * n))),
        (
            band * (Q * q_power_diff(2 * n)) * Laurent.integer(-1),
            cheb_sine(n + 1) * Laurent.q_power(-2 * n)
            - cheb_sine(n - 1) * Laurent.q_power(2 * n),
        ),
    )


@dataclass
class MatrixLemmaReport:
    ok: bool
    first_failure: Optional[int]


def verify_matrix_lemma(max_n: int) -> MatrixLemmaReport:
    """Check matrix_cosine(n) == matrix_cosine_closed(n) for n = 0..max_n."""
    for n in range(max_n + 1):
        if matrix_cosine(n) != matrix_cosine_closed(n):
            return MatrixLemmaReport(False, n)
    return MatrixLemmaReport(True, None)


# -- commutation identity, two routes -------------------------------------------


@dataclass
class CommuteManyResult:
    route_a_ok: Optional[bool]
    route_b_ok: Optional[bool]
    residual: Optional[str]

    @property
    def ok(self) -> bool:
        checked = [r for r in (self.route_a_ok, self.route_b_ok) if r is not None]
        return bool(checked) and all(checked)


def _band_coefficient(n: int, mutate: bool) -> Laurent:
    # The verified coefficient is q*(q^2n - q^-2n); the mutated variant
    # flips the outer power to exercise failure detection.
    outer = QINV if mutate else Q
    return outer * q_power_diff(2 * n)


def _commute_route_a(n: int, band: Laurent) -> CPoly:
    """Residual of the commutative three-variable form; zero iff the
    identity holds with the supplied band coefficient."""
    V = ("x", "c", "cp")
    x = CPoly.variable("x", V)
    c = CPoly.variable("c", V)
    cp = CPoly.variable("cp", V)
    alpha = Q_PLUS_QINV
    loop2 = x * x - CPoly.constant(alpha * alpha, V)
    term1 = (cheb_cosine(n) - qweighted_cosine(n)).extend(V) * (c * x + cp * alpha)
    term2 = cheb_sine(n).extend(V) * (cp * x + c * alpha) * band
    bracket = (
        (cheb_sine(n) * Laurent.q_power(n) + qdiff_sine_sum(n - 1)).extend(V) * c
        + qdiff_sine_sum(n).extend(V) * cp
    )
    term3 = bracket * loop2 * q_power_diff(n)
    return term1 + term2 + term3


def _route_b_input(n: int, band: Laurent) -> NcElement:
    """The collar-presentation element whose normal form is the route b
    residual; that residual is zero iff the identity holds.  Each block
    spells a polynomial in x as the words before + x^k + after."""
    spec = collar_algebra()
    t1, l1, c, cp, x = ((spec.index(g),) for g in ("t1", "l1", "c", "cp", "x"))
    bracket_c = (cheb_sine(n) * Laurent.q_power(n) + qdiff_sine_sum(n - 1)) * q_power_diff(n)
    blocks = [
        (cheb_cosine(n), (), t1),
        (cheb_sine(n) * band, l1, ()),
        (bracket_c, c, ()),
        (qdiff_sine_sum(n) * q_power_diff(n), cp, ()),
        (-qweighted_cosine(n), t1, ()),
    ]
    terms: Dict[Word, Laurent] = {}
    for poly, before, after in blocks:
        for (k,), coeff in poly.terms.items():
            accumulate(terms, before + x * k + after, coeff)
    return NcElement(spec, terms)


def verify_commute_many(
    n: int, route: str = "both", mutate: bool = False, memo: Optional[SuffixMemo] = None
) -> CommuteManyResult:
    """Verify that the n-th cosine-kind element commutes with the crossing
    generator, along route a (commutative form) and/or route b (word
    rewriting).  With mutate=True the band coefficient is corrupted and the
    result reports the first surviving monomial.  ``memo`` is route b's
    suffix memo (see `NcElement.normalize`); one dict shared over degrees
    builds each lower degree's suffixes once."""
    if route not in ("a", "b", "both"):
        raise ValueError(f"unknown route {route!r}")
    if n < 1:
        raise ValueError("defined for n >= 1")
    band = _band_coefficient(n, mutate)
    a_ok: Optional[bool] = None
    b_ok: Optional[bool] = None
    residual: Optional[str] = None
    if route in ("a", "both"):
        res_a = _commute_route_a(n, band)
        a_ok = res_a.is_zero()
        if not a_ok:
            mono, coeff = res_a.leading()
            names = [f"{v}^{e}" for v, e in zip(res_a.vars, mono) if e]
            residual = f"route a: ({coeff.render()})*{'*'.join(names) or '1'}"
    if route in ("b", "both"):
        res_b = _route_b_input(n, band).normalize(memo)
        b_ok = res_b.is_zero()
        if not b_ok and residual is None:
            word, coeff = res_b.leading()
            residual = f"route b: ({coeff.render()})*{res_b.spec.word_names(word)}"
    return CommuteManyResult(a_ok, b_ok, residual)


# -- derivation of the n-th element ---------------------------------------------


@dataclass
class ElementDerivation:
    n: int
    ok: bool
    detail: str
    strand_coeff: CPoly
    band_coeff: CPoly
    element: NcElement
    base_case_reduced: Optional[NcElement]


def derive_e_n(n: int) -> ElementDerivation:
    """Derive the inner part of the n-th central element from the commute
    identity: divide the strand and band coefficient blocks by the common
    factor q*(q^n - q^-n) and package the quotients as words of the
    exterior presentation, stored as written.

    For n = 1 the element is additionally normalized, and it must collapse
    to q*(l1 - l1p).
    """
    if n < 1:
        raise ValueError("defined for n >= 1")
    checks: List[str] = []
    common = Q * q_power_diff(n)

    # Strand block: cosine defect plus boundary-weighted prefix.
    prefix = (
        cheb_sine(n) * Laurent.q_power(n) + qdiff_sine_sum(n - 1) + qdiff_sine_sum(n)
    )
    r_var = CPoly.variable("r", VARS_XR)
    strand_block = (cheb_cosine(n) - qweighted_cosine(n)).extend(VARS_XR) + (
        prefix.extend(VARS_XR) * r_var * q_power_diff(n)
    )
    if strand_block != boundary_form(n) * q_power_diff(n):
        checks.append("strand block does not match the boundary form")
    strand_coeff = strand_block.divide_exact(CPoly.constant(common, VARS_XR))
    if strand_coeff != boundary_form(n) * QINV:
        checks.append("strand quotient is not qbar times the boundary form")

    # Band block: q*(q^2n - q^-2n) = q*(q^n - q^-n)*(q^n + q^-n).
    if Q * q_power_diff(2 * n) != common * q_power_sum(n):
        checks.append("band coefficient does not factor through the common term")
    if Laurent.q_power(2 * n) - Laurent.one() != Laurent.q_power(n) * q_power_diff(n):
        checks.append("q^2n - 1 does not factor as q^n*(q^n - q^-n)")
    band_block = cheb_sine(n) * (Q * q_power_diff(2 * n))
    band_coeff = band_block.divide_exact(CPoly.constant(common, VARS_X))
    if band_coeff != cheb_sine(n) * q_power_sum(n):
        checks.append("band quotient is not (q^n + q^-n) times the sine family")

    # Package as words: x^a r^b t for the strand part, l1 x^k for the band.
    spec = exterior_algebra()
    xg, rg, tg, l1g = (spec.index(g) for g in ("x", "r", "t", "l1"))
    terms: Dict[Word, Laurent] = {}
    for (a, b), coeff in strand_coeff.terms.items():
        accumulate(terms, (xg,) * a + (rg,) * b + (tg,), coeff)
    for (k,), coeff in band_coeff.terms.items():
        accumulate(terms, (l1g,) + (xg,) * k, coeff)
    element = NcElement(spec, terms)

    base_case: Optional[NcElement] = None
    if n == 1:
        base_case = element.normalize()
        expected = NcElement(spec, {spec.word("l1"): Q, spec.word("l1p"): -Q})
        if base_case != expected:
            checks.append("base case does not reduce to q*(l1 - l1p)")

    return ElementDerivation(
        n=n,
        ok=not checks,
        detail="; ".join(checks) if checks else "ok",
        strand_coeff=strand_coeff,
        band_coeff=band_coeff,
        element=element,
        base_case_reduced=base_case,
    )

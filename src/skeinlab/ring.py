"""Exact scalar and polynomial arithmetic for q-series computations.

The scalar ring is the ring of integer Laurent polynomials in a formal
square root of q.  A scalar stores a map from the exponent of that square
root to an integer coefficient, so q itself sits at exponent 2 and the
inverse square root at exponent -1.  Everything downstream (Chebyshev
recursions, rewriting coefficients, diagram weights) works over this ring,
so all arithmetic here is exact; floats appear only in `evaluate`.

`CPoly` is a thin multivariate polynomial layer over the scalars with an
exact division routine used to verify divisibility identities; its
module arithmetic is `Combination`'s, shared with the skein and
rewriting layers.  `m2_mul`, `m2_trace`, `m2_det` and `m2_adj` are the
one 2x2 matrix product, trace, determinant and adjugate, for entries
from any of these rings.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, Hashable, Mapping, Tuple, TypeVar

Monomial = Tuple[int, ...]
_Key = TypeVar("_Key", bound=Hashable)
_Entry = TypeVar("_Entry")
_C = TypeVar("_C", bound="Combination")
Matrix2 = Tuple[Tuple[_Entry, _Entry], Tuple[_Entry, _Entry]]


class NonExactDivision(ArithmeticError):
    """Raised when an exact division would leave a remainder."""


class Laurent:
    """Integer Laurent polynomial in the square root of q.

    Internally ``terms[e] = c`` means ``c * q^(e/2)``.  Zero coefficients
    are never stored, so the zero scalar has an empty term map.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None) -> None:
        self.terms: Dict[int, int] = {}
        if terms:
            self.terms = {int(e): int(c) for e, c in terms.items() if c}

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "Laurent":
        return cls()

    @classmethod
    def one(cls) -> "Laurent":
        return cls({0: 1})

    @classmethod
    def integer(cls, n: int) -> "Laurent":
        return cls({0: n})

    @classmethod
    def h_power(cls, e: int, coeff: int = 1) -> "Laurent":
        """coeff * q^(e/2), with e the exponent of the square root of q."""
        return cls({e: coeff})

    @classmethod
    def q_power(cls, k: int, coeff: int = 1) -> "Laurent":
        """coeff * q^k for integer k."""
        return cls({2 * k: coeff})

    # -- predicates and views --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def min_exponent(self) -> int:
        if not self.terms:
            raise ValueError("zero scalar has no exponents")
        return min(self.terms)

    def max_exponent(self) -> int:
        if not self.terms:
            raise ValueError("zero scalar has no exponents")
        return max(self.terms)

    # -- ring operations --------------------------------------------------

    @classmethod
    def _of(cls, terms: Dict[int, int]) -> "Laurent":
        """Wrap a term map that already holds only nonzero int coefficients."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def __add__(self, other: "Laurent | int") -> "Laurent":
        if not isinstance(other, (Laurent, int)):
            return NotImplemented
        other = _as_laurent(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            nc = out.get(e, 0) + c
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
        return Laurent._of(out)

    __radd__ = __add__

    def __neg__(self) -> "Laurent":
        return Laurent._of({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Laurent | int") -> "Laurent":
        if not isinstance(other, (Laurent, int)):
            return NotImplemented
        return self + (-_as_laurent(other))

    def __rsub__(self, other: "Laurent | int") -> "Laurent":
        if not isinstance(other, (Laurent, int)):
            return NotImplemented
        return _as_laurent(other) + (-self)

    def __mul__(self, other: "Laurent | int") -> "Laurent":
        if not isinstance(other, (Laurent, int)):
            return NotImplemented
        other = _as_laurent(other)
        if len(self.terms) == 1 or len(other.terms) == 1:
            # No two products share an exponent, and none is zero.
            return Laurent._of({
                e1 + e2: c1 * c2
                for e1, c1 in self.terms.items()
                for e2, c2 in other.terms.items()
            })
        out: Dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                nc = out.get(e, 0) + c1 * c2
                if nc:
                    out[e] = nc
                else:
                    out.pop(e, None)
        return Laurent._of(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Laurent":
        if n < 0:
            raise ValueError("negative powers are not defined for general scalars")
        acc = Laurent.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Laurent.integer(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self.terms.keys() <= {0}:  # equal to an int, so hash as that int
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Laurent({self.render()!r})"

    # -- exact division ----------------------------------------------------

    def divide_exact(self, divisor: "Laurent") -> "Laurent":
        """Return self / divisor, raising NonExactDivision on any remainder.

        Ascending long division: each step cancels the lowest term of the
        running remainder.  For an exact quotient every generated exponent
        lies below max(self) - max(divisor), which bounds the loop.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero scalar")
        if self.is_zero():
            return Laurent.zero()
        d_lo = divisor.min_exponent()
        c_lo = divisor.terms[d_lo]
        q_max = self.max_exponent() - divisor.max_exponent()
        rem = dict(self.terms)
        quo: Dict[int, int] = {}
        while rem:
            r_lo = min(rem)
            q_e = r_lo - d_lo
            if q_e > q_max:
                raise NonExactDivision(
                    f"{self.render()} is not divisible by {divisor.render()}"
                )
            q_c, residue = divmod(rem[r_lo], c_lo)
            if residue:
                raise NonExactDivision(
                    f"coefficient {rem[r_lo]} not divisible by {c_lo} "
                    f"while dividing {self.render()} by {divisor.render()}"
                )
            quo[q_e] = q_c
            for e, c in divisor.terms.items():
                ne = e + q_e
                nc = rem.get(ne, 0) - q_c * c
                if nc:
                    rem[ne] = nc
                else:
                    rem.pop(ne, None)
        return Laurent(quo)

    # -- specializations ----------------------------------------------------

    def evaluate(self, hval: complex) -> complex:
        """Numeric value with the square root of q set to hval (nonzero)."""
        if hval == 0:
            raise ZeroDivisionError("cannot evaluate at zero")
        return sum((c * hval**e for e, c in self.terms.items()), 0 + 0j)

    def specialize_classical(self) -> int:
        """Integer value at the classical point, square root of q -> -1."""
        return sum(c if e % 2 == 0 else -c for e, c in self.terms.items())

    # -- text form -----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form, terms in ascending exponent order;
        `fixtures.parse_scalar` reads it back."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            if e == 0:
                parts.append(f"{sign}{mag}")
            else:
                exp = str(e // 2) if e % 2 == 0 else f"{e}/2"
                parts.append(f"{sign}{mag}*q^{{{exp}}}")
        return "".join(parts)


def _as_laurent(value: "Laurent | int") -> Laurent:
    if isinstance(value, Laurent):
        return value
    if isinstance(value, int):
        return Laurent.integer(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to a scalar")


def accumulate(acc: Dict[_Key, Laurent], key: _Key, coeff: Laurent) -> None:
    """Add coeff to acc[key], dropping the key when the sum is zero.

    Every Laurent-valued map keeps this invariant: a zero coefficient is
    never stored.  `Laurent`'s own int-coefficient loops inline it.
    """
    total = acc.get(key)
    total = coeff if total is None else total + coeff
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


class Combination:
    """Laurent-linear combination in one context: `terms` maps basis keys
    to nonzero `Laurent` coefficients.

    The module arithmetic of `SkeinElement` (context: its board),
    `NcElement` (its presentation) and `CPoly` (its variables).  A
    subclass names the attribute holding its context in `_CONTEXT` and
    its mismatch text in `_MISMATCH` (formatted with both contexts); it
    keeps its own products.  `_wrap` builds a result in this context
    from a zero-free term map, through the constructor unless overridden.
    """

    __slots__ = ()
    _CONTEXT: str
    _MISMATCH: str
    terms: Dict[Hashable, Laurent]

    def _context(self) -> Hashable:
        return getattr(self, self._CONTEXT)

    def _wrap(self: _C, terms: Dict[Hashable, Laurent]) -> _C:
        return type(self)(self._context(), terms)

    def _check(self, other: "Combination") -> None:
        if self._context() != other._context():
            raise ValueError(self._MISMATCH.format(self._context(), other._context()))

    def __add__(self: _C, other: _C) -> _C:
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            accumulate(out, key, coeff)
        return self._wrap(out)

    def __neg__(self: _C) -> _C:
        return self._wrap({k: -c for k, c in self.terms.items()})

    def __sub__(self: _C, other: _C) -> _C:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self: _C, coeff: "Laurent | int") -> _C:
        return self._wrap({k: c * coeff for k, c in self.terms.items()} if coeff else {})

    def __rmul__(self: _C, other: "Laurent | int") -> _C:
        if isinstance(other, (Laurent, int)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._context() == other._context() and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self._context(), frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()!r})"  # type: ignore[attr-defined]


def m2_mul(a: "Matrix2[_Entry]", b: "Matrix2[_Entry]") -> "Matrix2[_Entry]":
    """Product of two 2x2 matrices, each a pair of rows, over any ring:
    ints, complex numbers, `Laurent` or `CPoly` entries."""
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return (
        (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
        (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11),
    )


def m2_trace(*factors: "Matrix2[_Entry]") -> _Entry:
    """Trace of the product of `factors`, taken left to right."""
    m = reduce(m2_mul, factors)
    return m[0][0] + m[1][1]


def m2_det(m: "Matrix2[_Entry]") -> _Entry:
    (a, b), (c, d) = m
    return a * d - b * c


def m2_adj(m: "Matrix2[_Entry]") -> "Matrix2[_Entry]":
    """Adjugate, the inverse of a determinant-1 matrix."""
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


# Frequently used scalars.
ONE = Laurent.one()
Q = Laurent.q_power(1)
QINV = Laurent.q_power(-1)
Q_PLUS_QINV = Laurent({2: 1, -2: 1})
Q_MINUS_QINV = Laurent({2: 1, -2: -1})


def q_power_diff(k: int) -> Laurent:
    """q^k - q^(-k)."""
    if k == 0:
        return Laurent.zero()
    return Laurent({2 * k: 1, -2 * k: -1})


def q_power_sum(k: int) -> Laurent:
    """q^k + q^(-k)."""
    if k == 0:
        return Laurent.integer(2)
    return Laurent({2 * k: 1, -2 * k: 1})


class CPoly(Combination):
    """Commutative polynomial in named variables over the Laurent scalars.

    ``terms`` maps an exponent tuple (one slot per variable, nonnegative)
    to a nonzero Laurent coefficient.
    """

    __slots__ = ("vars", "terms")
    _CONTEXT = "vars"
    _MISMATCH = "variable mismatch: {} vs {}"

    def __init__(
        self,
        vars: Tuple[str, ...],
        terms: Mapping[Monomial, Laurent] | None = None,
    ) -> None:
        self.vars: Tuple[str, ...] = tuple(vars)
        self.terms: Dict[Monomial, Laurent] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != len(self.vars):
                    raise ValueError(
                        f"monomial {mono} does not match variables {self.vars}"
                    )
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in monomial {mono}")
                if not coeff.is_zero():
                    self.terms[mono] = coeff

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: Tuple[str, ...]) -> "CPoly":
        return cls(vars)

    @classmethod
    def one(cls, vars: Tuple[str, ...]) -> "CPoly":
        return cls.constant(Laurent.one(), vars)

    @classmethod
    def constant(cls, coeff: "Laurent | int", vars: Tuple[str, ...]) -> "CPoly":
        return cls(vars, {(0,) * len(vars): _as_laurent(coeff)})

    @classmethod
    def variable(cls, name: str, vars: Tuple[str, ...]) -> "CPoly":
        if name not in vars:
            raise ValueError(f"{name!r} is not among variables {vars}")
        mono = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {mono: Laurent.one()})

    # -- ring operations -----------------------------------------------------

    @classmethod
    def _of(cls, vars: Tuple[str, ...], terms: Dict[Monomial, Laurent]) -> "CPoly":
        """Wrap a term map of valid monomials and nonzero coefficients."""
        out = cls.__new__(cls)
        out.vars = vars
        out.terms = terms
        return out

    def _wrap(self, terms: Dict[Monomial, Laurent]) -> "CPoly":
        return CPoly._of(self.vars, terms)

    def __mul__(self, other: "CPoly | Laurent | int") -> "CPoly":
        if isinstance(other, (Laurent, int)):
            return self.scale(other)
        if not isinstance(other, CPoly):
            return NotImplemented
        self._check(other)
        out: Dict[Monomial, Laurent] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                accumulate(out, tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
        return CPoly._of(self.vars, out)

    def __pow__(self, n: int) -> "CPoly":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        acc = CPoly.one(self.vars)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    # -- structure ---------------------------------------------------------

    @staticmethod
    def _graded_lex(mono: Monomial) -> Tuple[int, Monomial]:
        return (sum(mono), mono)

    def leading(self) -> Tuple[Monomial, Laurent]:
        """Leading (monomial, coefficient) in graded lexicographic order."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        mono = max(self.terms, key=self._graded_lex)
        return mono, self.terms[mono]

    def divide_exact(self, divisor: "CPoly") -> "CPoly":
        """Return self / divisor, raising NonExactDivision on any remainder.

        Cancels the graded-lex leading term of the remainder each step,
        which strictly decreases it in a well order, so the loop is finite.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        d_mono, d_coeff = divisor.leading()
        rem = dict(self.terms)
        quo: Dict[Monomial, Laurent] = {}
        while rem:
            r_mono = max(rem, key=self._graded_lex)
            q_mono = tuple(a - b for a, b in zip(r_mono, d_mono))
            if any(e < 0 for e in q_mono):
                raise NonExactDivision(
                    f"monomial {r_mono} is not a multiple of {d_mono}"
                )
            q_coeff = rem[r_mono].divide_exact(d_coeff)
            quo[q_mono] = q_coeff
            for mono, coeff in divisor.terms.items():
                accumulate(rem, tuple(a + b for a, b in zip(mono, q_mono)), -q_coeff * coeff)
        return CPoly(self.vars, quo)

    def extend(self, new_vars: Tuple[str, ...]) -> "CPoly":
        """Reinterpret over a larger variable tuple (must contain vars)."""
        new_vars = tuple(new_vars)
        positions = []
        for name in self.vars:
            if name not in new_vars:
                raise ValueError(f"variable {name!r} missing from {new_vars}")
            positions.append(new_vars.index(name))
        out: Dict[Monomial, Laurent] = {}
        for mono, coeff in self.terms.items():
            new_mono = [0] * len(new_vars)
            for pos, e in zip(positions, mono):
                new_mono[pos] = e
            out[tuple(new_mono)] = coeff
        return CPoly(new_vars, out)

    # -- specializations ------------------------------------------------------

    def evaluate(self, hval: complex, assignments: Mapping[str, complex]) -> complex:
        """Numeric value at the given square-root-of-q and variable values."""
        total = 0 + 0j
        values = [complex(assignments[name]) for name in self.vars]
        for mono, coeff in self.terms.items():
            term = coeff.evaluate(hval)
            for val, e in zip(values, mono):
                if e:
                    term *= val**e
            total += term
        return total

    def specialize_classical(self) -> Dict[Monomial, int]:
        """Integer coefficients at the classical point, zeros dropped."""
        out: Dict[Monomial, int] = {}
        for mono, coeff in self.terms.items():
            value = coeff.specialize_classical()
            if value:
                out[mono] = value
        return out

    def render(self) -> str:
        """Readable text form, graded-lex descending, for reports and errors."""
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=self._graded_lex, reverse=True):
            factors = []
            for name, e in zip(self.vars, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            head = f"({self.terms[mono].render()})"
            parts.append("*".join([head] + factors) if factors else head)
        return " + ".join(parts)

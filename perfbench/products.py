"""products-5h: a frozen list of `multiply` calls on 5 holes.

The list lives in `products_5h.json` (rebuilt by `make_inputs.py`).  The
seed only permutes the call order and draws the abelian representations
of the checks, so every seed does the same work and hits the product
cache at the same calls.  The cache is cleared before each round,
so every round starts cold, as a fresh process does.

Per product, two operations are counted:

* `multiply`, timed.  Its output is checked, outside the timed region,
  for multiplicativity of `epsilon_of_element` at two diagonal SL(2,C)
  representations (a loop's trace there depends only on winding
  numbers, so this holds even for interleaved components) and for the
  value at the identity representation, which is computed here from
  the factors' definitions.  Basis products with at most
  `ORACLE_MAX_CROSSINGS` crossings are compared once per run against
  the literal-surgery enumerator `naive_resolve` of `tests/oracles.py`.
* `classical_nonabelian`, untimed: multiplicativity at a fixed
  non-abelian SL(2,Z) representation.  The hole-set basis forgets how
  interleaved components are routed, so this fails on such products.
  It is a known fault, counted in `failed` and not held against
  correctness; its inputs do not depend on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from skeinlab import skein
from skeinlab.ring import Laurent

from common import IDENTITY, Round, agree, classical_at_minus_one, diagonal_rep

INPUT_FILE = Path(__file__).with_name("products_5h.json")
ORACLE_MAX_CROSSINGS = 10
NONABELIAN = (
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
    ((2, 1), (1, 1)),
    ((1, 2), (1, 3)),
    ((3, 1), (2, 1)),
)


@dataclass
class Product:
    a: skein.SkeinElement
    b: skein.SkeinElement
    identity_value: int
    basis_pair: Optional[Tuple[skein.Multicurve, skein.Multicurve]]


@dataclass
class Inputs:
    board: skein.Board
    products: List[Product]
    abelian: List[Sequence]


def _element(board: skein.Board, spec) -> Tuple[skein.SkeinElement, int]:
    """Element from its JSON terms, and its value at the identity."""
    element = skein.SkeinElement.zero(board)
    at_identity = 0
    for coeff, multicurve in spec:
        element = element + skein.SkeinElement.basis(board, multicurve).scale(
            Laurent(dict(coeff))
        )
        at_identity += classical_at_minus_one(coeff) * (-2) ** len(multicurve)
    return element, at_identity


def _basis(element: skein.SkeinElement) -> Optional[skein.Multicurve]:
    """The multicurve of a single basis element, else None."""
    if len(element.terms) == 1:
        ((m, c),) = element.terms.items()
        if c == Laurent.one():
            return m
    return None


def load_specs() -> dict:
    return json.loads(INPUT_FILE.read_text(encoding="utf-8"))


def build(root: Path, seed: int) -> Inputs:
    data = load_specs()
    board = skein.Board(data["n_holes"])
    products = []
    for spec in data["products"]:
        a, ia = _element(board, spec["a"])
        b, ib = _element(board, spec["b"])
        ma, mb = _basis(a), _basis(b)
        products.append(Product(a, b, ia * ib, (ma, mb) if ma is not None and mb is not None else None))
    # Basis products first, then the multi-term ones, each group in seeded
    # order: the pairs the multi-term products repeat are then always cache
    # hits, so every seed gives each call the same work.
    rng = random.Random(f"{seed}:products-order")
    basis = [p for p in products if p.basis_pair is not None]
    multi = [p for p in products if p.basis_pair is None]
    rng.shuffle(basis)
    rng.shuffle(multi)
    products = basis + multi
    rng = random.Random(f"{seed}:products-abelian")
    abelian = [diagonal_rep(rng, board.n_holes) for _ in range(2)]
    return Inputs(board, products, abelian)


def run_round(inp: Inputs, tracer=None) -> Round:
    rnd = Round()
    skein._basis_product.cache_clear()
    results = []
    undo = tracer.install() if tracer is not None else None
    try:
        for p in inp.products:
            with rnd.timed():
                results.append(skein.multiply(p.a, p.b))
    finally:
        if undo is not None:
            undo()
    info = skein._basis_product.cache_info()
    rnd.counts = {"skein.product_cache_hits": info.hits, "skein.product_cache_misses": info.misses}
    for p, result in zip(inp.products, results):
        ok = all(
            agree(
                skein.epsilon_of_element(result, rho),
                skein.epsilon_of_element(p.a, rho) * skein.epsilon_of_element(p.b, rho),
            )
            for rho in inp.abelian
        )
        at_identity = skein.epsilon_of_element(result, [IDENTITY] * inp.board.n_holes)
        ok = ok and agree(at_identity, p.identity_value)
        rnd.record(ok, f"multiply {p.a.render()!r} x {p.b.render()!r}: classical check failed")
        nonabelian = agree(
            skein.epsilon_of_element(result, NONABELIAN),
            skein.epsilon_of_element(p.a, NONABELIAN) * skein.epsilon_of_element(p.b, NONABELIAN),
        )
        rnd.record(nonabelian, known_fault=True)
    rnd.outputs = results
    return rnd


def check_once(inp: Inputs, first: Round) -> List[str]:
    """Compare small basis products against the literal-surgery enumerator."""
    from oracles import naive_resolve

    problems = []
    for p, result in zip(inp.products, first.outputs):
        if p.basis_pair is None:
            continue
        d = skein.stacking_diagram(*p.basis_pair, inp.board)
        if len(d.crossings) > ORACLE_MAX_CROSSINGS:
            continue
        if naive_resolve(d) != result.terms:
            problems.append(f"multiply {p.basis_pair}: differs from naive_resolve")
    return problems


def named_metrics(op_medians: List[float]) -> Dict[str, Tuple[float, str]]:
    return {"products_s": (sum(op_medians), "s")}

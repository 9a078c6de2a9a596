"""Rebuild `products_5h.json`, the frozen product list of products-5h.

    PYTHONPATH=src:tests python3 perfbench/make_inputs.py

Pairs of basis multicurves on 5 holes, each of at most 3 components, are
drawn with `GENERATION_SEED` until every crossing-count bucket of
`QUOTAS` is full; the count is that of the largest crossing group of the
pair's stacking diagram.  Only pairs whose union is not laminar are
drawn, so every one of them has crossings.  Then `MULTI_TERM` products
of two-term elements are added: each factor takes its terms from two of
the drawn pairs, so two of its four basis products repeat drawn pairs
(product-cache hits) and two are new (misses).  The new pairs are kept
to at most `MULTI_TERM_MAX_CROSSINGS` crossings per group.

The file is committed so that a later change to the geometry cannot
change the workload unnoticed; rerun this script only to redefine it.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from oracles import all_laminar_multisets
from skeinlab.skein import Board, is_laminar, stacking_diagram

from spans import crossing_groups

GENERATION_SEED = 1177
N_HOLES = 5
QUOTAS = {4: 1, 6: 1, 8: 2, 10: 3, 12: 3, 14: 2, 16: 2}
MULTI_TERM = 3
MULTI_TERM_MAX_CROSSINGS = 12
OUT = Path(__file__).with_name("products_5h.json")


def _basis_term(m):
    return [[[0, 1]], [list(c) for c in m]]


def main() -> int:
    board = Board(N_HOLES)
    pool = [m for m in all_laminar_multisets(N_HOLES, 3) if m]
    rng = random.Random(GENERATION_SEED)
    need = dict(QUOTAS)
    drawn = {}
    while any(need.values()):
        ma, mb = rng.choice(pool), rng.choice(pool)
        if (ma, mb) in drawn or is_laminar(ma + mb):
            continue
        groups = crossing_groups(stacking_diagram(ma, mb, board))
        if need.get(groups[0], 0) > 0:
            need[groups[0]] -= 1
            drawn[(ma, mb)] = groups
    pairs = sorted(drawn, key=lambda p: (drawn[p], p))
    products = [
        {"a": [_basis_term(ma)], "b": [_basis_term(mb)], "groups": [drawn[(ma, mb)]]}
        for ma, mb in pairs
    ]
    small = [p for p in pairs if drawn[p][0] <= MULTI_TERM_MAX_CROSSINGS]
    made = 0
    while made < MULTI_TERM:
        (a1, b1), (a2, b2) = rng.sample(small, 2)
        cross = [(a1, b2), (a2, b1)]
        groups = [crossing_groups(stacking_diagram(x, y, board)) for x, y in cross]
        if any(g and g[0] > MULTI_TERM_MAX_CROSSINGS for g in groups):
            continue
        products.append(
            {
                # (m1 + q m2) x (n1 - q^-1 n2); q = h^2
                "a": [_basis_term(a1), [[[2, 1]], [list(c) for c in a2]]],
                "b": [_basis_term(b1), [[[-2, -1]], [list(c) for c in b2]]],
                "groups": [drawn[(a1, b1)], groups[0], groups[1], drawn[(a2, b2)]],
            }
        )
        made += 1
    data = {
        "generated_by": "PYTHONPATH=src:tests python3 perfbench/make_inputs.py",
        "generation_seed": GENERATION_SEED,
        "n_holes": N_HOLES,
        "quotas_by_largest_group": {str(k): v for k, v in QUOTAS.items()},
        "products": products,
    }
    OUT.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(products)} products to {OUT.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

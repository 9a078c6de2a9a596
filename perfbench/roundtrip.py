"""roundtrip-5h: canonical diagrams of laminar multisets on 5 holes.

The full set is the 8,985 laminar multisets of at most 4 components on
5 holes (`all_laminar_multisets(5, 4)`, as in the exhaustive test).  At
about 4 ms per diagram it does not fit one run, so a round takes one
multiset from each consecutive block of `STRIDE` in a fixed order by
size; the seed picks the member of each block and the visiting order.
Stratifying by size keeps the work of a round nearly the same for every
seed.

Each operation, timed as a whole, is `canonical_diagram` ->
`render_diagram` -> `parse_diagram` -> `resolve`.  The checks, outside
the timed region: the parsed diagram has the rendered one's polylines
and over tokens, and the resolution is exactly the basis element of the
multiset.  The diagrams have no crossings, so the state sum is trivial
and the product cache is idle: geometry does the work here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from skeinlab import skein

from common import Round

N_HOLES = 5
MAX_COMPONENTS = 4
STRIDE = 5


@dataclass
class Inputs:
    board: skein.Board
    multisets: List[skein.Multicurve]


def build(root: Path, seed: int) -> Inputs:
    from oracles import all_laminar_multisets

    full = sorted(
        all_laminar_multisets(N_HOLES, MAX_COMPONENTS),
        key=lambda m: (len(m), sum(len(c) for c in m), m),
    )
    rng = random.Random(f"{seed}:roundtrip")
    sample = [rng.choice(full[i:i + STRIDE]) for i in range(0, len(full), STRIDE)]
    rng.shuffle(sample)
    return Inputs(skein.Board(N_HOLES), sample)


def run_round(inp: Inputs, tracer=None) -> Round:
    rnd = Round()
    board = inp.board
    undo = tracer.install() if tracer is not None else None
    try:
        for m in inp.multisets:
            with rnd.timed():
                drawn = skein.canonical_diagram(m, board)
                text = skein.render_diagram(drawn)
                parsed = skein.parse_diagram(text)
                element = skein.resolve(parsed)
            ok = (
                parsed.polylines == drawn.polylines
                and parsed.over_tokens == drawn.over_tokens
                and element == skein.SkeinElement.basis(board, m)
            )
            rnd.record(ok, f"roundtrip of {m} broke")
    finally:
        if undo is not None:
            undo()
    return rnd


def check_once(inp: Inputs, first: Round) -> List[str]:
    return []


def named_metrics(op_medians: List[float]) -> Dict[str, Tuple[float, str]]:
    return {"roundtrip_diagrams_per_s": (len(op_medians) / sum(op_medians), "diagrams/s")}

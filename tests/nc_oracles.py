"""Reference normal forms for the rewriting engine.

The engine builds a normal form by multiplying letters in from the left
onto an already normal suffix.  The reference here rewrites the leftmost
(or the rightmost) reducible adjacent pair of the whole word and recurses
on every resulting word, so agreement between the two is meaningful.

This lives apart from `oracles.py` because the benchmark imports that
module, and a larger module costs its runs memory to compile.
"""
from __future__ import annotations

from typing import Dict, Optional

from skeinlab.ncrewrite import NcAlgebraSpec, NcElement, Word
from skeinlab.ring import Laurent, accumulate


def walk_normal_form(
    spec: NcAlgebraSpec,
    word: Word,
    rightmost: bool = False,
    memo: Optional[Dict[Word, Dict[Word, Laurent]]] = None,
) -> Dict[Word, Laurent]:
    """Normal form of one word, rewriting the leftmost (or rightmost)
    reducible adjacent pair and recursing on every resulting word."""
    if memo is None:
        memo = {}
    cached = memo.get(word)
    if cached is not None:
        return cached
    spots = range(len(word) - 2, -1, -1) if rightmost else range(len(word) - 1)
    pos = next((i for i in spots if (word[i], word[i + 1]) in spec.rules), -1)
    if pos < 0:
        result: Dict[Word, Laurent] = {word: Laurent.one()}
    else:
        prefix, suffix = word[:pos], word[pos + 2 :]
        result = {}
        for coeff, repl in spec.rules[(word[pos], word[pos + 1])]:
            sub_nf = walk_normal_form(spec, prefix + repl + suffix, rightmost, memo)
            for w, c in sub_nf.items():
                accumulate(result, w, coeff * c)
    memo[word] = result
    return result


def walk_normalize(elem: NcElement, rightmost: bool = False) -> NcElement:
    """`elem` normalized term by term with `walk_normal_form`."""
    out: Dict[Word, Laurent] = {}
    memo: Dict[Word, Dict[Word, Laurent]] = {}
    for word, coeff in elem.terms.items():
        for w, c in walk_normal_form(elem.spec, word, rightmost, memo).items():
            accumulate(out, w, coeff * c)
    return NcElement(elem.spec, out)

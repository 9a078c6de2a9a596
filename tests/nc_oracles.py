"""Reference normal forms for the rewriting engine.

The engine builds a normal form by multiplying letters in from the left
onto an already normal suffix.  The reference here rewrites the leftmost
(or the rightmost) reducible adjacent pair of the whole word and recurses
on every resulting word, so agreement between the two is meaningful.
Central generators are moved into place by plain swap rules, not by the
engine's tail insertion.

This lives apart from `oracles.py` because the benchmark imports that
module, and a larger module costs its runs memory to compile.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from skeinlab.ncrewrite import NcAlgebraSpec, NcElement, Word
from skeinlab.ring import Laurent, accumulate


@lru_cache(maxsize=None)
def pair_rules(spec: NcAlgebraSpec) -> Dict[Tuple[int, int], List[Tuple[Laurent, Word]]]:
    """`spec.rules` plus a swap rule g*h -> h*g for every central g and
    every h that must stand left of it: each non-central letter, and each
    smaller central one."""
    rules = dict(spec.rules)
    for g in spec.central:
        for h in range(len(spec.generators)):
            if h not in spec.central or h < g:
                rules[(g, h)] = [(Laurent.one(), (h, g))]
    return rules


def walk_normal_form(
    spec: NcAlgebraSpec,
    word: Word,
    rightmost: bool = False,
    memo: Optional[Dict[Word, Dict[Word, Laurent]]] = None,
) -> Dict[Word, Laurent]:
    """Normal form of one word, rewriting the leftmost (or rightmost)
    reducible adjacent pair of `pair_rules(spec)` and recursing on every
    resulting word."""
    rules = pair_rules(spec)
    if memo is None:
        memo = {}
    cached = memo.get(word)
    if cached is not None:
        return cached
    spots = range(len(word) - 2, -1, -1) if rightmost else range(len(word) - 1)
    pos = next((i for i in spots if (word[i], word[i + 1]) in rules), -1)
    if pos < 0:
        result: Dict[Word, Laurent] = {word: Laurent.one()}
    else:
        prefix, suffix = word[:pos], word[pos + 2 :]
        result = {}
        for coeff, repl in rules[(word[pos], word[pos + 1])]:
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


def unresolved_overlaps(spec: NcAlgebraSpec) -> List[Tuple[Word, NcElement, NcElement]]:
    """Overlap ambiguities of `spec.rules` that do not resolve.

    For every pair of rules keyed (a, b) and (b, c), the word a*b*c is
    reduced once by each rule and both results are normalized.  By
    Bergman's diamond lemma the (terminating) presentation is confluent
    exactly when this list is empty.
    """
    out = []
    for (a, b), first in spec.rules.items():
        for (b2, c), second in spec.rules.items():
            if b2 != b:
                continue
            left: Dict[Word, Laurent] = {}
            right: Dict[Word, Laurent] = {}
            for coeff, repl in first:
                accumulate(left, repl + (c,), coeff)
            for coeff, repl in second:
                accumulate(right, (a,) + repl, coeff)
            left_nf = NcElement(spec, left).normalize()
            right_nf = NcElement(spec, right).normalize()
            if left_nf != right_nf:
                out.append(((a, b, c), left_nf, right_nf))
    return out

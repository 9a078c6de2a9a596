"""Layer spans recorded from outside the program.

A `Tracer` wraps public functions of the skeinlab modules and records,
per layer, the self time of its spans (span duration minus the time its
child spans cover) and a few counts taken at the same boundaries.

`install` swaps the wrapper into every loaded skeinlab module namespace
that holds the original function object.  Swapping only the defining
module's attribute would miss callers that imported the name directly
(`cli` does `from .skein import resolve`); swapping every reference
reaches those too, and calls inside the defining module go through its
globals, so nested calls (`multiply` -> `stacking_diagram`, `resolve`)
open child spans.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

# (module, function, layer) for every traced entry point.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("skeinlab.skein", "canonical_diagram", "skein.geometry"),
    ("skeinlab.skein", "stacking_diagram", "skein.geometry"),
    ("skeinlab.skein", "parse_diagram", "skein.geometry"),
    ("skeinlab.skein", "resolve", "skein.resolve"),
    ("skeinlab.skein", "multiply", "skein.multiply_self"),
    ("skeinlab.ncrewrite", "verify_commute_many", "ncrewrite.commute_many"),
    ("skeinlab.ncrewrite", "derive_e_n", "ncrewrite.derive_e_n"),
    ("skeinlab.ncrewrite", "verify_matrix_lemma", "ncrewrite.matrix_lemma"),
    ("skeinlab.cheby", "cheb_sine", "cheby.identities"),
    ("skeinlab.cheby", "cheb_cosine", "cheby.identities"),
    ("skeinlab.cheby", "qdiff_sine_sum", "cheby.identities"),
    ("skeinlab.cheby", "qdiff_sine_sum_closed", "cheby.identities"),
    ("skeinlab.cheby", "qweighted_cosine", "cheby.identities"),
    ("skeinlab.cheby", "boundary_form", "cheby.identities"),
    ("skeinlab.chvar", "nonvanishing_scan", "chvar.scan"),
    ("skeinlab.chvar", "fricke_f", "chvar.fricke"),
    ("skeinlab.fixtures", "verify_fixture_dir", "fixtures.verify"),
)

LAYERS = tuple(sorted({layer for _, _, layer in TARGETS}))
COUNTS = (
    "skein.diagrams",
    "skein.crossings",
    "skein.resolve_calls",
    "skein.state_space",
    "skein.terms_out",
    "skein.product_cache_hits",
    "skein.product_cache_misses",
    "chvar.scan_records",
    "chvar.fricke_evals",
    "fixtures.items",
)


def crossing_groups(d) -> List[int]:
    """Crossing counts of the crossing-connected curve groups of a diagram,
    largest first; crossing-free curves are groups with 0 crossings."""
    parent = list(range(len(d.polylines)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for crossing in d.crossings:
        a = find(crossing.branches[0][0])
        b = find(crossing.branches[1][0])
        parent[a] = b
    sizes = Counter(find(i) for i in range(len(d.polylines)))
    per_group = Counter(find(c.branches[0][0]) for c in d.crossings)
    return sorted((per_group[g] for g in sizes), reverse=True)


def _count_geometry(tracer: "Tracer", args, result, outermost: bool) -> None:
    if outermost:
        tracer.counts["skein.diagrams"] += 1
        tracer.counts["skein.crossings"] += len(result.crossings)


def _before_resolve(tracer: "Tracer", args) -> None:
    tracer.counts["skein.resolve_calls"] += 1
    tracer.counts["skein.state_space"] += sum(1 << c for c in crossing_groups(args[0]))


def _count_terms(tracer: "Tracer", args, result, outermost: bool) -> None:
    tracer.counts["skein.terms_out"] += len(result.terms)


def _count_records(tracer: "Tracer", args, result, outermost: bool) -> None:
    tracer.counts["chvar.scan_records"] += len(result.records)


def _count_fricke(tracer: "Tracer", args) -> None:
    tracer.counts["chvar.fricke_evals"] += 1


def _count_items(tracer: "Tracer", args, result, outermost: bool) -> None:
    tracer.counts["fixtures.items"] += len(result)


_BEFORE: Dict[str, Callable] = {"resolve": _before_resolve, "fricke_f": _count_fricke}
_AFTER: Dict[str, Callable] = {
    "canonical_diagram": _count_geometry,
    "stacking_diagram": _count_geometry,
    "parse_diagram": _count_geometry,
    "resolve": _count_terms,
    "nonvanishing_scan": _count_records,
    "verify_fixture_dir": _count_items,
}


class Tracer:
    """Self time per layer and counts, for one traced round.

    `verify all` runs its suites on threads, so each thread keeps its own
    span stack; the totals are shared and updated under a lock.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable, before=None, after=None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            outermost = all(frame[0] != layer for frame in stack)
            if before is not None:
                with tracer._lock:
                    before(tracer, args)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with tracer._lock:
                    tracer.self_s[layer] += elapsed - frame[1]
            if after is not None:
                with tracer._lock:
                    after(tracer, args, result, outermost)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> Callable[[], None]:
        """Swap wrappers into every skeinlab namespace; returns the undo."""
        swaps = []
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "skeinlab" or name.startswith("skeinlab."))
        ]
        for module_name, func, layer in TARGETS:
            if module_name not in sys.modules:  # not loaded, so never called
                continue
            original = getattr(sys.modules[module_name], func)
            wrapped = self.wrap(layer, original, _BEFORE.get(func), _AFTER.get(func))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        swaps.append((module, attr, original))

        def undo() -> None:
            for module, attr, original in reversed(swaps):
                setattr(module, attr, original)

        return undo

    def layer_metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {f"{layer}_s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        out.update({name: self.counts.get(name, 0) for name in COUNTS})
        return out

"""Pieces shared by the workloads: the round record and the classical
evaluation that the output checks compute on their own."""

from __future__ import annotations

import cmath
import math
import random
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

Matrix = Tuple[Tuple[complex, complex], Tuple[complex, complex]]
Multicurve = Tuple[Tuple[int, ...], ...]

IDENTITY: Matrix = ((1, 0), (0, 1))


@dataclass
class Round:
    """One pass over a workload's fixed operation list.

    `op_cpu_seconds` and `op_wall_seconds` hold the timed operations in
    list order, by the CPU clock of whatever did the work and by the
    wall clock.  `failed` counts every operation that failed; `problems`
    names those that were not expected to (a known fault that fails is
    counted but is no problem).  `counts` carries per-layer counts read after the round.
    """

    op_cpu_seconds: List[float] = field(default_factory=list)
    op_wall_seconds: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    outputs: object = None

    @contextmanager
    def timed(self, cpu_clock: Callable[[], float] = time.process_time) -> Iterator[None]:
        """Time one operation.  `cpu_clock` is this process's CPU time by
        default; pass `children_cpu_s` for work done in a child process."""
        wall, cpu = time.perf_counter(), cpu_clock()
        yield
        self.op_cpu_seconds.append(cpu_clock() - cpu)
        self.op_wall_seconds.append(time.perf_counter() - wall)

    def record(self, ok: bool, problem: str = "", known_fault: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_fault:
                self.problems.append(problem)


def children_cpu_s() -> float:
    """User plus system CPU seconds of every child process reaped so far,
    all threads included."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def classical_at_minus_one(exponents: Iterable[Tuple[int, int]]) -> int:
    """A scalar sum c * h^e, given as (e, c) pairs, at h = -1."""
    return sum(c if e % 2 == 0 else -c for e, c in exponents)


def _mul(a: Matrix, b: Matrix) -> Matrix:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def classical_value(terms: Iterable[Tuple[int, Multicurve]], rho: Sequence[Matrix]) -> complex:
    """Sum of c * prod over components S of -tr(rho[i1] ... rho[ik]).

    `terms` are (coefficient at h = -1, multicurve) pairs; this is the
    trace evaluation written out from its definition, not the program's.
    """
    total = 0j
    for coeff, multicurve in terms:
        value = complex(coeff)
        for comp in multicurve:
            prod = IDENTITY
            for hole in comp:
                prod = _mul(prod, rho[hole - 1])
            value *= -(prod[0][0] + prod[1][1])
        total += value
    return total


def diagonal_rep(rng: random.Random, n_holes: int) -> List[Matrix]:
    """Abelian representation: diag(l, 1/l) per hole, |l| near 1."""
    rho = []
    for _ in range(n_holes):
        lam = rng.uniform(0.8, 1.25) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        rho.append(((lam, 0j), (0j, 1 / lam)))
    return rho


def agree(x: complex, y: complex) -> bool:
    return abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))

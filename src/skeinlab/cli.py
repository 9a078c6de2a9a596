"""Command-line entry point wiring the verification suites together.

Subcommands:

    verify all [--config FILE] [--seed N] [--timings]
    cheby verify [--max-n N]
    ncverify [--max-n N] [--route a|b|both]
    skein resolve <file> | multiply <a> <b> | verify-fixture <dir>
    chvar scan [--tangles ...] [--t-samples N] [--b-samples N] [--seed N]
    chvar fricke [--trials N] [--seed N]
    fixtures emit --dir DIR [--force]

Exit codes: 0 when everything passed (SKIPPED allowed), 1 when any check
failed, 2 for configuration or input errors.

Each command imports only the layers it runs; `verify all` imports them all.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import random
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import InputError
from .ring import m2_adj, m2_det, m2_mul, m2_trace

if TYPE_CHECKING:
    from .fixtures import CheckResult

__all__ = [
    "ConfigError",
    "main",
    "parse_config",
    "run_all",
]


class ConfigError(InputError):
    """Configuration file or parameter problem; maps to exit code 2."""


_CONFIG_DEFAULTS: Dict[str, Union[int, str]] = {
    "max_n": 12,
    "b_samples": 40,
    "t_samples": 2,
    "fixture_dir": "fixtures",
    "seed": 0,
}
_INT_KEYS = ("max_n", "b_samples", "t_samples", "seed")

# Grid points per scanned trace value.  A point costs about 0.3 ms and
# 0.4 KB, so the maximum keeps one scan near 30 s and 40 MB.
_MIN_B_SAMPLES = 32
_MAX_B_SAMPLES = 100_000
# Grid points over all scans, t_samples x b_samples: about 5 min.  Memory
# stays that of one scan, since each trace value builds its grid in turn.
_MAX_GRID_POINTS = 1_000_000
# Largest degree for `cheby verify --max-n`, `ncverify --max-n` and the
# config's `max_n`.  The rewriting checks cost the most and grow about as
# n^3: at 96, `ncverify` takes about 8 s of CPU and 98 MB, `verify all` 8 s
# and 90 MB.
_MAX_DEGREE = 96


def _check_range(value: int, least: int, most: int, name: str) -> None:
    if value < least:
        raise ConfigError(f"{name} must be at least {least}")
    if value > most:
        raise ConfigError(f"{name} must be at most {most}")


def _check_grid(t_samples: int, b_samples: int, where: str, t_name: str, b_name: str) -> None:
    _check_range(b_samples, _MIN_B_SAMPLES, _MAX_B_SAMPLES, f"{where}{b_name}")
    if t_samples < 1:
        raise ConfigError(f"{where}{t_name} must be at least 1")
    if t_samples * b_samples > _MAX_GRID_POINTS:
        raise ConfigError(f"{where}{t_name} x {b_name} must be at most {_MAX_GRID_POINTS}")


def parse_config(text: str, source: str = "config") -> Dict[str, Union[int, str]]:
    """Parse line-oriented `key = value` configuration text."""
    values = dict(_CONFIG_DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_DEFAULTS:
            raise ConfigError(f"{source} line {lineno}: unknown key {key!r}")
        if key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(
                    f"{source} line {lineno}: {key} expects an integer, got {value!r}"
                ) from None
        else:
            values[key] = value
    _check_range(int(values["max_n"]), 1, _MAX_DEGREE, f"{source}: max_n")
    _check_grid(
        int(values["t_samples"]), int(values["b_samples"]), f"{source}: ", "t_samples", "b_samples"
    )
    return values


# A suite's checks: (name, check) pairs, each check returning (status, detail).
_Checks = List[Tuple[str, Callable[[], Tuple[str, str]]]]


def _verdict(failed: bool) -> int:
    """Print the closing `result:` line and return the exit code."""
    print(f"result: {'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0


def _report(results: Sequence[CheckResult], include_timings: bool = False) -> int:
    for result in results:
        print(result.render(include_timings))
    return _verdict(any(result.status == "FAIL" for result in results))


# ---------------------------------------------------------------------------
# Suites.  Each builder imports its layer before `run_check` times an item.


def _first_failure(holds: Callable[[int], bool], max_n: int) -> Tuple[str, str]:
    for n in range(max_n + 1):
        if not holds(n):
            return "FAIL", f"first failure at n={n}"
    return "PASS", f"n <= {max_n}"


def _cheby_identity_checks(max_n: int) -> _Checks:
    from . import cheby

    # The Chebyshev identities: whether each holds at degree n.
    identities: Dict[str, Callable[[int], bool]] = {
        "qdiff_closed_form": lambda n: cheby.qdiff_sine_sum(n) == cheby.qdiff_sine_sum_closed(n),
        "cosine_from_sines": lambda n: (
            cheby.cheb_cosine(n) == cheby.cheb_sine(n + 1) - cheby.cheb_sine(n - 1)
        ),
        "sine_cosine_product": lambda n: (
            cheby.cheb_sine(n) * cheby.cheb_cosine(n) == cheby.cheb_sine(2 * n)
        ),
    }
    return [(name, partial(_first_failure, test, max_n)) for name, test in identities.items()]


def _suite(suite: str, checks: _Checks) -> List[CheckResult]:
    from . import fixtures

    return [fixtures.run_check(f"{suite}.{name}", check) for name, check in checks]


def _ncrewrite_checks(max_n: int) -> _Checks:
    from . import ncrewrite

    def matrix_lemma() -> Tuple[str, str]:
        report = ncrewrite.verify_matrix_lemma(max_n)
        if report.ok:
            return "PASS", f"n <= {max_n}"
        return "FAIL", f"first failure at n={report.first_failure}"

    def commute_many() -> Tuple[str, str]:
        # Route b's suffixes, shared by every degree and freed on return.
        memo: ncrewrite.SuffixMemo = {}
        for n in range(1, max_n + 1):
            result = ncrewrite.verify_commute_many(n, memo=memo)
            if not result.ok:
                return "FAIL", f"n={n}: {result.residual}"
        return "PASS", f"n <= {max_n}, both routes"

    def e_n_derivation() -> Tuple[str, str]:
        for n in range(1, max_n + 1):
            derivation = ncrewrite.derive_e_n(n)
            if not derivation.ok:
                return "FAIL", f"n={n}: {derivation.detail}"
        return "PASS", f"n <= {max_n}"

    def mutation_detected() -> Tuple[str, str]:
        mutated = ncrewrite.verify_commute_many(2, mutate=True)
        if mutated.ok or mutated.residual is None:
            return "FAIL", "mutated coefficient went unnoticed"
        return "PASS", "single-coefficient mutation caught"

    return [
        ("matrix_lemma", matrix_lemma),
        ("commute_many", commute_many),
        ("e_n_derivation", e_n_derivation),
        ("mutation_detected", mutation_detected),
    ]


def _random_sl2_int(rng: random.Random) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    m = ((1, 0), (0, 1))
    for _ in range(rng.randint(2, 5)):
        k = rng.randint(-3, 3)
        e = ((1, k), (0, 1)) if rng.random() < 0.5 else ((1, 0), (k, 1))
        m = m2_mul(m, e)
    return m


def _skein_suite(seed: int, fixture_dir: str) -> List[CheckResult]:
    from dataclasses import replace

    from . import fixtures, skein

    def random_laminar(rng: random.Random, n_holes: int, max_comps: int) -> skein.Multicurve:
        while True:
            comps = []
            for _ in range(rng.randint(1, max_comps)):
                size = rng.randint(1, n_holes)
                comps.append(tuple(sorted(rng.sample(range(1, n_holes + 1), size))))
            if skein.is_laminar(comps):
                return tuple(sorted(comps))

    def roundtrip() -> Tuple[str, str]:
        rng = random.Random(f"{seed}:skein-roundtrip")
        board = skein.Board(3)
        for _ in range(12):
            m = random_laminar(rng, 3, 3)
            element = skein.resolve(skein.canonical_diagram(m, board))
            if element != skein.SkeinElement.basis(board, m):
                return "FAIL", f"roundtrip broke on {m}"
        return "PASS", "12 random multicurves on 3 holes"

    def annulus() -> Tuple[str, str]:
        board = skein.Board(1)
        for i in range(0, 3):
            for j in range(0, 5 - i):
                a = skein.SkeinElement.basis(board, [(1,)] * i)
                b = skein.SkeinElement.basis(board, [(1,)] * j)
                if skein.multiply(a, b) != skein.SkeinElement.basis(board, [(1,)] * (i + j)):
                    return "FAIL", f"power product {i}+{j} broke"
        return "PASS", "basis powers multiply like a polynomial algebra"

    def strand_slide() -> Tuple[str, str]:
        report = skein.verify_skein_identity(
            [(1, fixtures.shipped_diagram("r2poked"))], [(1, fixtures.shipped_diagram("r2nested"))]
        )
        if report.ok:
            return "PASS", "poked loop equals plain nesting"
        return "FAIL", report.first_discrepancy or "mismatch"

    def epsilon_factorization() -> Tuple[str, str]:
        rng = random.Random(f"{seed}:skein-epsilon")
        board = skein.Board(3)
        for _ in range(10):
            union = random_laminar(rng, 3, 4)
            mask = [rng.random() < 0.5 for _ in union]
            part_a = tuple(c for c, keep in zip(union, mask) if keep)
            part_b = tuple(c for c, keep in zip(union, mask) if not keep)
            a = skein.SkeinElement.basis(board, part_a)
            b = skein.SkeinElement.basis(board, part_b)
            product = skein.multiply(a, b)
            for _ in range(3):
                rho = [_random_sl2_int(rng) for _ in range(3)]
                lhs = skein.epsilon_of_element(product, rho)
                rhs = skein.epsilon_of_element(a, rho) * skein.epsilon_of_element(b, rho)
                if abs(lhs - rhs) > 1e-9:
                    return "FAIL", f"deviation {abs(lhs - rhs)} on {union}"
        return "PASS", "laminar-union pairs factor exactly"

    listed: List[CheckResult] = []

    def manifest() -> Tuple[str, str]:
        if not (Path(fixture_dir) / "manifest.txt").is_file():
            return "SKIPPED", f"{fixture_dir} has no manifest.txt"
        try:
            listed.extend(fixtures.verify_fixture_dir(fixture_dir))
        except fixtures.ManifestError as exc:
            return "FAIL", str(exc)
        return "PASS", ""

    checks = [
        ("roundtrip", roundtrip),
        ("annulus", annulus),
        ("strand_slide", strand_slide),
        ("epsilon_factorization", epsilon_factorization),
        ("fixtures", manifest),
    ]
    *items, loaded = _suite("skein", checks)
    if loaded.status != "PASS":  # no fixtures to list: the manifest is the item
        return items + [loaded]
    return items + [replace(r, name=f"skein.fixture {r.name}") for r in listed]


def _sample_t(rng: random.Random) -> float:
    return 2 * math.cos(rng.uniform(0.3, math.pi - 0.3))


def _sample_b(rng: random.Random, t: complex) -> complex:
    radius = rng.uniform(0.5, 2.5)
    phase = rng.uniform(0, 2 * math.pi)
    return t * t + radius * cmath.exp(1j * phase)


def _random_trace_t(rng: random.Random, t: complex):
    lam = (t + cmath.sqrt(t * t - 4)) / 2
    while True:
        a, b, c, d = (rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(4))
        det = m2_det(((a, b), (c, d)))
        if abs(det) > 1e-3:
            break
    root = cmath.sqrt(det)
    m = ((a / root, b / root), (c / root, d / root))
    return m2_mul(m2_mul(m, ((lam, 0), (0, 1 / lam))), m2_adj(m))


# f vanishes on the traces of any triple whose traces all equal t, so what
# is left is rounding.  f is cubic in the traces, so its rounding grows like
# M^3, M = max(1, |t|, |each trace|); a triple passes when |f| <= tol * M^3.
_FRICKE_TOL = 1e-8
# Largest `chvar fricke --trials`; a triple costs about 35 us, so about 35 s.
_MAX_TRIALS = 1_000_000
# A tangle of `chvar scan --tangles`: a literal trace, or a slope (p, q).
_Tangle = Union[complex, Tuple[int, int]]


def _fricke_max_residual(seed: int, trials: int) -> Tuple[float, bool]:
    """Largest |f| over `trials` random triples (NaN if any |f| is NaN),
    and whether every triple passes; the triples are spread over 10 trace
    values, and the first `trials % 10` of them get one triple more."""
    from . import chvar

    rng = random.Random(f"{seed}:fricke")
    worst, passed = 0.0, True
    for k in range(10):
        t = _sample_t(rng)
        for _ in range(trials // 10 + (k < trials % 10)):
            a1, a2, a3 = (_random_trace_t(rng, t) for _ in range(3))
            traces = (m2_trace(a1, a2), m2_trace(a1, a3), m2_trace(a2, a3), m2_trace(a1, a2, a3))
            residual = abs(chvar.fricke_f(*traces, t))
            if residual > worst or math.isnan(residual):  # NaN stays the maximum
                worst = residual
            passed = passed and residual <= _FRICKE_TOL * max(1.0, abs(t), *map(abs, traces)) ** 3
    return worst, passed


def _scans(tangles: Sequence[_Tangle], seed: int, t_samples: int, b_samples: int):
    """Yield (t, report, (healthy, why)) for each sampled trace t in turn,
    scanning each on its own seeded grid of b samples."""
    from . import chvar

    rng = random.Random(f"{seed}:chvar-t")
    for k in range(t_samples):
        t = _sample_t(rng)
        grid_rng = random.Random(f"{seed}:chvar-grid:{k}")
        grid = [_sample_b(grid_rng, t) for _ in range(b_samples)]
        report = chvar.nonvanishing_scan(tangles, t, grid)
        yield t, report, _scan_healthy(report)


def _scan_healthy(report) -> Tuple[bool, str]:
    if report.nonvanish_fraction < 0.95:
        return False, f"nonvanish fraction {report.nonvanish_fraction:.3f}"
    for rec in report.records:
        if rec.built and rec.eps_e_min_abs <= 1e-6:
            if min(abs(rec.b - root) for root in report.quad_roots) >= 1e-6:
                return False, f"stray zero at b={rec.b}"
    for label, fractions in report.sibling_fractions:
        if max(fractions) < 0.95:
            return False, f"{label} vanishes on every branch"
        for frac in fractions:
            if frac < 0.95 and frac != 0.0:
                return False, f"{label} has a half-vanishing branch ({frac:.3f})"
    return True, ""


def _chvar_checks(seed: int, t_samples: int, b_samples: int) -> _Checks:
    from . import chvar  # noqa: F401  (the checks below use it through their helpers)

    def fricke() -> Tuple[str, str]:
        worst, passed = _fricke_max_residual(seed, 200)
        if passed:
            return "PASS", f"max |f| = {worst:.2e} over 200 triples"
        return "FAIL", f"max |f| = {worst:.2e}"

    def x1_scan() -> Tuple[str, str]:
        worst_fraction = 1.0
        for t, report, (healthy, why) in _scans(((1, 3),) * 4, seed, t_samples, b_samples):
            if not healthy:
                return "FAIL", f"t={t:.6g}: {why}"
            worst_fraction = min(worst_fraction, report.nonvanish_fraction)
        return (
            "PASS",
            f"{t_samples} scans x {b_samples} samples, "
            f"min nonvanish fraction {worst_fraction:.3f}",
        )

    return [("fricke_random", fricke), ("x1_scan", x1_scan)]


def run_all(config: Dict[str, Union[int, str]]) -> List[CheckResult]:
    """Run every suite in turn and return its items in suite order."""
    seed = int(config["seed"])
    max_n = int(config["max_n"])
    return (
        _suite("cheby", _cheby_identity_checks(max_n))
        + _suite("ncrewrite", _ncrewrite_checks(max_n))
        + _skein_suite(seed, str(config["fixture_dir"]))
        + _suite("chvar", _chvar_checks(seed, int(config["t_samples"]), int(config["b_samples"])))
    )


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_verify(args: argparse.Namespace) -> int:
    config_text = ""
    source = "defaults"
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file {args.config} not found")
        config_text = path.read_text(encoding="utf-8")
        source = str(path)
    config = parse_config(config_text, source=source)
    if args.seed is not None:
        config["seed"] = args.seed
    print(f"seed={config['seed']}")
    return _report(run_all(config), args.timings)


def _cmd_cheby(args: argparse.Namespace) -> int:
    _check_range(args.max_n, 0, _MAX_DEGREE, "--max-n")
    failed = False
    for name, check in _cheby_identity_checks(args.max_n):
        status, detail = check()
        failed = failed or status == "FAIL"
        print(f"{name} n<={args.max_n}: {status}" + (f" ({detail})" if status == "FAIL" else ""))
    return _verdict(failed)


def _cmd_ncverify(args: argparse.Namespace) -> int:
    from . import ncrewrite

    _check_range(args.max_n, 1, _MAX_DEGREE, "--max-n")
    failed = False
    memo: ncrewrite.SuffixMemo = {}  # route b's suffixes, for every degree
    for n in range(1, args.max_n + 1):
        result = ncrewrite.verify_commute_many(n, route=args.route, memo=memo)
        commute = "PASS" if result.ok else "FAIL"
        derivation = ncrewrite.derive_e_n(n)
        e_n = "PASS" if derivation.ok else "FAIL"
        failed = failed or not (result.ok and derivation.ok)
        print(f"n={n} commute_many={commute} e_n={e_n}")
    mutated = ncrewrite.verify_commute_many(2, route=args.route, mutate=True, memo=memo)
    caught = not mutated.ok and mutated.residual is not None
    failed = failed or not caught
    print(f"mutation_detected={'PASS' if caught else 'FAIL'}")
    return _verdict(failed)


def _cmd_skein(args: argparse.Namespace) -> int:
    from . import skein

    def read(path: str) -> skein.Diagram:
        file_path = Path(path)
        if not file_path.is_file():
            raise skein.DiagramError(f"diagram file {path} not found")
        return skein.parse_diagram(file_path.read_text(encoding="utf-8"))

    if args.action == "resolve":
        element = skein.resolve(read(args.file))
        print(element.render())
        return 0
    if args.action == "multiply":
        ea = skein.resolve(read(args.file_a))
        eb = skein.resolve(read(args.file_b))
        print(skein.multiply(ea, eb).render())
        return 0
    # verify-fixture
    from dataclasses import replace

    from . import fixtures

    results = fixtures.verify_fixture_dir(args.dir)
    return _report([replace(r, name=f"fixture {r.name}") for r in results])


def _parse_tangles(text: str) -> Tuple[_Tangle, ...]:
    from . import chvar

    out: List[_Tangle] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ConfigError(f"empty tangle entry in {text!r}")
        if "/" in chunk:
            num, _, den = chunk.partition("/")
            try:
                slope = (int(num), int(den))
                chvar.check_slope(*slope)
            except ValueError as exc:
                raise ConfigError(f"bad tangle fraction {chunk!r}: {exc}") from None
            out.append(slope)
        else:
            try:
                trace = complex(chunk)
            except ValueError:
                raise ConfigError(f"bad tangle trace {chunk!r}") from None
            if not cmath.isfinite(trace):
                raise ConfigError(f"bad tangle trace {chunk!r}: not finite")
            if abs(trace - 2) < chvar._DEGENERATE_TOL:
                raise ConfigError(f"bad tangle trace {chunk!r}: 2 lies on the reducible locus")
            out.append(trace)
    if len(out) != 4:
        raise ConfigError(f"need exactly 4 tangles, got {len(out)}")
    return tuple(out)


def _cmd_chvar(args: argparse.Namespace) -> int:
    if args.action == "fricke":
        _check_range(args.trials, 1, _MAX_TRIALS, "--trials")
        worst, passed = _fricke_max_residual(args.seed, args.trials)
        print(f"trials={args.trials} max_abs_f={worst:.3e}")
        return _verdict(not passed)
    # scan
    tangles = _parse_tangles(args.tangles)
    _check_grid(args.t_samples, args.b_samples, "", "--t-samples", "--b-samples")
    print(
        f"# tangles={args.tangles} t_samples={args.t_samples} "
        f"b_samples={args.b_samples} seed={args.seed}"
    )
    failed = False
    for t, report, (healthy, why) in _scans(tangles, args.seed, args.t_samples, args.b_samples):
        print(f"# t={t:.9g}")
        print(report.render())
        if not healthy:
            failed = True
            print(f"# unhealthy: {why}")
    return _verdict(failed)


def _cmd_fixtures(args: argparse.Namespace) -> int:
    from . import fixtures

    written = fixtures.emit_fixture_templates(args.dir, force=args.force)
    print(f"wrote {len(written)} files to {args.dir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeinlab",
        description="verification suites for the holed-disk skein engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run every suite")
    p_verify.add_argument("what", choices=["all"])
    p_verify.add_argument("--config", default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--timings", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_cheby = sub.add_parser("cheby", help="polynomial family identities")
    p_cheby.add_argument("what", choices=["verify"])
    p_cheby.add_argument("--max-n", type=int, default=32)
    p_cheby.set_defaults(func=_cmd_cheby)

    p_nc = sub.add_parser("ncverify", help="rewriting identities")
    p_nc.add_argument("--max-n", type=int, default=16)
    p_nc.add_argument("--route", choices=["a", "b", "both"], default="both")
    p_nc.set_defaults(func=_cmd_ncverify)

    p_skein = sub.add_parser("skein", help="diagram engine")
    skein_sub = p_skein.add_subparsers(dest="action", required=True)
    p_resolve = skein_sub.add_parser("resolve")
    p_resolve.add_argument("file")
    p_mult = skein_sub.add_parser("multiply")
    p_mult.add_argument("file_a")
    p_mult.add_argument("file_b")
    p_fix = skein_sub.add_parser("verify-fixture")
    p_fix.add_argument("dir")
    p_skein.set_defaults(func=_cmd_skein)

    p_chvar = sub.add_parser("chvar", help="trace-calculus scans")
    chvar_sub = p_chvar.add_subparsers(dest="action", required=True)
    p_scan = chvar_sub.add_parser("scan")
    p_scan.add_argument("--tangles", default="1/3,1/3,1/3,1/3")
    p_scan.add_argument("--t-samples", type=int, default=8)
    p_scan.add_argument("--b-samples", type=int, default=100)
    p_scan.add_argument("--seed", type=int, default=0)
    p_fricke = chvar_sub.add_parser("fricke")
    p_fricke.add_argument("--trials", type=int, default=1000)
    p_fricke.add_argument("--seed", type=int, default=0)
    p_chvar.set_defaults(func=_cmd_chvar)

    p_fixtures = sub.add_parser("fixtures", help="transcription templates")
    fixtures_sub = p_fixtures.add_subparsers(dest="action", required=True)
    p_emit = fixtures_sub.add_parser("emit")
    p_emit.add_argument("--dir", required=True)
    p_emit.add_argument("--force", action="store_true")
    p_fixtures.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except BrokenPipeError:
        # The reader went away (`... | head -1`) before the command finished,
        # so its verdict is unknown.
        _drop_stdout()
        return 1
    except InputError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        _drop_stdout()  # the command finished: its verdict stands
    return code


def _drop_stdout() -> None:
    """Point stdout at devnull, so the exit flush of the buffered rest cannot
    fail again on the closed pipe."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())

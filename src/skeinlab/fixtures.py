"""Identity fixtures: named linear combinations of diagram files.

A fixture directory holds one ``manifest.txt`` plus a flat set of
``<slot>.diagram`` files.  Each fixture in the manifest names a board, a
left side, and a right side; both sides are lists of ``scalar : file``
entries.  Verification resolves both sides with the skein engine and
reports PASS, FAIL, or SKIPPED.  A slot file whose first meaningful line
is the word ``unfilled`` marks every fixture using it as SKIPPED, so the
shipped templates can be filled in one diagram at a time.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import InputError
from .ring import ONE, Q_PLUS_QINV, Laurent
from .skein import Diagram, DiagramError, parse_diagram, verify_skein_identity

__all__ = [
    "CheckResult",
    "FixtureSpec",
    "MAX_ALPHA_POWER",
    "ManifestError",
    "UNFILLED_MARKER",
    "emit_fixture_templates",
    "parse_manifest",
    "parse_scalar",
    "run_check",
    "shipped_diagram",
    "verify_fixture_dir",
]

UNFILLED_MARKER = "unfilled"

# Largest power of alpha one scalar term may carry.  alpha^k expands to
# k + 1 terms, so an unbounded exponent would hang the parser.
MAX_ALPHA_POWER = 64


class ManifestError(InputError):
    """Malformed manifest text; the message names the offending line."""


@dataclass(frozen=True)
class FixtureSpec:
    name: str
    n_holes: int
    lhs: Tuple[Tuple[Laurent, str], ...]
    rhs: Tuple[Tuple[Laurent, str], ...]


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict, as every report prints it."""

    name: str
    status: str  # PASS, FAIL, or SKIPPED
    detail: str = ""
    seconds: float = field(default=0.0, compare=False)  # wall time of this check

    def render(self, include_timings: bool = False) -> str:
        line = f"{self.name}: {self.status}"
        if self.detail:
            line += f" ({self.detail})"
        if include_timings:
            line += f" [{self.seconds:.6f}s]"
        return line


def run_check(name: str, check: Callable[[], Tuple[str, str]]) -> CheckResult:
    """Time one `() -> (status, detail)` check; an exception it raises
    fails this check alone."""
    start = time.perf_counter()
    try:
        status, detail = check()
    except Exception as exc:
        status, detail = "FAIL", f"{type(exc).__name__}: {exc}"
    return CheckResult(name, status, detail, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Scalar tokens


# One factor: an integer, a braced power of q as `Laurent.render` writes it
# (`q^{k}`, `q^{k/2}`), or q, qbar, h or alpha with an optional power; alpha
# has no negative powers.  The braced form comes first, since a term that
# matched a bare `q` would not be retried.
_FACTOR_PATTERN = r"(?:\d+|q\^\{-?\d+(?:/2)?\}|(?:qbar|q|h)(?:\^-?\d+)?|alpha(?:\^\d+)?)"
_TERM_RE = re.compile(rf"([+-]?)({_FACTOR_PATTERN}(?:\*{_FACTOR_PATTERN})*)")


def _scalar_factor(token: str) -> Tuple[Laurent, int]:
    """Value of one factor, with any power of alpha returned unexpanded."""
    if token.isdigit():
        return Laurent.integer(int(token)), 0
    name, _, exp = token.partition("^")
    if exp.startswith("{"):
        k, _, half = exp[1:-1].partition("/")
        return Laurent.h_power(int(k) if half else 2 * int(k)), 0
    k = int(exp) if exp else 1
    if name == "alpha":
        return ONE, k
    if name == "h":
        return Laurent.h_power(k), 0
    return Laurent.q_power(-k if name == "qbar" else k), 0


def parse_scalar(text: str) -> Laurent:
    """Scalar grammar: signed products of integers, q, qbar, h, alpha and
    their integer powers (`-q^2*alpha`, `q-qbar`), where q's power may
    also be braced (`+1*q^{1/2}`), so every `Laurent.render` output parses
    back to its value.  Whitespace is ignored."""
    s = "".join(text.split())
    total = Laurent.zero()
    pos = 0
    while True:
        m = _TERM_RE.match(s, pos)
        if m is None or (pos and not m.group(1)):
            raise ValueError(f"cannot parse scalar {text!r}")
        term = Laurent.integer(-1 if m.group(1) == "-" else 1)
        alpha_power = 0
        for token in m.group(2).split("*"):
            factor, k = _scalar_factor(token)
            term = term * factor
            alpha_power += k
        if alpha_power > MAX_ALPHA_POWER:
            raise ValueError(f"alpha power {alpha_power} exceeds the limit {MAX_ALPHA_POWER}")
        total = total + term * Q_PLUS_QINV**alpha_power
        pos = m.end()
        if pos == len(s):
            return total


# ---------------------------------------------------------------------------
# Manifest


def parse_manifest(text: str) -> List[FixtureSpec]:
    specs: List[FixtureSpec] = []
    seen: set = set()
    name: Optional[str] = None
    name_line = 0
    holes: Optional[int] = None
    sides: Dict[str, List[Tuple[Laurent, str]]] = {"lhs": [], "rhs": []}

    def finish() -> None:
        if name is None:
            return
        if holes is None:
            raise ManifestError(
                f"line {name_line}: fixture '{name}' has no 'board holes=' line"
            )
        if not sides["lhs"]:
            raise ManifestError(f"line {name_line}: fixture '{name}' has no lhs")
        specs.append(FixtureSpec(name, holes, tuple(sides["lhs"]), tuple(sides["rhs"])))

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("fixture "):
            finish()
            name = line[len("fixture "):].strip()
            if not name:
                raise ManifestError(f"line {ln}: fixture needs a name")
            if name in seen:
                raise ManifestError(f"line {ln}: duplicate fixture '{name}'")
            seen.add(name)
            name_line = ln
            holes = None
            sides = {"lhs": [], "rhs": []}
            continue
        if name is None:
            raise ManifestError(f"line {ln}: expected 'fixture <name>' first")
        if line.startswith("board holes="):
            if holes is not None:
                raise ManifestError(f"line {ln}: duplicate board line")
            try:
                holes = int(line[len("board holes="):])
            except ValueError:
                raise ManifestError(f"line {ln}: bad hole count") from None
            if holes < 0:
                raise ManifestError(f"line {ln}: bad hole count")
            continue
        side = line[:3]
        if side in ("lhs", "rhs") and line[3:4] in (" ", "\t"):
            body = line[3:]
            coeff_text, sep, fname = body.partition(":")
            if not sep:
                raise ManifestError(f"line {ln}: '{side}' line needs ':'")
            try:
                coeff = parse_scalar(coeff_text)
            except ValueError as exc:
                raise ManifestError(f"line {ln}: {exc}") from None
            fname = fname.strip()
            if not fname or "/" in fname or "\\" in fname:
                raise ManifestError(f"line {ln}: bad file name {fname!r}")
            sides[side].append((coeff, fname))
            continue
        raise ManifestError(f"line {ln}: unrecognized line '{line}'")
    finish()
    if not specs:
        raise ManifestError("line 1: no fixtures declared")
    return specs


# ---------------------------------------------------------------------------
# Verification


def _is_unfilled(text: str) -> bool:
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        return line == UNFILLED_MARKER
    return False


def _verify_one(root: Path, spec: FixtureSpec) -> Tuple[str, str]:
    sides: List[List[Tuple[Laurent, Diagram]]] = []
    for side in (spec.lhs, spec.rhs):
        built: List[Tuple[Laurent, Diagram]] = []
        for coeff, fname in side:
            path = root / fname
            if not path.is_file():
                return "FAIL", f"missing file {fname}"
            text = path.read_text()
            if _is_unfilled(text):
                return "SKIPPED", f"{fname} not transcribed"
            try:
                d = parse_diagram(text)
            except DiagramError as exc:
                return "FAIL", f"{fname}: {exc}"
            if d.board.n_holes != spec.n_holes:
                return (
                    "FAIL",
                    f"{fname}: board has {d.board.n_holes} holes, "
                    f"manifest says {spec.n_holes}",
                )
            built.append((coeff, d))
        sides.append(built)
    report = verify_skein_identity(sides[0], sides[1])
    if report.ok:
        return "PASS", ""
    return "FAIL", report.first_discrepancy or ""


def verify_fixture_dir(path: "str | Path") -> List[CheckResult]:
    """Verify every fixture declared in `path`/manifest.txt, in order; a
    fixture whose check raises fails alone."""
    root = Path(path)
    manifest = root / "manifest.txt"
    if not manifest.is_file():
        raise ManifestError(f"no manifest.txt in {root}")
    return [
        run_check(spec.name, lambda spec=spec: _verify_one(root, spec))
        for spec in parse_manifest(manifest.read_text())
    ]


# ---------------------------------------------------------------------------
# Shipped inventory


@dataclass(frozen=True)
class _Identity:
    name: str
    holes: int
    target: str
    lhs: Tuple[Tuple[str, str], ...]  # (scalar token, slot)
    rhs: Tuple[Tuple[str, str], ...]


def _tok(base: str, sign: int) -> str:
    return base if sign > 0 else "-" + base


def _pair(base: str, fmt: str, i: int, j: int) -> Tuple[Tuple[str, str], ...]:
    # base * (t_i - tt_i) * (t_j - tt_j), one slot per expanded product
    out = []
    for sa, a in ((1, f"t{i}"), (-1, f"tt{i}")):
        for sb, b in ((1, f"t{j}"), (-1, f"tt{j}")):
            out.append((_tok(base, sa * sb), fmt.format(a=a, b=b)))
    return tuple(out)


def _band(base: str, fmt: str, i: int, j: int) -> Tuple[Tuple[str, str], ...]:
    # base * (u_i - l_i) * (t_j - tt_j)
    out = []
    for su, u in ((1, f"u{i}"), (-1, f"l{i}")):
        for sb, b in ((1, f"t{j}"), (-1, f"tt{j}")):
            out.append((_tok(base, su * sb), fmt.format(u=u, b=b)))
    return tuple(out)


def _neg(slots: Tuple[Tuple[str, str], ...]) -> Tuple[Tuple[str, str], ...]:
    flipped = []
    for token, slot in slots:
        flipped.append((token[1:] if token.startswith("-") else "-" + token, slot))
    return tuple(flipped)


def _side(text: str) -> Tuple[Tuple[str, str], ...]:
    # "q*lp1 - x1t1 + t2r1" -> (("q", "lp1"), ("-1", "x1t1"), ("1", "t2r1"))
    parts = re.split(r" ([+-]) ", text)
    terms = []
    for sign, term in zip(["+"] + parts[1::2], parts[0::2]):
        token, _, slot = term.rpartition("*")
        token = token or "1"
        terms.append((token if sign == "+" else "-" + token, slot))
    return tuple(terms)


def _equation(name: str, holes: int, target: str) -> _Identity:
    """An identity whose target is a flat sum of terms on each side."""
    lhs, rhs = target.split(" = ")
    return _Identity(name, holes, target, _side(lhs), _side(rhs))


_INVENTORY: Tuple[_Identity, ...] = (
    _equation("x1t1", 5, "x1t1 = q*lp1 + qbar*l1 + t2r1 + t4r2"),
    _equation("t1x1", 5, "t1x1 = qbar*lp1 + q*l1 + t2r1 + t4r2"),
    _Identity(
        "commutator_l1",
        5,
        "t1x1 - x1t1 = (q-qbar)*(l1 - lp1)",
        (("1", "t1x1"), ("-1", "x1t1")),
        (("q-qbar", "l1"), ("qbar-q", "lp1")),
    ),
    _Identity(
        "inner_square_diff",
        5,
        "yp - y = qbar*(t3l1 + t1l3 - t4l2 - t2l4) + x2t2t4 - x1t1t3",
        (("1", "yp"), ("-1", "y")),
        (
            ("qbar", "t3l1"),
            ("qbar", "t1l3"),
            ("-qbar", "t4l2"),
            ("-qbar", "t2l4"),
            ("1", "x2t2t4"),
            ("-1", "x1t1t3"),
        ),
    ),
    _Identity(
        "outer_square_diff",
        5,
        "yp - y = qbar*(tt4u2 + tt2u4 - tt3u1 - tt1u3) + x1tt1tt3 - x2tt2tt4",
        (("1", "yp"), ("-1", "y")),
        (
            ("qbar", "tt4u2"),
            ("qbar", "tt2u4"),
            ("-qbar", "tt3u1"),
            ("-qbar", "tt1u3"),
            ("1", "x1tt1tt3"),
            ("-1", "x2tt2tt4"),
        ),
    ),
    _equation("x1s3", 5, "x1s3 = q*ga12 + qbar*ga34 + tt2t4 + t2tt4"),
    _equation("x2s3", 5, "x2s3 = q*ga41 + qbar*ga23 + tt1t3 + t1tt3"),
    _equation(
        "u1s3",
        5,
        "u1s3 = q^2*ga12tt1 - q^2*ga1tt2 - q^2*ga2tt4 - x1t1 + t2r1 + t4r2"
        " - q*tt4tt2t1 + alpha*l1",
    ),
    _equation(
        "l1s3",
        5,
        "l1s3 = q^2*ga12t1 - q^2*ga2t4 - q^2*ga1t2 - x1tt1 + tt4r2 + tt2r1"
        " - q*t4t2tt1 + alpha*u1",
    ),
    _equation(
        "u2s3",
        5,
        "u2s3 = ga23tt2 - q^2*ga2tt3 - ga3tt1 - q^2*x2t2 + t3r2 + q^2*t1r3"
        " - q*tt1tt3t2 + alpha*l2",
    ),
    _equation(
        "l2s3",
        5,
        "l2s3 = ga23t2 - ga3t1 - q^2*ga2t3 - q^2*x2tt2 + q^2*tt1r3 + tt3r2"
        " - q*t1t3tt2 + alpha*u2",
    ),
    _equation(
        "u3s3",
        5,
        "u3s3 = ga34tt3 - ga3tt4 - q^2*ga4tt2 - q^2*x1t3 + q^2*t4r3 + t2r4"
        " - q*tt2tt4t3 + alpha*l3",
    ),
    _equation(
        "l3s3",
        5,
        "l3s3 = ga34t3 - q^2*ga4t2 - ga3t4 - q^2*x1tt3 + tt2r4 + q^2*tt4r3"
        " - q*t2t4tt3 + alpha*u3",
    ),
    _equation(
        "u4s3",
        5,
        "u4s3 = q^2*ga41tt4 - q^2*ga4tt1 - q^2*ga1tt3 - x2t4 + t1r4 + t3r1"
        " - q*tt1tt3t4 + alpha*l4",
    ),
    _equation(
        "l4s3",
        5,
        "l4s3 = q^2*ga41t4 - q^2*ga1t3 - q^2*ga4t1 - x2tt4 + tt3r1 + tt1r4"
        " - q*t1t3tt4 + alpha*u4",
    ),
    _Identity(
        "alpha_six_term",
        5,
        "the six alpha-weighted difference products sum to zero",
        _pair("q*alpha", "x1{a}{b}", 1, 3)
        + _neg(_pair("q*alpha", "x2{a}{b}", 2, 4))
        + _band("alpha", "{u}{b}", 1, 3)
        + _band("alpha", "{u}{b}", 3, 1)
        + _neg(_band("alpha", "{u}{b}", 2, 4))
        + _neg(_band("alpha", "{u}{b}", 4, 2)),
        (),
    ),
    _Identity(
        "near_torsion",
        5,
        "the alpha-weighted six-term sum with the wide curve inserted,"
        " plus (q^2-qbar^2) times the band commutator, sums to zero",
        _pair("q*alpha", "x1{a}x1{b}", 1, 3)
        + _neg(_pair("q*alpha", "x2x1{a}{b}", 2, 4))
        + _band("alpha", "{u}x1{b}", 1, 3)
        + _band("alpha", "{u}x1{b}", 3, 1)
        + _neg(_band("alpha", "x1{u}{b}", 2, 4))
        + _neg(_band("alpha", "x1{u}{b}", 4, 2))
        + (
            ("q^2-qbar^2", "u3l1"),
            ("qbar^2-q^2", "u3lp1"),
            ("qbar^2-q^2", "l3l1"),
            ("q^2-qbar^2", "l3lp1"),
        ),
        (),
    ),
    _Identity(
        "r2_hole1",
        1,
        "a strand pushed back and forth across a loop resolves to plain nesting",
        (("1", "r2poked"),),
        (("1", "r2nested"),),
    ),
)


_FILLED_SLOTS: Dict[str, str] = {
    "r2poked": (
        "board holes=1\n"
        "curve inner : (11/16,-29/64) (21/16,-29/64) (21/16,29/64) (11/16,29/64)\n"
        "curve band : (23/32,-3/8) (11/8,-3/8) (11/8,3/8) (23/32,3/8)\n"
        "over : band band\n"
    ),
    "r2nested": (
        "board holes=1\n"
        "curve outer : (5/8,-13/32) (23/16,-13/32) (23/16,13/32) (5/8,13/32)\n"
        "curve inner : (23/32,-9/32) (41/32,-9/32) (41/32,9/32) (23/32,9/32)\n"
        "over :\n"
    ),
}


def shipped_diagram(name: str) -> Diagram:
    """One of the pre-filled template diagrams, parsed."""
    try:
        return parse_diagram(_FILLED_SLOTS[name])
    except KeyError:
        raise ValueError(f"no shipped diagram named {name!r}") from None


def _manifest_text() -> str:
    lines = [
        "# Identity fixtures for the skein engine.",
        "# Each 'lhs'/'rhs' line reads: <scalar> : <diagram file>.",
        "# Scalars: integers, q, qbar, alpha, powers like q^2, products like",
        "# q*alpha, sums like q^2-qbar^2, or the renderer form +1*q^{1/2}.",
        "# A diagram file starting with the word 'unfilled' marks every",
        "# fixture that uses it as SKIPPED.",
        "",
    ]
    for ident in _INVENTORY:
        lines.append(f"fixture {ident.name}")
        lines.append(f"# target: {ident.target}")
        lines.append(f"board holes={ident.holes}")
        for token, slot in ident.lhs:
            lines.append(f"lhs {token} : {slot}.diagram")
        for token, slot in ident.rhs:
            lines.append(f"rhs {token} : {slot}.diagram")
        lines.append("")
    return "\n".join(lines)


def _slot_text(slot: str, users: Sequence[str], holes: int) -> str:
    if slot in _FILLED_SLOTS:
        return _FILLED_SLOTS[slot]
    return (
        f"{UNFILLED_MARKER}\n"
        f"# Slot '{slot}', used by: {', '.join(users)}.\n"
        "# Replace this file's whole content with a diagram, e.g.:\n"
        f"#   board holes={holes}\n"
        "#   curve a : (0,-1) (2,-1) (2,1) (0,1)\n"
        "#   over : <over-strand id per crossing, lex (x,y) order>\n"
    )


def emit_fixture_templates(path: "str | Path", force: bool = False) -> List[str]:
    """Write manifest.txt and slot templates into `path`.

    Existing files are left alone unless `force` is set; the returned list
    names the files actually written.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    written: List[str] = []
    manifest = root / "manifest.txt"
    if force or not manifest.exists():
        manifest.write_text(_manifest_text())
        written.append("manifest.txt")
    users: Dict[str, List[str]] = {}
    holes: Dict[str, int] = {}
    for ident in _INVENTORY:
        for _, slot in ident.lhs + ident.rhs:
            names = users.setdefault(slot, [])
            if ident.name not in names:
                names.append(ident.name)
            holes[slot] = ident.holes
    for slot in sorted(users):
        target = root / f"{slot}.diagram"
        if force or not target.exists():
            target.write_text(_slot_text(slot, users[slot], holes[slot]))
            written.append(f"{slot}.diagram")
    return written

"""cli-defaults: fresh `skeinlab` processes at the CLI defaults.

A round runs, each command in its own fresh interpreter, in this order:

    verify all
    ncverify --max-n 32
    chvar scan
    skein multiply A B          (two 5-hole files from the products-5h list)
    fixtures emit --dir D
    skein verify-fixture D
    chvar fricke --trials 25

Module caches matter (`verify_commute_many` for n <= 32 takes 0.34 s
cold and 0.08 s warm), so every command starts cold, as it does for a user.
Each command is one operation, timed by its process's CPU time (user
plus system, all threads) and by its wall time.  Its
output is checked against the work requested, not against a recording:
exit code 0 and `result: PASS`, 32 `n=` lines and
`mutation_detected=PASS` from ncverify, t_samples x b_samples `b=`
records from the scan, one line per manifest fixture with `r2_hole1`
PASS, and for the product the classical values at the identity and at
a diagonal representation, computed here from the two factors.

`chvar fricke --trials 25` runs through `cli_child.py`, which counts
calls of `chvar.fricke_f`.  It prints 25 but evaluates 20 times
(`10 * max(1, trials // 10)`), so it fails every round: a known fault,
counted in `failed`.  The seed only draws the check's representation.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from skeinlab import skein

from common import (
    IDENTITY, Round, agree, children_cpu_s, classical_at_minus_one, classical_value, diagonal_rep,
)
from products import load_specs

CHILD = Path(__file__).with_name("cli_child.py")
FRICKE_TRIALS = 25
NCVERIFY_MAX_N = 32
# CLI defaults that the checks count against.
SCAN_T_SAMPLES, SCAN_B_SAMPLES = 8, 100
VERIFY_T_SAMPLES, VERIFY_B_SAMPLES, VERIFY_MAX_N = 2, 40, 12
COMMAND_TIMEOUT_S = 120


@dataclass
class Inputs:
    work: Path
    env: Dict[str, str]
    factors: Tuple[skein.Multicurve, skein.Multicurve]
    rho: List
    rounds: int = 0


def _multiply_factors() -> Tuple[skein.Multicurve, skein.Multicurve]:
    """The first single-group 16-crossing basis pair of products-5h."""
    for spec in load_specs()["products"]:
        if spec["groups"] == [[16]]:
            (_, ma), = spec["a"]
            (_, mb), = spec["b"]
            return tuple(map(tuple, ma)), tuple(map(tuple, mb))
    raise ValueError("products_5h.json has no single-group 16-crossing pair")


def build(root: Path, seed: int) -> Inputs:
    scratch = root / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))
    board = skein.Board(5)
    factors = _multiply_factors()
    for name, m in zip(("a.diagram", "b.diagram"), factors):
        (work / name).write_text(skein.render_diagram(skein.canonical_diagram(m, board)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    rho = diagonal_rep(random.Random(f"{seed}:cli-abelian"), board.n_holes)
    return Inputs(work, env, factors, rho)


def close(inp: Inputs) -> None:
    shutil.rmtree(inp.work, ignore_errors=True)
    try:
        inp.work.parent.rmdir()
    except OSError:  # another run still uses it
        pass


# -- output checks ----------------------------------------------------------


def _ok_result(out: str) -> bool:
    lines = out.splitlines()
    return bool(lines) and lines[-1] == "result: PASS" and not any(": FAIL" in l for l in lines)


def _check_verify_all(out: str, inp: Inputs) -> str:
    lines = out.splitlines()
    want = [
        f"chvar.x1_scan: PASS ({VERIFY_T_SAMPLES} scans x {VERIFY_B_SAMPLES} samples",
        f"ncrewrite.commute_many: PASS (n <= {VERIFY_MAX_N}, both routes)",
        "ncrewrite.mutation_detected: PASS",
    ]
    items = [l for l in lines[1:-1] if re.match(r"^\w+\.[\w ]+: (PASS|SKIPPED)", l)]
    if not _ok_result(out) or len(items) != len(lines) - 2 or len(items) != 14:
        return "verify all: not 14 passing items and result: PASS"
    missing = [w for w in want if not any(l.startswith(w) for l in items)]
    return f"verify all: missing {missing}" if missing else ""


def _check_ncverify(out: str, inp: Inputs) -> str:
    rows = [l for l in out.splitlines() if l.startswith("n=")]
    want = [f"n={n} commute_many=PASS e_n=PASS" for n in range(1, NCVERIFY_MAX_N + 1)]
    if rows != want or "mutation_detected=PASS" not in out.splitlines() or not _ok_result(out):
        return f"ncverify: {len(rows)} n= lines, expected {NCVERIFY_MAX_N} passing"
    return ""


def _check_scan(out: str, inp: Inputs) -> str:
    lines = out.splitlines()
    records = sum(1 for l in lines if l.startswith("b="))
    scans = sum(1 for l in lines if l.startswith("# t="))
    if not _ok_result(out) or scans != SCAN_T_SAMPLES or records != SCAN_T_SAMPLES * SCAN_B_SAMPLES:
        return f"chvar scan: {scans} scans and {records} records"
    return ""


_TERM = re.compile(r"([+-])(\d+)(?:\*q\^\{(-?\d+)(/2)?\})?")


def _parse_element(out: str) -> List[Tuple[int, skein.Multicurve]]:
    """(coefficient at h = -1, multicurve) per printed line."""
    terms = []
    for line in out.splitlines():
        coeff, _, curve = line.rpartition(" * ")
        coeff = coeff.strip("()")
        pairs = []
        pos = 0
        for m in _TERM.finditer(coeff):
            if m.start() != pos:
                raise ValueError(f"bad coefficient {coeff!r}")
            pos = m.end()
            sign, mag, exp, half = m.groups()
            e = 0 if exp is None else int(exp) * (1 if half else 2)
            pairs.append((e, int(mag) * (1 if sign == "+" else -1)))
        if pos != len(coeff) or not (curve.startswith("{") and curve.endswith("}")):
            raise ValueError(f"bad line {line!r}")
        body = curve[1:-1]
        comps = tuple(tuple(int(i) for i in c.split(",")) for c in body.split("|")) if body else ()
        terms.append((classical_at_minus_one(pairs), comps))
    return terms


def _check_multiply(out: str, inp: Inputs) -> str:
    try:
        terms = _parse_element(out)
    except ValueError as exc:
        return f"skein multiply: {exc}"
    a, b = inp.factors
    checks = [
        (classical_value(terms, [IDENTITY] * len(inp.rho)), (-2) ** (len(a) + len(b))),
        (
            classical_value(terms, inp.rho),
            classical_value([(1, a)], inp.rho) * classical_value([(1, b)], inp.rho),
        ),
    ]
    if not terms or not all(agree(x, y) for x, y in checks):
        return "skein multiply: classical values disagree with the factors'"
    return ""


def _check_emit(out: str, inp: Inputs) -> str:
    m = re.fullmatch(r"wrote (\d+) files to (\S+)\n?", out)
    if not m or int(m.group(1)) < 1 or int(m.group(1)) != len(list(Path(inp.work, m.group(2)).iterdir())):
        return f"fixtures emit: {out.strip()!r}"
    return ""


def _check_fixtures(out: str, inp: Inputs) -> str:
    manifest = (inp.work / _fixture_dir(inp) / "manifest.txt").read_text()
    declared = sum(1 for l in manifest.splitlines() if l.startswith("fixture "))
    rows = [l for l in out.splitlines() if l.startswith("fixture ")]
    if not _ok_result(out) or len(rows) != declared or "fixture r2_hole1: PASS" not in rows:
        return f"verify-fixture: {len(rows)} of {declared} fixtures, r2_hole1 must PASS"
    return ""


def _check_fricke(out: str, inp: Inputs) -> str:
    lines = out.splitlines()
    m = re.fullmatch(r"trials=(\d+) max_abs_f=(\S+)", lines[0]) if lines else None
    if not m or int(m.group(1)) != FRICKE_TRIALS or not float(m.group(2)) < 1e-8 or not _ok_result(out):
        return f"chvar fricke: {out.strip()!r}"
    return ""


def _fixture_dir(inp: Inputs) -> str:
    return f"fx{inp.rounds}"


# (name, arguments, output check); fricke goes through the counting child.
COMMANDS: Sequence[Tuple[str, Callable[[Inputs], List[str]], Callable[[str, Inputs], str]]] = (
    ("verify_all", lambda inp: ["verify", "all"], _check_verify_all),
    ("ncverify", lambda inp: ["ncverify", "--max-n", str(NCVERIFY_MAX_N)], _check_ncverify),
    ("chvar_scan", lambda inp: ["chvar", "scan"], _check_scan),
    ("skein_multiply", lambda inp: ["skein", "multiply", "a.diagram", "b.diagram"], _check_multiply),
    ("fixtures_emit", lambda inp: ["fixtures", "emit", "--dir", _fixture_dir(inp)], _check_emit),
    ("verify_fixture", lambda inp: ["skein", "verify-fixture", _fixture_dir(inp)], _check_fixtures),
    ("chvar_fricke", lambda inp: ["chvar", "fricke", "--trials", str(FRICKE_TRIALS)], _check_fricke),
)


def _run(inp: Inputs, rnd: Round, name: str, args: List[str], trace: bool) -> Tuple[int, str, dict]:
    report = inp.work / "child-report.json"
    report.unlink(missing_ok=True)
    if trace or name == "chvar_fricke":
        argv = [sys.executable, str(CHILD), str(report), "--trace" if trace else "--count", "--", *args]
    else:
        argv = [sys.executable, "-m", "skeinlab.cli", *args]
    # The benchmark runs one child at a time, so the children's CPU time
    # gained across the call is this command's.
    with rnd.timed(children_cpu_s):
        proc = subprocess.run(
            argv, cwd=inp.work, env=inp.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=COMMAND_TIMEOUT_S,
        )
    child = json.loads(report.read_text()) if report.exists() else {}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, proc.stdout, child


def run_round(inp: Inputs, tracer=None) -> Round:
    rnd = Round()
    inp.rounds += 1
    for name, args, check in COMMANDS:
        code, out, child = _run(inp, rnd, name, args(inp), tracer is not None)
        problem = f"{name}: exit code {code}" if code != 0 else check(out, inp)
        if problem or name != "chvar_fricke":
            rnd.record(not problem, problem)
        else:
            evals = child.get("fricke_evals")
            rnd.record(evals == FRICKE_TRIALS, known_fault=True)
        if tracer is not None:
            for key, value in child.get("layers", {}).items():
                if key.endswith("_s"):
                    tracer.self_s[key[:-2]] += value
                else:
                    tracer.counts[key] += value
    return rnd


def check_once(inp: Inputs, first: Round) -> List[str]:
    return []


def named_metrics(op_medians: List[float]) -> Dict[str, Tuple[float, str]]:
    return {f"{name}_s": (t, "s") for (name, _, _), t in zip(COMMANDS, op_medians)}

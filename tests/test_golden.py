"""Golden-output tests: exact CLI commands against their recorded stdout.

Each case runs `skeinlab` in process and compares its output byte for
byte with a file under `tests/golden/`.  Every case runs in a directory
whose `fixtures/` holds the emitted templates, so `verify all` checks
them.  The float digits of `verify all` and `chvar` come from pure Python
arithmetic and the platform's libm (`cmath.sqrt`, `cmath.exp`,
`math.cos`); they were recorded on Linux x86-64 with glibc 2.36 and
CPython 3.11.7, and another libm may round differently.  The 3-hole
diagrams are committed next to the outputs: `a3` encloses holes 1 and 3,
`b3` holes 1 and 2, `ab3` is `a3` stacked on `b3` (4 crossings), and
`kink3` is `a3` with one positive curl, so its value shows the smoothing
orientation: -q^{3/2} times `a3`.  The 5-hole pair `a5` = {1|2,3,4,5|3,4}
and `b5` = {1,2,3,5|2,3,5|4} is a paper-scale product: its stacking
diagram is one group of 16 crossings.

After a deliberate output change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import sys
from pathlib import Path

import pytest

from skeinlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = "{fixtures}"  # placeholder for the directory `fixtures emit` fills

# (golden file, argv); every command exits 0.
CASES = [
    ("cheby_verify_12.txt", ["cheby", "verify", "--max-n", "12"]),
    ("ncverify_12_a.txt", ["ncverify", "--max-n", "12", "--route", "a"]),
    ("ncverify_12_b.txt", ["ncverify", "--max-n", "12", "--route", "b"]),
    ("ncverify_12_both.txt", ["ncverify", "--max-n", "12", "--route", "both"]),
    ("ncverify_32_both.txt", ["ncverify", "--max-n", "32"]),
    ("resolve_ab3.txt", ["skein", "resolve", str(GOLDEN / "ab3.diagram")]),
    ("multiply_a3_b3.txt", ["skein", "multiply", str(GOLDEN / "a3.diagram"), str(GOLDEN / "b3.diagram")]),
    ("resolve_kink3.txt", ["skein", "resolve", str(GOLDEN / "kink3.diagram")]),
    ("multiply_kink3_b3.txt", ["skein", "multiply", str(GOLDEN / "kink3.diagram"), str(GOLDEN / "b3.diagram")]),
    ("multiply_b3_a3.txt", ["skein", "multiply", str(GOLDEN / "b3.diagram"), str(GOLDEN / "a3.diagram")]),
    ("multiply_a5_b5.txt", ["skein", "multiply", str(GOLDEN / "a5.diagram"), str(GOLDEN / "b5.diagram")]),
    ("resolve_r2poked.txt", ["skein", "resolve", f"{FIXTURES}/r2poked.diagram"]),
    ("multiply_r2poked.txt", ["skein", "multiply", f"{FIXTURES}/r2poked.diagram", f"{FIXTURES}/r2poked.diagram"]),
    ("verify_fixture.txt", ["skein", "verify-fixture", FIXTURES]),
    ("verify_all.txt", ["verify", "all"]),
    ("chvar_scan_t2_b32.txt", ["chvar", "scan", "--t-samples", "2", "--b-samples", "32"]),
    ("chvar_scan_mixed.txt", ["chvar", "scan", "--tangles", "1/3,1/5,3/7,0.4+0.3j", "--seed", "2"]),
]


def _emit(target: Path) -> str:
    """Emit the fixture templates into `target`; return their manifest."""
    assert main(["fixtures", "emit", "--dir", str(target)]) == 0
    return (target / "manifest.txt").read_text(encoding="utf-8")


def _run(argv, fixtures: Path, capsys) -> str:
    capsys.readouterr()
    assert main([a.replace(FIXTURES, str(fixtures)) for a in argv]) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def fixtures_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("golden") / "fixtures"
    _emit(target)
    return target


def test_fixtures_emit_manifest(tmp_path, capsys):
    manifest = _emit(tmp_path / "fx")
    capsys.readouterr()
    assert manifest == (GOLDEN / "fixtures_manifest.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(name, argv, fixtures_dir, capsys, monkeypatch):
    monkeypatch.chdir(fixtures_dir.parent)
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert _run(argv, fixtures_dir, capsys) == expected


def _rewrite() -> None:
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        fixtures = Path(tmp) / "fixtures"
        with contextlib.redirect_stdout(io.StringIO()):
            manifest = _emit(fixtures)
        os.chdir(tmp)
        (GOLDEN / "fixtures_manifest.txt").write_text(manifest, encoding="utf-8")
        for name, argv in CASES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([a.replace(FIXTURES, str(fixtures)) for a in argv])
            if code != 0:
                sys.exit(f"{name}: exit {code}")
            (GOLDEN / name).write_text(out.getvalue(), encoding="utf-8")
        os.chdir(GOLDEN)


if __name__ == "__main__":
    _rewrite()

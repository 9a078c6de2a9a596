"""Tests for fixture manifests, templates, and directory verification."""

import re

import pytest

from skeinlab.fixtures import (
    ManifestError,
    emit_fixture_templates,
    parse_manifest,
    parse_scalar,
    verify_fixture_dir,
)
from skeinlab.ring import Laurent
from skeinlab.skein import Board, SkeinElement, parse_diagram, resolve


def test_parse_scalar_friendly_tokens():
    assert parse_scalar("1") == Laurent.one()
    assert parse_scalar("-1") == Laurent.integer(-1)
    assert parse_scalar("q") == Laurent.q_power(1)
    assert parse_scalar("qbar") == Laurent.q_power(-1)
    assert parse_scalar("q^2") == Laurent.q_power(2)
    assert parse_scalar("qbar^2") == Laurent.q_power(-2)
    assert parse_scalar("alpha") == Laurent({2: 1, -2: 1})
    assert parse_scalar("-q*alpha") == Laurent({4: -1, 0: -1})
    assert parse_scalar("q-qbar") == Laurent({2: 1, -2: -1})
    assert parse_scalar("q^2-qbar^2") == Laurent({4: 1, -4: -1})
    assert parse_scalar("h^3") == Laurent.h_power(3)
    assert parse_scalar("2*q^-1") == Laurent({-2: 2})


def test_parse_scalar_renderer_form_and_errors():
    assert parse_scalar("+1*q^{1/2}") == Laurent.h_power(1)
    assert parse_scalar("+2*q^{-1}+1") == Laurent({-2: 2, 0: 1})
    assert parse_scalar("alpha*q^{-1/2}") == Laurent({1: 1, -3: 1})
    for bad in ("", "q**q", "spam", "alpha^-1", "q^", "q^{}", "q^{1/2"):
        with pytest.raises(ValueError, match="cannot parse scalar"):
            parse_scalar(bad)
    with pytest.raises(ValueError, match="alpha power 65 exceeds the limit 64"):
        parse_scalar("alpha^64*alpha")


def test_parse_manifest_roundtrip():
    text = """
# comment
fixture demo
board holes=2
lhs 1 : a.diagram
lhs -q : b.diagram
rhs alpha : c.diagram

fixture zero_side
board holes=0
lhs 1 : d.diagram
"""
    specs = parse_manifest(text)
    assert [s.name for s in specs] == ["demo", "zero_side"]
    assert specs[0].n_holes == 2
    assert specs[0].lhs[1] == (Laurent({2: -1}), "b.diagram")
    assert specs[0].rhs == ((Laurent({2: 1, -2: 1}), "c.diagram"),)
    assert specs[1].rhs == ()


@pytest.mark.parametrize(
    "text, match",
    [
        ("lhs 1 : a.diagram", "line 1: expected 'fixture"),
        ("fixture a\nlhs 1 : x.diagram", "line 1: fixture 'a' has no 'board"),
        ("fixture a\nboard holes=1", "has no lhs"),
        ("fixture a\nboard holes=1\nboard holes=2\nlhs 1 : x.diagram", "line 3: duplicate board"),
        ("fixture a\nboard holes=one\nlhs 1 : x.diagram", "line 2: bad hole count"),
        ("fixture a\nboard holes=1\nlhs spam : x.diagram", "line 3: cannot parse scalar"),
        ("fixture a\nboard holes=1\nlhs 1 x.diagram", "line 3: 'lhs' line needs ':'"),
        ("fixture a\nboard holes=1\nlhs 1 : sub/x.diagram", "line 3: bad file name"),
        ("fixture a\nboard holes=1\nlhs 1 : x.diagram\nfixture a", "line 4: duplicate fixture"),
        ("fixture a\nboard holes=1\nwibble", "line 3: unrecognized line"),
        ("# nothing here", "no fixtures declared"),
    ],
)
def test_parse_manifest_errors_carry_line_numbers(text, match):
    with pytest.raises(ManifestError, match=match):
        parse_manifest(text)


def test_emit_templates_then_verify(tmp_path):
    written = emit_fixture_templates(tmp_path)
    assert "manifest.txt" in written
    assert len(written) > 20
    results = verify_fixture_dir(tmp_path)
    by_name = {r.name: r for r in results}
    assert by_name["r2_hole1"].status == "PASS"
    others = [r for r in results if r.name != "r2_hole1"]
    assert others and all(r.status == "SKIPPED" for r in others)
    assert "not transcribed" in others[0].detail


def test_shipped_sides_name_their_target_curves(tmp_path):
    # Each side of a target equation names exactly the slots of that side's
    # manifest lines; for factored targets this is the only link between them.
    emit_fixture_templates(tmp_path)
    text = (tmp_path / "manifest.txt").read_text()
    targets = re.findall(r"^# target: (.*)$", text, re.MULTILINE)
    specs = parse_manifest(text)
    assert len(targets) == len(specs)
    checked = 0
    for target, spec in zip(targets, specs):
        if " = " not in target:
            continue
        for side_text, side in zip(target.split(" = "), (spec.lhs, spec.rhs)):
            named = [w for w in re.findall(r"[a-z]\w*", side_text) if w not in ("q", "qbar", "alpha", "h")]
            assert sorted(named) == sorted(f.removesuffix(".diagram") for _, f in side), spec.name
        checked += 1
    assert checked == 15


def test_emit_is_idempotent_without_force(tmp_path):
    emit_fixture_templates(tmp_path)
    marker = tmp_path / "x1t1.diagram"
    marker.write_text("custom content\n")
    assert emit_fixture_templates(tmp_path) == []
    assert marker.read_text() == "custom content\n"
    rewritten = emit_fixture_templates(tmp_path, force=True)
    assert "x1t1.diagram" in rewritten
    assert marker.read_text().startswith("unfilled")


def test_shipped_r2_fixture_is_engine_checked(tmp_path):
    emit_fixture_templates(tmp_path)
    d = parse_diagram((tmp_path / "r2poked.diagram").read_text())
    assert len(d.crossings) == 2
    expected = SkeinElement.basis(Board(1), [(1,), (1,)])
    assert resolve(d) == expected
    nested = parse_diagram((tmp_path / "r2nested.diagram").read_text())
    assert not nested.crossings
    assert resolve(nested) == expected


def test_corrupt_file_fails_only_its_fixture(tmp_path):
    emit_fixture_templates(tmp_path)
    (tmp_path / "r2poked.diagram").write_text("board holes=1\ncurve a 1 2 3\n")
    results = {r.name: r for r in verify_fixture_dir(tmp_path)}
    assert results["r2_hole1"].status == "FAIL"
    assert "r2poked.diagram" in results["r2_hole1"].detail
    assert results["x1t1"].status == "SKIPPED"


def test_missing_file_and_board_mismatch_fail(tmp_path):
    emit_fixture_templates(tmp_path)
    (tmp_path / "r2poked.diagram").unlink()
    results = {r.name: r for r in verify_fixture_dir(tmp_path)}
    assert results["r2_hole1"].status == "FAIL"
    assert "missing file" in results["r2_hole1"].detail

    (tmp_path / "r2poked.diagram").write_text(
        "board holes=2\ncurve a : (7/2,-1) (9/2,-1) (9/2,1) (7/2,1)\nover :\n"
    )
    results = {r.name: r for r in verify_fixture_dir(tmp_path)}
    assert results["r2_hole1"].status == "FAIL"
    assert "manifest says 1" in results["r2_hole1"].detail


def test_false_identity_reports_discrepancy(tmp_path):
    (tmp_path / "manifest.txt").write_text(
        "fixture wrong\nboard holes=1\nlhs 1 : a.diagram\nrhs q : a.diagram\n"
    )
    (tmp_path / "a.diagram").write_text(
        "board holes=1\ncurve a : (1/2,-1/2) (3/2,-1/2) (3/2,1/2) (1/2,1/2)\nover :\n"
    )
    (result,) = verify_fixture_dir(tmp_path)
    assert result.status == "FAIL"
    assert "{1}" in result.detail


def test_zero_rhs_checks_cancellation(tmp_path):
    (tmp_path / "manifest.txt").write_text(
        "fixture cancels\nboard holes=1\nlhs 1 : a.diagram\nlhs -1 : a.diagram\n"
    )
    (tmp_path / "a.diagram").write_text(
        "board holes=1\ncurve a : (1/2,-1/2) (3/2,-1/2) (3/2,1/2) (1/2,1/2)\nover :\n"
    )
    (result,) = verify_fixture_dir(tmp_path)
    assert result.status == "PASS"


def test_unfilled_marker_respects_comments(tmp_path):
    (tmp_path / "manifest.txt").write_text(
        "fixture demo\nboard holes=1\nlhs 1 : a.diagram\n"
    )
    (tmp_path / "a.diagram").write_text("# still a template\n\nunfilled\n")
    (result,) = verify_fixture_dir(tmp_path)
    assert result.status == "SKIPPED"


def test_missing_manifest_raises(tmp_path):
    with pytest.raises(ManifestError, match="manifest.txt"):
        verify_fixture_dir(tmp_path / "nowhere")

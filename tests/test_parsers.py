"""Property tests for the two text parsers.

On any input, `parse_diagram` returns a `Diagram` or raises `DiagramError`,
and `parse_manifest` returns fixture specs or raises `ManifestError`.  The
inputs are every single-character edit of a short valid file, arbitrary
text, and several random edits of longer valid files: rendered diagrams,
with and without crossings, and the emitted manifest.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from skeinlab.fixtures import FixtureSpec, ManifestError, _manifest_text, parse_manifest
from skeinlab.skein import (
    Board,
    Diagram,
    DiagramError,
    _read_rational,
    canonical_diagram,
    parse_diagram,
    render_diagram,
    stacking_diagram,
)

# One hole, fractions and two crossings, short enough to edit exhaustively.
_SMALL_DIAGRAM = (
    "board holes=1\n"
    "curve a : (1/2,-1/2) (3/2,-1/2) (3/2,1/2) (1/2,1/2)\n"
    "curve b : (4/3,-1) (2,-1) (2,1) (4/3,1)\n"
    "over : a b\n"
)
_BOARD = Board(3)
_DIAGRAMS = (
    _SMALL_DIAGRAM,
    render_diagram(canonical_diagram([(1, 2), (3,)], _BOARD)),
    render_diagram(stacking_diagram(((1, 2),), ((2, 3),), _BOARD)),
)
_MANIFEST = _manifest_text()
# Each fixture block is a manifest of its own.
_MANIFESTS = (_MANIFEST, *re.split(r"\n(?=fixture )", _MANIFEST)[1:])
_SMALL_MANIFEST = "".join(
    line for line in min(_MANIFESTS, key=len).splitlines(True) if not line.startswith("#")
)

# Characters that the two grammars give a meaning to, and a few they do not.
_EDIT_CHARS = "0123456789/-+.,:()=#eE \nxq^*½"


def _single_edits(text):
    """Every text one deletion, insertion or replacement away from `text`."""
    for i in range(len(text) + 1):
        if i < len(text):
            yield text[:i] + text[i + 1:]
        for c in _EDIT_CHARS:
            yield text[:i] + c + text[i:]
            if i < len(text):
                yield text[:i] + c + text[i + 1:]


@st.composite
def _edited(draw, texts):
    """One of `texts` after up to 4 random single-character edits."""
    text = draw(st.sampled_from(texts))
    chars = st.sampled_from(_EDIT_CHARS) | st.characters()
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("delete", "insert", "replace")))
        if op == "insert":
            text = text[:pos] + draw(chars) + text[pos:]
        else:
            text = text[:pos] + ("" if op == "delete" else draw(chars)) + text[pos + 1:]
    return text


def _check_diagram(text: str) -> None:
    try:
        result = parse_diagram(text)
    except DiagramError:
        return
    assert isinstance(result, Diagram)


def _check_manifest(text: str) -> None:
    try:
        specs = parse_manifest(text)
    except ManifestError:
        return
    assert specs and all(isinstance(spec, FixtureSpec) for spec in specs)


def test_mutation_sources_parse():
    for text in _DIAGRAMS:
        assert render_diagram(parse_diagram(text)) == text
    assert len(parse_diagram(_SMALL_DIAGRAM).crossings) == 2
    for text in _MANIFESTS + (_SMALL_MANIFEST,):
        assert parse_manifest(text)


def test_parse_diagram_every_single_edit():
    for text in _single_edits(_SMALL_DIAGRAM):
        _check_diagram(text)


def test_parse_manifest_every_single_edit():
    for text in _single_edits(_SMALL_MANIFEST):
        _check_manifest(text)


_ARBITRARY = st.text(max_size=200) | st.text(alphabet=_EDIT_CHARS + "abcdefghilnorsuv", max_size=200)


@settings(max_examples=100, deadline=None)
@given(text=_ARBITRARY)
def test_parse_diagram_arbitrary_text(text):
    _check_diagram(text)


@settings(max_examples=100, deadline=None)
@given(text=_edited(_DIAGRAMS))
def test_parse_diagram_random_edits(text):
    _check_diagram(text)


@settings(max_examples=100, deadline=None)
@given(text=_ARBITRARY)
def test_parse_manifest_arbitrary_text(text):
    _check_manifest(text)


@settings(max_examples=100, deadline=None)
@given(text=_edited(_MANIFESTS))
def test_parse_manifest_random_edits(text):
    _check_manifest(text)


# Coordinates: the reader's grammar is Python 3.11's `Fraction(text)` on
# ASCII text without an exponent or an underscore.  Python 3.12's Fraction
# also accepts whitespace beside '/', so the parity texts leave it out.
_COORD_PIECES = ("", "-", "+", "0", "00", "1", "7", "12", "0004", ".", "/", " ", "\t")


def _reader_value(text):
    try:
        return Fraction(*_read_rational(text))
    except (ValueError, ZeroDivisionError):
        return None


def _fraction_value(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


@settings(max_examples=300, deadline=None)
@given(
    text=st.lists(st.sampled_from(_COORD_PIECES), max_size=6).map("".join)
    | st.text(alphabet="0123456789+-./ \t\x1fxd", max_size=8)
)
@example("00012/0004")
@example(".5")
@example("-.5")
@example("1.")
@example(" +3 ")
def test_coordinate_reader_matches_fraction(text):
    if re.search(r"\s/|/\s", text):
        return
    assert _reader_value(text) == _fraction_value(text), repr(text)


def test_coordinate_reader_keeps_the_written_denominator():
    assert _read_rational("00012/0004") == (12, 4)
    assert _read_rational("-.5") == (-5, 10)


@pytest.mark.parametrize(
    "x", ["1_0", "\u0661\u0662", "1e3", "1E3", "1 /2", "1/ 2", "- 1", "1/-2", ".", "1.5/2"]
)
def test_parse_diagram_rejects_coordinates_outside_the_grammar(x):
    text = "board holes=1\ncurve a : (" + x + ",3) (2,3) (2,4)\nover :\n"
    with pytest.raises(DiagramError, match=re.escape(f"line 2: bad rational in '({x},3)'")):
        parse_diagram(text)


_UNIT_SQUARE = "(0,-1) (2,-1) (2,1) (0,1)"


def test_parse_diagram_reads_keywords_as_whole_tokens():
    # A prefix match would read `curves a` as a curve with id `s a`.
    text = f"board holes=1\ncurves a : {_UNIT_SQUARE}\nover :\n"
    with pytest.raises(DiagramError, match=re.escape("line 2: unrecognized line 'curves a")):
        parse_diagram(text)


def test_curve_ids_with_whitespace_are_rejected():
    # No over token can name such an id, so a crossing on it could not be
    # written back and read again.
    text = f"board holes=1\ncurve a b : {_UNIT_SQUARE}\nover :\n"
    with pytest.raises(DiagramError, match=re.escape("line 2: curve id 'a b' contains whitespace")):
        parse_diagram(text)
    square = [(Fraction(x), Fraction(y)) for x, y in ((0, -1), (2, -1), (2, 1), (0, 1))]
    with pytest.raises(DiagramError, match="contains whitespace"):
        Diagram.from_over_rule(Board(1), [square], ["a\tb"], lambda *_: 0)

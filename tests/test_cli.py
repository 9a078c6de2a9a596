"""End-to-end tests for the command-line interface."""

import os
import re
import subprocess
import sys
import time

import pytest

from skeinlab import chvar, cli
from skeinlab.cli import ConfigError, main, parse_config
from skeinlab.skein import Board, canonical_diagram, render_diagram


def test_parse_config_defaults_and_overrides():
    defaults = parse_config("")
    assert defaults["max_n"] == 12
    assert defaults["b_samples"] == 40
    assert defaults["fixture_dir"] == "fixtures"
    values = parse_config(
        "# comment\n\nmax_n = 5\nseed=9\nfixture_dir = other\n"
    )
    assert values["max_n"] == 5
    assert values["seed"] == 9
    assert values["fixture_dir"] == "other"


@pytest.mark.parametrize(
    "text,needle",
    [
        ("wat", "line 1"),
        ("bogus = 3", "unknown key"),
        ("max_n = x", "integer"),
        ("seed = 1\nalso bad", "line 2"),
        ("b_samples = 10", "at least 32"),
        ("b_samples = 100001", "at most 100000"),
        ("t_samples = 25001", "t_samples x b_samples must be at most 1000000"),
        ("max_n = 0", "at least 1"),
        ("max_n = 97", "max_n must be at most 96"),
        ("state_cap = 24", "unknown key 'state_cap'"),
    ],
)
def test_parse_config_errors(text, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(text)


def test_cheby_cli(capsys):
    assert main(["cheby", "verify", "--max-n", "6"]) == 0
    out = capsys.readouterr().out
    assert "qdiff_closed_form n<=6: PASS" in out
    assert "cosine_from_sines n<=6: PASS" in out
    assert "sine_cosine_product n<=6: PASS" in out
    assert out.strip().endswith("result: PASS")


def test_ncverify_cli(capsys):
    assert main(["ncverify", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    for n in (1, 2, 3):
        assert f"n={n} commute_many=PASS e_n=PASS" in out
    assert "mutation_detected=PASS" in out
    assert out.strip().endswith("result: PASS")


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_ncverify_rejects_empty_degree_range(max_n, capsys):
    assert main(["ncverify", "--max-n", max_n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-n must be at least 1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["cheby", "verify", "--max-n", "97"], ["ncverify", "--max-n", "97"]],
    ids=["cheby", "ncverify"],
)
def test_degree_above_the_maximum_fails_before_output(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-n must be at most 96" in captured.err


def test_cheby_rejects_negative_degree(capsys):
    assert main(["cheby", "verify", "--max-n", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-n must be at least 0" in captured.err


def test_skein_resolve_and_multiply(tmp_path, capsys):
    board = Board(1)
    text = render_diagram(canonical_diagram(((1,),), board))
    path = tmp_path / "one.diagram"
    path.write_text(text, encoding="utf-8")
    assert main(["skein", "resolve", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "+1 * {1}"
    assert main(["skein", "multiply", str(path), str(path)]) == 0
    assert capsys.readouterr().out.strip() == "+1 * {1|1}"


def test_skein_multiply_rejects_different_boards(tmp_path, capsys):
    paths = []
    for n_holes in (1, 2):
        path = tmp_path / f"loop{n_holes}.diagram"
        path.write_text(render_diagram(canonical_diagram(((1,),), Board(n_holes))), encoding="utf-8")
        paths.append(str(path))
    assert main(["skein", "multiply", *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "ValueError: elements live on different boards"


def test_skein_multiply_refuses_a_group_over_the_state_cap(tmp_path, capsys):
    # The stacked product is one group of 40 crossings, refused before any
    # of its states is visited.
    paths = []
    for name, m in (("a", ((1, 3),) * 4), ("b", ((1, 2),) * 4)):
        path = tmp_path / f"{name}.diagram"
        path.write_text(render_diagram(canonical_diagram(m, Board(3))), encoding="utf-8")
        paths.append(str(path))
    start = time.perf_counter()
    assert main(["skein", "multiply", *paths]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (
        "ValueError: crossing component has 40 crossings, exceeding the state cap 24"
    )


def test_skein_resolve_input_errors(tmp_path, capsys):
    assert main(["skein", "resolve", str(tmp_path / "missing.diagram")]) == 2
    assert "not found" in capsys.readouterr().err
    bad = tmp_path / "bad.diagram"
    bad.write_text("board holes=1\ncurve junk\n", encoding="utf-8")
    assert main(["skein", "resolve", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


_SQUARE = "curve a : ({x},-1/2) (3/2,-1/2) (3/2,1/2) (1/2,1/2)\n"


@pytest.mark.parametrize("x", ["5e-1", "1E-1", "1e-999999999"])
def test_skein_resolve_rejects_exponent_coordinates(x, tmp_path, capsys):
    path = tmp_path / "e.diagram"
    path.write_text("board holes=1\n" + _SQUARE.format(x=x), encoding="utf-8")
    start = time.perf_counter()
    assert main(["skein", "resolve", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "line 2: bad rational" in err


@pytest.mark.parametrize("x", ["1_0", "\u0661\u0662"])
def test_skein_resolve_rejects_coordinates_outside_the_grammar(x, tmp_path, capsys):
    # Python 3.11's Fraction reads both (as 10 and 12); the grammar does not
    path = tmp_path / "u.diagram"
    path.write_text(f"board holes=1\ncurve a : ({x},3) (2,3) (2,4)\nover :\n", encoding="utf-8")
    assert main(["skein", "resolve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "line 2: bad rational" in err


def test_skein_resolve_bounds_hole_count(tmp_path, capsys):
    path = tmp_path / "h.diagram"
    path.write_text("board holes=65\n" + _SQUARE.format(x="1/2"), encoding="utf-8")
    assert main(["skein", "resolve", str(path)]) == 2
    assert "line 1: bad hole count" in capsys.readouterr().err
    path.write_text("board holes=64\n" + _SQUARE.format(x="1/2"), encoding="utf-8")
    assert main(["skein", "resolve", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "+1 * {1}"


def test_fixture_emit_and_verify_cli(tmp_path, capsys):
    target = tmp_path / "fx"
    assert main(["fixtures", "emit", "--dir", str(target)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and str(target) in out
    assert main(["skein", "verify-fixture", str(target)]) == 0
    out = capsys.readouterr().out
    assert "fixture r2_hole1: PASS" in out
    assert "SKIPPED" in out
    assert out.strip().endswith("result: PASS")
    # re-emission without --force writes nothing new
    assert main(["fixtures", "emit", "--dir", str(target)]) == 0
    assert "wrote 0 files" in capsys.readouterr().out


def test_verify_fixture_rejects_huge_alpha_power(tmp_path, capsys):
    target = tmp_path / "fx"
    assert main(["fixtures", "emit", "--dir", str(target)]) == 0
    capsys.readouterr()
    (target / "manifest.txt").write_text(
        "fixture huge\nboard holes=1\nlhs alpha^1000000 : r2poked.diagram\n",
        encoding="utf-8",
    )
    start = time.perf_counter()
    assert main(["skein", "verify-fixture", str(target)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "line 3" in err and "alpha power 1000000" in err


def test_chvar_fricke_cli(capsys):
    assert main(["chvar", "fricke", "--trials", "50", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "max_abs_f=" in out
    assert out.strip().endswith("result: PASS")


@pytest.mark.parametrize("trials", [25, 7])
def test_chvar_fricke_runs_requested_trials(trials, capsys, monkeypatch):
    calls = []
    original = chvar.fricke_f

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(chvar, "fricke_f", counted)
    assert main(["chvar", "fricke", "--trials", str(trials)]) == 0
    assert capsys.readouterr().out.startswith(f"trials={trials} ")
    assert len(calls) == trials


def test_chvar_fricke_fails_on_nan_residual(tmp_path, capsys, monkeypatch):
    # max(0.0, nan) is 0.0: a NaN residual must not read as a pass
    monkeypatch.setattr(chvar, "fricke_f", lambda *args: complex("nan"))
    assert main(["chvar", "fricke", "--trials", "10"]) == 1
    out = capsys.readouterr().out
    assert "max_abs_f=nan" in out
    assert out.strip().endswith("result: FAIL")
    config = _write_config(tmp_path, tmp_path / "nowhere")
    assert main(["verify", "all", "--config", str(config)]) == 1
    out = capsys.readouterr().out
    assert "chvar.fricke_random: FAIL (max |f| = nan)" in out
    assert out.strip().endswith("result: FAIL")


def test_chvar_fricke_bound_grows_with_the_traces(capsys):
    # rounding alone takes |f| past 1e-8 here: the bound scales with M^3
    assert main(["chvar", "fricke", "--trials", "20000", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert float(re.search(r"max_abs_f=(\S+)", out).group(1)) > 1e-8
    assert out.strip().endswith("result: PASS")


def test_chvar_fricke_fails_on_a_wrong_residual(tmp_path, capsys, monkeypatch):
    original = chvar.fricke_f
    monkeypatch.setattr(chvar, "fricke_f", lambda *args: original(*args) + 1)
    assert main(["chvar", "fricke", "--trials", "10"]) == 1
    assert capsys.readouterr().out.strip().endswith("result: FAIL")
    config = _write_config(tmp_path, tmp_path / "nowhere")
    assert main(["verify", "all", "--config", str(config)]) == 1
    assert "chvar.fricke_random: FAIL (max |f| = " in capsys.readouterr().out


def test_chvar_fricke_rejects_huge_trial_count(capsys):
    assert main(["chvar", "fricke", "--trials", "1000001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trials must be at most 1000000" in captured.err


def test_chvar_fricke_rejects_empty_trial_count(capsys):
    assert main(["chvar", "fricke", "--trials", "0"]) == 2
    assert "--trials must be at least 1" in capsys.readouterr().err


def test_cli_import_leaves_chvar_unloaded():
    # the trace calculus loads only for the chvar commands and `verify all`
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, skeinlab.cli; print('skeinlab.chvar' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_commands_run_with_numpy_blocked():
    # numpy is a test dependency only: the chvar commands and `verify all`
    # must run in an interpreter that cannot import it
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from skeinlab.cli import main\n"
        "for argv in (['chvar', 'scan'], ['chvar', 'fricke'], ['verify', 'all']):\n"
        "    assert main(argv) == 0, argv\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("result: PASS") == 3


def test_chvar_scan_cli_deterministic(capsys):
    argv = [
        "chvar",
        "scan",
        "--t-samples",
        "1",
        "--b-samples",
        "32",
        "--seed",
        "3",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert sum(1 for line in first.splitlines() if line.startswith("b=")) == 32
    assert first.strip().endswith("result: PASS")
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_chvar_scan_accepts_even_numerator_tangles(capsys):
    argv = ["chvar", "scan", "--tangles", "2/5,2/5,2/5,2/5", "--t-samples", "1", "--b-samples", "32"]
    assert main(argv) == 0
    assert capsys.readouterr().out.strip().endswith("result: PASS")


def test_chvar_scan_rejects_small_grid(capsys):
    argv = ["chvar", "scan", "--t-samples", "1", "--b-samples", "8"]
    assert main(argv) == 2
    assert "at least 32" in capsys.readouterr().err


def test_chvar_scan_rejects_huge_grid_before_output(capsys):
    argv = ["chvar", "scan", "--t-samples", "1", "--b-samples", "100001"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--b-samples must be at most 100000" in captured.err


def test_chvar_scan_rejects_huge_total_grid_before_output(capsys):
    argv = ["chvar", "scan", "--t-samples", "11", "--b-samples", "100000"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--t-samples x --b-samples must be at most 1000000" in captured.err


def test_chvar_scan_rejects_empty_sample_count(capsys):
    assert main(["chvar", "scan", "--t-samples", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--t-samples must be at least 1" in captured.err


def test_chvar_scan_rejects_n_max_flag(capsys):
    # The ladder that --n-max sized is gone from the scan, and so is the flag.
    with pytest.raises(SystemExit) as exc:
        main(["chvar", "scan", "--n-max", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --n-max" in captured.err


def test_chvar_scan_rejects_bad_tangles(capsys):
    argv = ["chvar", "scan", "--tangles", "1/3,1/3", "--b-samples", "32"]
    assert main(argv) == 2
    assert "4 tangles" in capsys.readouterr().err


@pytest.mark.parametrize(
    "slope,needle",
    [
        ("2/4", "lowest terms"),
        ("1/2", "b > 2"),
        ("1/0", "b > 2"),
        ("1/-3", "b > 2"),
        (f"1/{chvar.MAX_SLOPE_DENOMINATOR + 2}", f"b <= {chvar.MAX_SLOPE_DENOMINATOR}"),
    ],
)
def test_chvar_scan_rejects_bad_slopes_before_output(capsys, slope, needle):
    argv = ["chvar", "scan", "--tangles", f"{slope},1/3,1/3,1/3", "--t-samples", "1", "--b-samples", "32"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert slope in captured.err and needle in captured.err


@pytest.mark.parametrize("trace", ["nan", "inf", "-infj", "1e400"])
def test_chvar_scan_rejects_non_finite_traces_before_output(capsys, trace):
    argv = ["chvar", "scan", "--tangles", f"1/3,1/3,1/3,{trace}", "--t-samples", "1", "--b-samples", "32"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad tangle trace {trace!r}: not finite" in captured.err


def _write_config(tmp_path, fixture_dir):
    config = tmp_path / "verify.cfg"
    config.write_text(
        "max_n = 6\n"
        "b_samples = 32\n"
        "t_samples = 1\n"
        f"fixture_dir = {fixture_dir}\n",
        encoding="utf-8",
    )
    return config


def test_verify_all_passes_and_is_deterministic(tmp_path, capsys):
    fixtures = tmp_path / "fx"
    assert main(["fixtures", "emit", "--dir", str(fixtures)]) == 0
    capsys.readouterr()
    config = _write_config(tmp_path, fixtures)
    argv = ["verify", "all", "--config", str(config), "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert first.startswith("seed=7\n")
    assert "cheby.qdiff_closed_form: PASS" in first
    assert "ncrewrite.matrix_lemma: PASS" in first
    assert "ncrewrite.mutation_detected: PASS" in first
    assert "skein.roundtrip: PASS" in first
    assert "skein.epsilon_factorization: PASS" in first
    assert "skein.fixture r2_hole1: PASS" in first
    assert "skein.fixture x1t1: SKIPPED" in first
    assert "chvar.fricke_random: PASS" in first
    assert "chvar.x1_scan: PASS" in first
    assert first.strip().endswith("result: PASS")
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_verify_all_timings_are_per_fixture(tmp_path, capsys):
    fixtures = tmp_path / "fx"
    assert main(["fixtures", "emit", "--dir", str(fixtures)]) == 0
    capsys.readouterr()
    config = _write_config(tmp_path, fixtures)
    start = time.perf_counter()
    assert main(["verify", "all", "--config", str(config), "--timings"]) == 0
    wall = time.perf_counter() - start
    times = [
        float(t)
        for t in re.findall(r"^skein\.fixture .*\[(\d+\.\d+)s\]$", capsys.readouterr().out, re.M)
    ]
    assert len(times) > 2
    assert len(set(times)) > 1
    # Each time is printed rounded to the microsecond.
    assert sum(times) <= wall + 0.0000005 * len(times)


def test_verify_all_without_fixture_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = _write_config(tmp_path, tmp_path / "nowhere")
    assert main(["verify", "all", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "skein.fixtures: SKIPPED" in out
    assert out.strip().endswith("result: PASS")


def test_verify_all_flags_corrupt_fixture(tmp_path, capsys):
    fixtures = tmp_path / "fx"
    assert main(["fixtures", "emit", "--dir", str(fixtures)]) == 0
    capsys.readouterr()
    (fixtures / "r2poked.diagram").write_text(
        "board holes=1\ncurve junk\n", encoding="utf-8"
    )
    config = _write_config(tmp_path, fixtures)
    assert main(["verify", "all", "--config", str(config)]) == 1
    out = capsys.readouterr().out
    assert "skein.fixture r2_hole1: FAIL" in out
    assert "skein.fixture x1t1: SKIPPED" in out
    assert out.strip().endswith("result: FAIL")


def test_unreadable_fixture_file_fails_only_its_fixture(tmp_path, capsys):
    fixtures = tmp_path / "fx"
    assert main(["fixtures", "emit", "--dir", str(fixtures)]) == 0
    capsys.readouterr()
    (fixtures / "r2poked.diagram").write_bytes(b"\xff\xfe")
    config = _write_config(tmp_path, fixtures)
    assert main(["verify", "all", "--config", str(config)]) == 1
    out = capsys.readouterr().out
    assert "skein.fixture r2_hole1: FAIL (UnicodeDecodeError: " in out
    assert "skein.fixture x1t1: SKIPPED" in out
    assert out.strip().endswith("result: FAIL")
    assert main(["skein", "verify-fixture", str(fixtures)]) == 1
    out = capsys.readouterr().out
    assert "fixture r2_hole1: FAIL (UnicodeDecodeError: " in out
    assert "fixture x1t1: SKIPPED" in out
    assert out.strip().endswith("result: FAIL")


def test_verify_all_isolates_a_raising_check(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "verify_skein_identity", boom)
    config = _write_config(tmp_path, tmp_path / "nowhere")
    assert main(["verify", "all", "--config", str(config)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "skein.strand_slide: FAIL (RuntimeError: boom)" in lines
    later = lines[lines.index("skein.strand_slide: FAIL (RuntimeError: boom)") + 1 :]
    assert later[0] == "skein.epsilon_factorization: PASS (laminar-union pairs factor exactly)"
    assert any(line.startswith("chvar.x1_scan: PASS") for line in later)
    assert later[-1] == "result: FAIL"


def test_verify_all_config_errors(tmp_path, capsys):
    config = tmp_path / "broken.cfg"
    config.write_text("max_n = banana\n", encoding="utf-8")
    assert main(["verify", "all", "--config", str(config)]) == 2
    assert "line 1" in capsys.readouterr().err
    assert main(["verify", "all", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "not found" in capsys.readouterr().err
    config.write_text("max_n = 97\n", encoding="utf-8")
    assert main(["verify", "all", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_n must be at most 96" in captured.err


def test_closed_pipe_exits_quietly():
    # About 100 kB of output: more than a pipe holds, so the scan is still
    # writing when the reader closes after one line.
    argv = [sys.executable, "-m", "skeinlab.cli", "chvar", "scan", "--t-samples", "2", "--b-samples", "900"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"# tangles=")
        proc.stdout.close()
        err = proc.stderr.read()
        # Cut off partway: the verdict is unknown, so it is not success.
        assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.parametrize("corrupt,code", [(False, 0), (True, 1)])
def test_closed_pipe_keeps_a_finished_verdict(tmp_path, capsys, corrupt, code):
    fixtures = tmp_path / "fx"
    assert main(["fixtures", "emit", "--dir", str(fixtures)]) == 0
    capsys.readouterr()
    if corrupt:
        (fixtures / "r2poked.diagram").write_text(
            "board holes=1\ncurve junk\n", encoding="utf-8"
        )
    config = _write_config(tmp_path, fixtures)
    argv = [sys.executable, "-m", "skeinlab.cli", "verify", "all", "--config", str(config)]
    # With stdout buffered, the report fits in the buffer, so the closed pipe
    # shows only at the final flush, after the command has returned its code.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == code
    assert err == b""


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "skeinlab.cli", "cheby", "verify", "--max-n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout

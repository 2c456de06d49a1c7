import runpy
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "scripts" / "bench_record.py"


@pytest.fixture(scope="module")
def bench():
    return runpy.run_path(str(SCRIPT))


BEFORE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
AFTER = [0.30, 0.31, 0.29, 0.30, 0.32, 0.30, 0.31, 0.29, 0.30, 0.31]


def test_gain_needs_nine_of_ten_wins_and_a_gap_past_the_parent_spread(bench):
    compare = bench["compare"]
    lower = compare(BEFORE, AFTER, "lower", 0.25)
    assert lower["after_wins"] == 10 and lower["verdict"] == "gain"
    assert lower["before"]["median"] == 1.0 and lower["before"]["runs"] == BEFORE
    assert lower["before"]["q1"] <= lower["before"]["median"] <= lower["before"]["q3"]
    # the same runs read as a regression when higher is better
    higher = compare(BEFORE, AFTER, "higher", 0.25)
    assert higher["after_wins"] == 0 and higher["verdict"] == "regression"
    # eight wins of ten is no gain, however large the gap
    mixed = compare(BEFORE, AFTER[:8] + [1.5, 1.5], "lower", 0.25)
    assert mixed["after_wins"] == 8 and mixed["verdict"] == "within bound"
    # ten wins inside the parent's interquartile spread are no gain either
    close = compare(BEFORE, [b - 0.001 for b in BEFORE], "lower", 0.25)
    assert close["after_wins"] == 10 and close["verdict"] == "within bound"


def test_gain_needs_a_median_shift_of_a_fifth_of_the_bound(bench):
    compare = bench["compare"]
    steady = [1.0 + 0.0001 * k for k in range(10)]
    # ten wins far past the parent's spread, but a 1% shift against a 25%
    # bound: less than the 5% a gain needs
    small = compare(steady, [b - 0.01 for b in steady], "lower", 0.25)
    assert small["after_wins"] == 10 and small["verdict"] == "within bound"
    assert bench["GAIN_SHARE"] == 0.2
    # a 6% shift is a gain against that bound, and the same 1% shift is one
    # against a 4% bound
    assert compare(steady, [b - 0.06 for b in steady], "lower", 0.25)["verdict"] == "gain"
    assert compare(steady, [b - 0.01 for b in steady], "lower", 0.04)["verdict"] == "gain"


def test_spread_wider_than_the_bound_is_unresolved(bench):
    compare = bench["compare"]
    # the parent's quartiles lie 55% of its median apart, past the 0.25 bound
    wide = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.3, 1.4, 1.5]
    close = compare(wide, [w + 0.01 for w in wide], "lower", 0.25)
    assert close["verdict"] == "unresolved"
    # a noisy change against a steady parent is unresolved too
    assert compare(BEFORE, wide, "lower", 0.25)["verdict"] == "unresolved"
    # unless every run of the change beats every run of the parent
    apart = compare(wide, [w + 1.5 for w in wide], "higher", 0.25)
    assert apart["after_wins"] == 10 and apart["verdict"] == "gain"
    above = compare(wide, [1.51 + 0.001 * k for k in range(10)], "higher", 0.25)
    assert above["verdict"] == "within bound"
    # a median worse past the bound is a regression, however wide the spread
    assert compare(wide, [w + 1.5 for w in wide], "lower", 0.25)["verdict"] == "regression"


@pytest.mark.parametrize("flag", ["--pairs=3", "--seconds=5", "--seed=0", "--before=HEAD~1"])
def test_run_settings_are_not_options(bench, capsys, flag):
    # ten pairs on the held-out seed, for the run length BENCHMARK.json fixes
    assert (bench["PAIRS"], bench["SEED"]) == (10, 1)
    with pytest.raises(SystemExit) as exc:
        bench["main"](["--name", "x", "--workload", "flag_count", flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_src_lines_is_the_wc_total_of_the_library_modules(bench, tmp_path):
    package = tmp_path / "src" / "perioddomains"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # wc -l counts no line without a newline
    (package / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("outside\n")
    assert bench["src_lines"](tmp_path) == 2


def test_tests_lines_is_the_wc_total_of_the_test_modules(bench, tmp_path):
    tests = tmp_path / "tests"
    (tests / "data").mkdir(parents=True)
    (tests / "test_a.py").write_text("x = 1\ny = 2\n")
    (tests / "conftest.py").write_text("z = 3")  # wc -l counts no line without a newline
    (tests / "cli_transcript.json").write_text("[\n]\n")
    (tests / "data" / "test_b.py").write_text("nested\n")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "test_c.py").write_text("outside\n")
    assert bench["tests_lines"](tmp_path) == 2
    assert bench["src_lines"](tmp_path) == 0

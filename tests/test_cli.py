import itertools
import os
import re
import runpy
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from perioddomains import classify as cf
from perioddomains import cli, errors, strata, weyl
from perioddomains import finflag as ffl
from perioddomains import rootdata as rd
from perioddomains.errors import ParseError, ValidationError, shown


def run_main(*args):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(args))
    return code, buf.getvalue()


def test_parse_classify_example():
    job = cli.parse_jobspec("kind=A rank=1 form=split t=1 nu=1,-1 command=classify")
    assert job.command == "classify"
    assert job.kind == "A" and job.rank == 1 and job.t == 1
    assert job.nu == ((1, -1),)


def test_parse_multiline_with_comments():
    job = cli.parse_jobspec(
        "command = strata\n# a comment\nkind = A\nrank = 2\nnu = 2,-1,-1\n")
    assert job.command == "strata"
    assert job.nu == ((2, -1, -1),)


def test_parse_res_tuple():
    job = cli.parse_jobspec("command=classify kind=A rank=1 t=2 nu=1,-1;0,0")
    assert job.t == 2
    assert job.nu == ((1, -1), (0, 0))


def test_parse_fractions():
    job = cli.parse_jobspec("command=classify kind=A rank=1 nu=1/2,-1/2")
    from fractions import Fraction
    assert job.nu == ((Fraction(1, 2), Fraction(-1, 2)),)


def test_parse_rejects_unknown_key():
    with pytest.raises(ParseError) as exc:
        cli.parse_jobspec("command=classify kind=A rank=1 bogus=1")
    assert "bogus" in str(exc.value)


def test_parse_rejects_bad_vector():
    with pytest.raises(ParseError):
        cli.parse_jobspec("command=classify kind=A rank=1 nu=1,zebra")


def test_parse_validates_nu_count():
    with pytest.raises(ValidationError):
        cli.parse_jobspec("command=classify kind=A rank=1 t=2 nu=1,-1")


def test_parse_q_prime_power():
    job = cli.parse_jobspec("command=verify kind=A rank=1 nu=1,-1 q=4 m=2")
    assert (job.p, job.e, job.m) == (2, 2, 2)
    with pytest.raises(ValidationError):
        cli.parse_jobspec("command=verify kind=A rank=1 nu=1,-1 q=6 m=1")


def test_classify_end_to_end_drinfeld():
    code, out = run_main("classify", "kind=A rank=1 form=split t=1 nu=1,-1")
    assert code == 0
    assert "pi1 = pi1(Omega^(2)/k)" in out


def test_classify_end_to_end_trivial():
    code, out = run_main("classify", "kind=A rank=2 nu=1,0,-1")
    assert code == 0
    assert out.splitlines()[0] == "pi1 = trivial"


def test_classify_record_format_contract():
    code, out = run_main("classify", "--record", "kind=A rank=2 t=2 nu=2,-1,-1;0,0,0")
    assert code == 0
    lines = out.splitlines()
    assert "pi1=pi1(Omega^(3)/k')" in lines
    assert "factor=1" in lines


def test_strata_record_contract():
    code, out = run_main("strata", "--record", "kind=A rank=2 nu=2,-1,-1")
    assert code == 0
    lines = out.splitlines()
    for expected in ("dim_F=2", "dim_Y=1", "codim=1"):
        assert expected in lines


def test_strata_text_deterministic():
    _, out1 = run_main("strata", "kind=B rank=2 nu=2,1")
    _, out2 = run_main("strata", "kind=B rank=2 nu=2,1")
    assert out1 == out2


def test_verify_end_to_end():
    code, out = run_main("verify", "kind=A rank=1 nu=1,-1 q=2 m=2")
    assert code == 0
    lines = out.splitlines()
    assert "points = 5" in lines
    assert "semistable = 2" in lines
    assert "agreement = ok" in lines


def test_verify_restriction_of_scalars():
    # degree-2 restriction over F_4 = k': pairs of points of P^1(F_4), of
    # which the twisted diagonal {(L, Frob L)} is unstable
    code, out = run_main("verify", "--record", "kind=A rank=1 t=2 nu=1,-1;1,-1 q=2 m=2")
    assert code == cli.EXIT_OK
    assert out.splitlines() == [
        "points=25", "semistable=20", "unstable=5", "disagreements=0", "agreement=ok",
        "unstable_witness_1=1,0;1,0", "unstable_witness_2=1,1;1,1",
        "unstable_witness_3=1,2;1,3"]
    # a constant factor is a point: P^1(F_16) minus P^1(F_4)
    code, out = run_main("verify", "kind=A rank=1 t=2 nu=1,-1;0,0 q=2 m=4")
    assert code == cli.EXIT_OK
    assert out.splitlines()[:3] == ["points = 17", "semistable = 12", "unstable = 5"]


def test_verify_decides_each_point_once_per_route_in_integers(monkeypatch):
    # verify hands every point to finflag._semistable once per route, with
    # the integer excesses of its one reading of nu: a fractional nu is
    # scaled to integers, and gives the report it gave as Fractions
    calls, semistable = [], ffl._semistable

    def recording(points, n, ff, excess):
        calls.append((points, n, excess))
        return semistable(points, n, ff, excess)

    monkeypatch.setattr(ffl, "_semistable", recording)
    code, out = run_main("verify", "kind=A rank=1 nu=1/3,-1/3 q=4 m=2")
    assert code == cli.EXIT_OK
    assert out.splitlines() == [
        "points = 17", "semistable = 12", "unstable = 5", "disagreements = 0",
        "agreement = ok", "unstable_witness_1 = 1,0", "unstable_witness_2 = 1,1",
        "unstable_witness_3 = 1,6"]
    excesses = ffl._excesses(1, ((F(1, 3), F(-1, 3)),))[2]
    routes = [excesses["subspace"], excesses["strata"]]
    assert [excess for _, _, excess in calls] == routes * 17
    assert [points for points, _, _ in calls[::2]] == [points for points, _, _ in calls[1::2]]
    assert len({points for points, _, _ in calls}) == 17
    assert {n for _, n, _ in calls} == {2}
    assert [type(excess(1, (1,))) for excess in routes] == [int, int]
    assert [excess(1, (1,)) for excess in routes] == [2, 4]  # nkL and 2nL times 1/3


@pytest.mark.parametrize("config,points", [
    ("kind=A rank=2 nu=1,0,-1 q=2 m=1", 21),
    ("kind=A rank=1 t=2 nu=1,-1;1,-1 q=2 m=2", 25),
])
def test_verify_computes_each_points_profiles_once(config, points):
    # both tests read one intersection-profile pass per point
    ffl.intersection_profiles.cache_clear()
    assert run_main("verify", config)[0] == cli.EXIT_OK
    info = ffl.intersection_profiles.cache_info()
    assert (info.misses, info.hits) == (points, points)


@pytest.mark.parametrize("config,passes,hits", [
    ("kind=A rank=2 nu=1,0,-1 q=2 m=1", 14, 28),        # 7 lines, 7 planes; 21 flags
    ("kind=A rank=1 t=2 nu=1,-1;1,-1 q=2 m=2", 10, 40),  # 5 lines at 2 powers; 25 pairs
    ("kind=A rank=2 nu=2,-1,-1 q=2 m=2", 0, 0),          # one-step points skip the memo,
    ("kind=A rank=1 t=2 nu=0,0;1,-1 q=2 m=2", 0, 0),     # also with the step in copy 1
])
def test_verify_passes_each_step_once(config, passes, hits):
    # a step's dims over the rational U depend on that step alone, so the
    # points of a job that share a step share its one pass
    ffl._step_memo.clear()
    assert run_main("verify", config)[0] == cli.EXIT_OK
    assert (ffl._step_memo.misses, ffl._step_memo.hits) == (passes, hits)


def test_verify_exits_4_when_the_routes_disagree(monkeypatch):
    # the strata verdict of the first point is flipped: verify counts one
    # disagreement, marks the agreement FAILED and exits 4, while the counts
    # and witnesses still come from the subspace test
    calls, semistable = [], ffl._semistable

    def flipped(points, n, ff, excess):
        calls.append(points)
        verdict = semistable(points, n, ff, excess)
        return not verdict if len(calls) == 2 else verdict

    monkeypatch.setattr(ffl, "_semistable", flipped)
    code, out = run_main("verify", "--record", "kind=A rank=1 nu=1,-1 q=2 m=2")
    assert code == cli.EXIT_DISAGREEMENT == 4
    assert out.splitlines() == [
        "points=5", "semistable=2", "unstable=3", "disagreements=1", "agreement=FAILED",
        "unstable_witness_1=1,0", "unstable_witness_2=1,1", "unstable_witness_3=0,1"]
    assert len(calls) == 10 and calls[0] == calls[1]


def test_closed_stdout_is_not_a_traceback():
    # the reader of stdout has gone before the report is written
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH", "")])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perioddomains.cli", "verify",
             "kind=A rank=1 nu=1,-1 q=4 m=1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")


@pytest.mark.parametrize("flags", [(), ("--record",)])
def test_verify_progress_goes_to_stderr_only(monkeypatch, capsys, flags):
    job = ("verify", "kind=A rank=2 nu=1,0,-1 q=2 m=1", *flags)
    code, quiet = run_main(*job)
    assert code == 0 and capsys.readouterr().err == ""
    monkeypatch.setattr(cli, "PROGRESS_INTERVAL_S", 0.0)
    code, noisy = run_main(*job)
    assert code == 0 and noisy == quiet
    assert capsys.readouterr().err.splitlines() == \
        [f"verify: {k}/21 points" for k in range(1, 22)]


def test_verify_same_output_under_optimize():
    # the invariant checks raise typed errors, so -O must change nothing
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH", "")])
    runs = [subprocess.run(
        [sys.executable, *opt, "-m", "perioddomains.cli", "verify", "--record",
         "kind=A rank=2 nu=1,0,-1 q=2 m=2"],
        capture_output=True, text=True, env=env, timeout=60) for opt in ((), ("-O",))]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert "agreement=ok" in runs[0].stdout.splitlines()


def test_semistable_counts_script_validates_q(capsys):
    script = Path(__file__).parents[1] / "scripts" / "semistable_counts.py"
    main = runpy.run_path(str(script))["main"]
    assert main(["--q", "6", "--max-m", "1"]) == cli.EXIT_VALIDATION
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "validation error: q must be a prime power\n"
    assert main(["--q", "4", "--max-m", "1", "--nu", "1,-1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"\s*1\s+5\s+0\s+ok", rows[-1])
    # the script's flag dims read nu as every route does
    assert main(["--q", "2", "--max-m", "1", "--nu", "0,1,-1"]) == cli.EXIT_VALIDATION
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "validation error: negative pairing with simple coroots [1]\n"
    with pytest.raises(SystemExit) as exc:
        main(["--q", "4", "--max-m", "0"])
    assert exc.value.code == 2
    assert "--max-m must be at least 1" in capsys.readouterr().err


def test_tables_g2_fractions():
    code, out = run_main("tables", "kind=G2 rank=2")
    assert code == 0
    assert "# simple roots" in out
    assert "1 -1 0" in out
    assert "0 -1 1" in out  # first fundamental coweight
    code, out = run_main("tables", "kind=A rank=2")
    assert "2/3 -1/3 -1/3" in out


def test_tables_relative_section():
    code, out = run_main("tables", "kind=A rank=3 form=unitary")
    assert code == 0
    assert "# relative coweights (form=unitary, t=1)" in out
    assert "1 0 0 -1" in out


def test_exit_code_parse_error():
    code, _ = run_main("classify", "kind=A rank=1 nu=1,-1 nonsense=3")
    assert code == 1


def test_seed_is_not_an_option():
    code, out = run_main("verify", "kind=A rank=1 nu=1,-1 q=2 m=2 seed=7")
    assert code == cli.EXIT_USAGE and out == ""
    code, out = run_main("verify", "kind=A rank=1 nu=1,-1 q=2 m=2", "--seed", "3")
    assert code == cli.EXIT_USAGE and out == ""


@pytest.mark.parametrize("command,config", [
    ("classify", "kind=A rank=2 nu=1,2,-3"),
    ("verify", "kind=A rank=2 nu=1,2,-3 q=2 m=1"),
])
def test_validation_error_prints_rationals(command, config, capsys):
    code, _ = run_main(command, config)
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION
    assert "1,2,-3" in err and "Fraction(" not in err


@pytest.mark.parametrize("t,text,pairings", [
    (1, "0,1,-1", "[1]"),
    (2, "2,-1,-1;-1,0,1", "[3, 4]"),
])
def test_a_nu_that_is_not_dominant_gets_one_error_on_every_route(t, text, pairings, capsys):
    # rootdata reads nu for every route: the same class and message from the
    # closed form, the coset oracle, both finite-field tests and, for one
    # flat vector, the flag dims and the parabolic, and on the command line
    # that message with the nu as given
    message = f"negative pairing with simple coroots {pairings}"
    nu = tuple(tuple(int(x) for x in v.split(",")) for v in text.split(";"))
    g = rd.build_group("A", 2, res_degree=t)
    ff = ffl.finite_field(2, 1, 2)
    x = (next(ffl.enumerate_flags(ff, 2, (1, 2))),) * t
    routes = [lambda: cf.classify(g, nu), lambda: strata.strata_report(g, nu),
              lambda: ffl.is_semistable_subspace_test(x, nu, ff),
              lambda: ffl.is_semistable_strata_test(x, nu, ff)]
    if t == 1:
        routes += [lambda: ffl.flag_dims(nu[0]), lambda: weyl.parabolic_of(nu[0], g.base)]
    for route in routes:
        with pytest.raises(errors.NotDominant) as got:
            route()
        assert str(got.value) == message
    for command in ("classify", "strata", "verify"):
        assert run_main(command, f"kind=A rank=2 t={t} nu={text} q=2 m=2") == \
            (cli.EXIT_VALIDATION, "")
        assert capsys.readouterr().err == f"validation error: {message}: {text}\n"


def test_exit_code_validation_error(capsys):
    for command, config in [
        ("classify", "kind=A rank=2 nu=0,1,-1"),
        ("classify", "kind=Q rank=2 nu=1,-1"),
        # a nu of the wrong length, and a restriction degree below 1
        ("classify", "kind=A rank=3 nu=1,0,-1"),
        ("strata", "kind=A rank=3 nu=1,0,-1"),
        ("tables", "kind=A rank=1 t=0"),
        ("tables", "kind=A rank=1 t=-5"),
    ]:
        assert run_main(command, config) == (cli.EXIT_VALIDATION, "")
        assert capsys.readouterr().err.startswith("validation error: ")


@pytest.mark.parametrize("command,config", [
    ("tables", "kind=D rank=3"),
    ("strata", "kind=D rank=3 nu=1,0,0"),
    ("classify", "kind=D rank=3 nu=1,0,0"),
])
def test_d3_warning_is_one_line_under_any_filter(command, config):
    # one line, whatever PYTHONWARNINGS says, and no install path in it
    env = dict(os.environ, PYTHONWARNINGS="error")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-m", "perioddomains.cli", command, config],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == cli.EXIT_OK and proc.stdout
    assert proc.stderr == "warning: D3 is an alias of A3; building the D-style realization\n"


@pytest.mark.parametrize("token", ["1e5000", "1e300000000", "-2.5e4300", "1e-4300",
                                   "1" * 4301, "1e" + "9" * 5000])
def test_long_rationals_are_parse_errors_before_they_are_built(token, capsys):
    # 10^exponent is never formed: a numerator or denominator longer than
    # str() prints is refused from the text
    start = time.perf_counter()
    assert run_main("classify", f"kind=A rank=1 nu={token},-1") == (cli.EXIT_USAGE, "")
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 1: ") and err.count("\n") == 1


def test_longest_printable_rationals_are_read():
    limit = sys.get_int_max_str_digits()
    for token in (f"1e{limit - 1}", f"1e-{limit - 1}", "1" * limit, "1." + "0" * limit):
        assert cli._parse_fraction(token, 1) == F(token)


def test_value_too_long_to_print_exits_two(capsys):
    # each 1/d is legal, but classify's sums over the copies have about
    # three times as many digits
    limit = sys.get_int_max_str_digits()
    ds = [10 ** (limit * 2 // 3) + k for k in (7, 9, 13)]
    nu = ";".join(f"1/{d},-1/{d}" for d in ds)
    start = time.perf_counter()
    assert run_main("classify", f"kind=A rank=1 t=3 nu={nu}") == (cli.EXIT_VALIDATION, "")
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "can be printed" in err
    assert err.count("\n") == 1


def _long(c, size=3000):
    """What an error line quotes of a token of `size` copies of c."""
    return f"'{c * 40}'... ({size} characters)"


@pytest.mark.parametrize("command,args,err", [
    ("classify", [f"kind=A rank=1 nu={'x' * 3000},-1"],
     f"parse error: line 1: bad rational {_long('x')}"),
    ("classify", [f"kind=A rank=1 nu=1e{'9' * 2998},-1"],
     f"parse error: line 1: rational '1e{'9' * 38}'... (3000 characters) has more than "
     f"{sys.get_int_max_str_digits()} digits"),
    ("classify", [f"kind=A rank=1 {'k' * 3000}=1 nu=1,-1"],
     f"parse error: line 1: unknown key {_long('k')}"),
    ("classify", [f"kind=A rank={'r' * 3000} nu=1,-1"],
     f"parse error: line 1: key rank: bad integer {_long('r')}"),
    ("classify", [f"kind=A rank=1 nu=1,-1 {'w' * 3000}"],
     f"parse error: line 1: expected key=value, got {_long('w')}"),
    ("classify", [f"kind={'Q' * 3000} rank=1 nu=1,-1"],
     f"validation error: unknown kind {_long('Q')}"),
    ("classify", [f"kind=A rank=2 form={'u' * 3000} nu=1,0,-1"],
     f"validation error: unknown form {_long('u')}"),
    ("classify", [f"kind=A rank=1 nu=1,-1 output={'o' * 3000}"],
     f"validation error: output must be text or record, got {_long('o')}"),
    ("classify", ["x/" * 1500], f"error: no such config file '{'x/' * 20}'... (3000 characters)"),
], ids=["bad_rational", "digits", "unknown_key", "bad_integer", "key_value", "kind", "form",
        "output", "config_file"])
def test_long_tokens_are_quoted_by_a_prefix_and_their_length(command, args, err, capsys):
    # a 3000-character token, which each message once echoed whole
    start = time.perf_counter()
    assert run_main(command, *args)[1] == ""
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == err + "\n"


@pytest.mark.parametrize("command,config,err", [
    ("classify", f"kind=A rank=1{'0' * 3000} nu=1,-1",
     f"A1{'0' * 39}... (3001 digits) has 5{'0' * 39}... (6000 digits) positive roots"),
    ("strata", f"kind=E8 rank=8 t={'9' * 4299}",
     f"E8 t={'9' * 40}... (4299 digits) has 11{'9' * 38}... (4302 digits) positive roots"),
], ids=["classify", "strata"])
def test_root_counts_too_long_to_print_are_budget_lines(command, config, err, capsys):
    # the positive-root count has more digits than str() prints: one budget
    # line, not a traceback
    start = time.perf_counter()
    assert run_main(command, config) == (cli.EXIT_BUDGET, "")
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"budget exceeded: {err}, above the bound 600\n"


def test_shown_quotes_short_tokens_whole():
    assert [shown(x) for x in ("dims", "x" * 40, 0, -7, 10 ** 40 - 1)] == \
        ["'dims'", repr("x" * 40), "0", "-7", "9" * 40]
    assert shown("x" * 41) == "'" + "x" * 40 + "'... (41 characters)"
    assert shown(-10 ** 40) == "-1" + "0" * 39 + "... (41 digits)"
    assert shown(3 * 10 ** 9000) == "3" + "0" * 39 + "... (9001 digits)"


def test_exit_code_budget():
    code, _ = run_main("strata", "kind=A rank=3 nu=3,1,-1,-3", "--budget", "2")
    assert code == 3


def test_budget_flag_overrides_the_config(capsys):
    # the flag is appended as a token after the config, so it wins
    config = "kind=A rank=3 nu=3,1,-1,-3 budget=100"
    assert run_main("strata", config, "--record")[0] == cli.EXIT_OK
    assert run_main("strata", config, "--budget", "2") == (cli.EXIT_BUDGET, "")
    assert capsys.readouterr().err == "budget exceeded: 14 orbit elements exceed budget 2\n"


# the one `budget` key caps what budget_cells (strata's orbit elements) and
# budget_field (verify's flag points and subspaces) capped: both ids are kept
@pytest.mark.parametrize("command,config", [
    pytest.param("strata", "kind=A rank=3 nu=3,1,-1,-3", id="budget_cells"),
    pytest.param("verify", "kind=A rank=3 nu=3,1,-1,-3 q=2 m=1", id="budget_field"),
])
def test_negative_budget_rejected(command, config, capsys):
    with pytest.raises(ValidationError, match=r"^budget must be nonnegative, got -1$"):
        cli.parse_jobspec(f"command={command} {config} budget=-1")
    code, out = run_main(command, config, "--budget", "-1")
    assert code == cli.EXIT_VALIDATION and out == ""
    assert capsys.readouterr().err == "validation error: budget must be nonnegative, got -1\n"


@pytest.mark.parametrize("key", ["budget_cells", "budget_field"])
def test_old_budget_spellings_are_unknown(key, capsys):
    # `budget` is the one cap for every subcommand
    config = f"kind=A rank=3 nu=3,1,-1,-3 q=2 m=1\n{key}=5"
    assert run_main("verify", config) == (cli.EXIT_USAGE, "")
    assert capsys.readouterr().err == f"parse error: line 2: unknown key '{key}'\n"
    flag = "--" + key.replace("_", "-")
    assert run_main("strata", "kind=A rank=3 nu=3,1,-1,-3", flag, "5") == (cli.EXIT_USAGE, "")
    assert capsys.readouterr().err.startswith("error: unrecognized arguments: ")


@pytest.mark.parametrize("command,config,flag,full,code,out", [
    ("strata", "kind=A rank=3 nu=3,1,-1,-3", ["--b", "2"], ["--budget", "2"], cli.EXIT_BUDGET, ""),
    ("classify", "kind=A rank=2 nu=2,-1,-1", ["--rec"], ["--record"], cli.EXIT_OK, "pi1="),
])
def test_abbreviated_flags_are_refused(command, config, flag, full, code, out, capsys):
    # a prefix of a flag is not a second spelling of it
    assert run_main(command, config, *flag) == (cli.EXIT_USAGE, "")
    assert capsys.readouterr().err.startswith(f"error: unrecognized arguments: {flag[0]}")
    got_code, got_out = run_main(command, config, *full)
    assert got_code == code and got_out.startswith(out)


@pytest.mark.parametrize("command,config", [
    ("classify", "kind=A rank=1"),
    ("strata", "kind=A rank=1"),
    ("verify", "kind=A rank=1 q=2 m=2"),
])
def test_commands_on_cocharacters_require_nu(command, config, capsys):
    assert run_main(command, config) == (cli.EXIT_VALIDATION, "")
    assert capsys.readouterr().err == f"validation error: {command} requires nu\n"


def test_report_error_maps_every_exception_class(capsys):
    # one row per class in errors: a class without one fails the test
    expected = {
        errors.ParseError: (cli.EXIT_USAGE, "parse error: "),
        errors.BudgetExceeded: (cli.EXIT_BUDGET, "budget exceeded: "),
        errors.ValidationError: (cli.EXIT_VALIDATION, "validation error: "),
        errors.IllegalType: (cli.EXIT_VALIDATION, "validation error: "),
        errors.DimensionMismatch: (cli.EXIT_VALIDATION, "validation error: "),
        errors.NotDominant: (cli.EXIT_VALIDATION, "validation error: "),
        errors.MalformedNu: (cli.EXIT_VALIDATION, "validation error: "),
        errors.IndexOutOfRange: (cli.EXIT_VALIDATION, "error: "),
        errors.InvariantViolation: (cli.EXIT_VALIDATION, "error: "),
    }
    classes = {cls for cls in vars(errors).values() if isinstance(cls, type)
               and issubclass(cls, errors.PeriodDomainError)}
    assert classes - {errors.PeriodDomainError} == set(expected)
    for cls, (code, prefix) in expected.items():
        exc = cls(7, "msg") if cls is errors.ParseError else cls("msg")
        assert cli.report_error(exc) == code
        assert capsys.readouterr().err == f"{prefix}{exc}\n"


def test_readme_cli_examples_run():
    # each `perioddomains` line of README's CLI block, as a shell would split it
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("perioddomains ")]
    assert len(lines) == 6
    for line in lines:
        code, out = run_main(*shlex.split(line)[1:])
        assert code == cli.EXIT_OK and out.strip(), line


def _rho(kind, rank):
    rs = rd.build_root_system(kind, rank)
    return ",".join(str(sum(w[k] for w in rs.fundamental_coweights))
                    for k in range(rs.ambient_dim))


def test_default_budget_refuses_e8_regular(capsys):
    # the orbits of the 8 fundamental coweights hold 881,760 elements: refused
    # before any orbit search
    start = time.perf_counter()
    code, out = run_main("strata", f"kind=E8 rank=8 nu={_rho('E8', 8)}")
    assert code == cli.EXIT_BUDGET and out == ""
    assert capsys.readouterr().err == \
        "budget exceeded: 881760 orbit elements exceed budget 65536\n"
    assert time.perf_counter() - start < 1.0


def test_default_budget_admits_e7_regular():
    # 17,642 orbit elements, although |W^P| = 2,903,040
    code, out = run_main("strata", "--record", f"kind=E7 rank=7 nu={_rho('E7', 7)}")
    assert code == cli.EXIT_OK
    assert out.splitlines()[:3] == ["dim_F=63", "dim_Y=49", "codim=14"]


def test_default_budget_admits_a3_t4_regular():
    # 4 copies of 4 + 6 + 4 orbit elements, although |W^P| = 331,776
    nu = ";".join(["3,1,-1,-3"] * 4)
    code, out = run_main("strata", "--record", f"kind=A rank=3 t=4 nu={nu}")
    assert code == cli.EXIT_OK
    assert out.splitlines()[:6] == ["dim_F=24", "dim_Y=17", "codim=7", "dim_Y_1=17",
                                    "cells_1=137376",
                                    "witness_1=s8.s11.s12.s11.s9.s8.s7.s6.s5.s4.s6.s5"
                                    ".s3.s2.s1.s3.s2"]


def test_default_field_budget_refuses_huge_verify(capsys):
    # (line, hyperplane) flags of F_256^4: refused before the first point
    start = time.perf_counter()
    code, out = run_main("verify", "kind=A rank=3 nu=1,0,0,-1 q=2 m=8")
    assert code == cli.EXIT_BUDGET and out == ""
    assert capsys.readouterr().err == \
        "budget exceeded: 1108152091137 flag points exceed budget 65536\n"
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("config,code,err", [
    # (line, plane) flags of F_{3^10}^4: refused before the field's tables
    ("kind=A rank=3 nu=1,0,0,-1 q=3 m=10", cli.EXIT_BUDGET,
     "budget exceeded: 717922303640454559383100 flag points exceed budget 65536"),
    # the field's own checks still come first
    ("kind=A rank=3 nu=1,0,0,-1 q=2 m=17", cli.EXIT_BUDGET,
     "budget exceeded: field order 131072 exceeds bound 65536"),
    ("kind=A rank=3 nu=1,0,0,-1 q=6 m=10", cli.EXIT_VALIDATION,
     "validation error: q must be a prime power"),
    # verify derives the flag dims from nu, so there is no dims key
    ("kind=A rank=3 nu=1,0,0,-1 q=3 m=10 dims=2", cli.EXIT_USAGE,
     "parse error: line 1: unknown key 'dims'"),
    # the shape of the input: len(nu) = rank + 1, and a legal (kind, rank)
    ("kind=A rank=2 nu=1,0,0,-1 q=3 m=10", cli.EXIT_VALIDATION,
     "validation error: factor of length 4; base ambient dimension is 3"),
    ("kind=A rank=3 nu=1,0,-1 q=2 m=3", cli.EXIT_VALIDATION,
     "validation error: factor of length 3; base ambient dimension is 4"),
    ("kind=A rank=0 nu=0 q=3 m=10", cli.EXIT_VALIDATION,
     "validation error: illegal pair kind=A rank=0"),
    # a q past the field bound before it is factored (trial division of the
    # prime 10^18 + 3 would take 10^9 steps), and a degree past it without
    # forming 2^20000
    ("kind=A rank=1 nu=1,-1 q=1000000007 m=1", cli.EXIT_BUDGET,
     "budget exceeded: q = 1000000007 exceeds the field order bound 65536"),
    ("kind=A rank=1 nu=1,-1 q=1000000000000000003 m=1", cli.EXIT_BUDGET,
     "budget exceeded: q = 1000000000000000003 exceeds the field order bound 65536"),
    ("kind=A rank=1 nu=1,-1 q=2 m=20000", cli.EXIT_BUDGET,
     "budget exceeded: field order 2^20000 exceeds bound 65536"),
    # P^3 over F_2 has 15 points, but each is tested against 65 rational
    # subspaces
    ("kind=A rank=3 nu=3,-1,-1,-1 q=2 m=1 budget=20", cli.EXIT_BUDGET,
     "budget exceeded: 65 rational subspaces exceed budget 20"),
    # a restriction of scalars of degree t needs t | m, and its points are
    # t-tuples: 17 * 17 pairs of points of P^1(F_16)
    ("kind=A rank=1 t=2 nu=1,-1;1,-1 q=2 m=3", cli.EXIT_VALIDATION,
     "validation error: t=2 does not divide m=3: no degree-t extension"),
    ("kind=A rank=1 t=2 nu=1,-1;1,-1 q=2 m=4 budget=100", cli.EXIT_BUDGET,
     "budget exceeded: 289 flag points exceed budget 100"),
    # P^2 over F_4 has 21 points, and F_4^3 has 42 subspaces, not F_2^3's 14
    ("kind=A rank=2 t=2 nu=2,-1,-1;0,0,0 q=2 m=2 budget=30", cli.EXIT_BUDGET,
     "budget exceeded: 42 rational subspaces exceed budget 30"),
])
def test_verify_refuses_before_building_the_field(config, code, err, capsys, monkeypatch):
    def no_field(*args):
        raise AssertionError(f"field {args} built")

    monkeypatch.setattr(ffl, "finite_field", no_field)
    start = time.perf_counter()
    assert run_main("verify", config) == (code, "")
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == err + "\n"


def _count_reads(monkeypatch, module) -> list:
    """The argument tuples of every call to module._read_nu from now on."""
    calls, read = [], module._read_nu

    def counted(*args):
        calls.append(args)
        return read(*args)

    monkeypatch.setattr(module, "_read_nu", counted)
    return calls


def test_classify_reads_nu_once_per_job(monkeypatch):
    # a Drinfeld verdict prints its projection lines from the Classification
    calls = _count_reads(monkeypatch, cf)
    code, text = cli.run_job(cli.parse_jobspec(
        "command=classify kind=A rank=2 t=2 nu=2,-1,-1;0,0,0"))
    assert code == cli.EXIT_OK and "projection_target = Omega^(3)" in text
    assert [args[:2] for args in calls] == [(rd.build_root_system("A", 2), 2)]


def test_verify_reads_nu_once_through_finflag(monkeypatch):
    # a verify job reads nu once, on the job group's base A_rank with its t
    # copies, through finflag's memoized excesses; cli reads nu itself
    # nowhere and calls neither public test
    def refused(*args):
        raise AssertionError("verify called a public semistability test")

    for name in ("is_semistable_subspace_test", "is_semistable_strata_test"):
        monkeypatch.setattr(ffl, name, refused)
    assert not any(hasattr(cli, name) for name in
                   ("_read_nu", "is_semistable_subspace_test", "is_semistable_strata_test"))
    ffl._excesses.cache_clear()
    calls = _count_reads(monkeypatch, ffl)
    code, _ = cli.run_job(cli.parse_jobspec(
        "command=verify kind=A rank=1 t=2 nu=1,-1;1,-1 q=2 m=2"))
    assert code == cli.EXIT_OK
    a1 = rd.build_group("A", 1, res_degree=2).base
    assert a1 is rd.build_root_system("A", 1)
    assert [args[:2] for args in calls] == [(a1, 2)]


def test_the_product_realization_is_built_only_where_it_is_read():
    # classify, tables and verify read a restriction of scalars as t copies
    # of its base; only strata's witness is an element of the t-fold product
    rd._build_group.cache_clear()
    g = rd.build_group("A", 1, res_degree=2)
    for command in ("classify", "tables", "verify"):
        code, _ = cli.run_job(cli.parse_jobspec(
            f"command={command} kind=A rank=1 t=2 nu=1,-1;1,-1 q=2 m=2"))
        assert code == cli.EXIT_OK
    assert "absolute" not in vars(g)
    code, text = cli.run_job(cli.parse_jobspec("command=strata kind=A rank=1 t=2 nu=2,-2;1,-1"))
    assert code == cli.EXIT_OK and text.endswith("witness_1 = s2")
    assert type(vars(g)["absolute"]) is rd.Realization
    g = rd.build_group("A", 1)
    assert g.absolute is g.base


def test_survey_reads_nu_once(monkeypatch):
    # the flag dims come from survey's own reading of nu
    ffl._excesses.cache_clear()
    calls = _count_reads(monkeypatch, ffl)
    points, verdicts = ffl.survey(2, 1, 2, 2, (2, -1, -1), cli.DEFAULT_BUDGET)
    assert sum(a for _, a, _ in verdicts) == 0
    assert [args[:2] for args in calls] == [(rd.build_root_system("A", 2), 1)]


@pytest.mark.parametrize("command,config,err", [
    ("classify", "kind=A rank=3000 nu=1", "A3000 has 4501500 positive roots, above the bound 600"),
    ("strata", "kind=A rank=40 nu=1", "A40 has 820 positive roots, above the bound 600"),
    ("verify", "kind=A rank=40 nu=1,-1 q=2 m=1",
     "A40 has 820 positive roots, above the bound 600"),
    ("tables", "kind=B rank=25", "B25 has 625 positive roots, above the bound 600"),
    ("tables", "kind=A rank=1 t=100000",
     "A1 t=100000 has 100000 positive roots, above the bound 600"),
])
def test_oversized_root_system_refused_before_it_is_built(command, config, err, capsys):
    start = time.perf_counter()
    assert run_main(command, config) == (cli.EXIT_BUDGET, "")
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"budget exceeded: {err}\n"


def test_verify_refuses_a_huge_rank_before_counting_points():
    # A_100000: the root bound is checked before [100001, 1]_2 is formed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "perioddomains.cli", "verify",
         "kind=A rank=100000 nu=1,-1 q=2 m=1"],
        capture_output=True, text=True, env=env, timeout=5)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_BUDGET, "")
    assert proc.stderr == \
        "budget exceeded: A100000 has 5000050000 positive roots, above the bound 600\n"


def test_default_field_budget_admits_p3_over_f27(monkeypatch):
    # P^3 over F_27 (20,440 points, 210 rational subspaces of F_3^4) passes
    # every up-front check at the default budget; only the first three points
    # are then tested
    enumerate_flags = ffl.enumerate_flags

    def first_points(ff, ell, dims):
        return itertools.islice(enumerate_flags(ff, ell, dims), 3)

    monkeypatch.setattr(ffl, "enumerate_flags", first_points)
    code, out = run_main("verify", "kind=A rank=3 nu=3,-1,-1,-1 q=3 m=3", "--record")
    assert code == cli.EXIT_OK
    assert out.splitlines()[0] == "points=3"
    assert cli.DEFAULT_BUDGET == 2 ** 16


def test_stdin_config(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("kind = A\nrank = 1\nnu = 1,-1\n")
    code, out = run_main("classify", str(cfg))
    assert code == 0
    assert "pi1 = pi1(Omega^(2)/k)" in out


def test_config_read_from_stdin(monkeypatch):
    # '-' reads the config from stdin, and inline tokens after it still apply
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO("kind = A\n# a comment\nrank = 1\n"))
    code, out = run_main("classify", "-", "nu=1,-1", "--record")
    assert code == cli.EXIT_OK
    assert out.splitlines()[:2] == ["pi1=pi1(Omega^(2)/k)", "factor=1"]
    assert sys.stdin.read() == ""


def test_unreadable_config_file(tmp_path, capsys):
    # a directory, or a file that is not UTF-8, is refused in one line like a
    # missing file
    latin = tmp_path / "job.cfg"
    latin.write_bytes(b"kind = A\nrank = 1\nnu = 1,-1  # \xff\n")
    # a directory path of 3,000 slashes is quoted short, as any long token is
    for path, reason in [(tmp_path, "Is a directory"),
                         (latin, "'utf-8' codec can't decode byte 0xff in position"),
                         ("/" * 3000, "Is a directory")]:
        assert run_main("classify", str(path)) == (cli.EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {shown(str(path))}: {reason}")
        assert err.count("\n") == 1 and err.endswith("\n") and len(err) < 200


@pytest.mark.parametrize("field", ["p=3", "e=2", "p=3 e=2"])
def test_field_keys_p_and_e_are_unknown(field, capsys):
    # q is the one field key: F_9 is q=9, never p=3 e=2
    assert run_main("verify", f"kind=A rank=1 nu=1,-1 m=1 {field}") == (cli.EXIT_USAGE, "")
    assert capsys.readouterr().err == f"parse error: line 1: unknown key '{field[0]}'\n"


def test_console_invocation():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "perioddomains.cli", "classify",
         "kind=A rank=1 nu=1,-1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "pi1 = pi1(Omega^(2)/k)" in proc.stdout

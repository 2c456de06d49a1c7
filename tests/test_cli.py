import subprocess
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perioddomains import cli
from perioddomains import rootdata as rd
from perioddomains.errors import ParseError, ValidationError


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


def test_roundtrip_parse_render():
    texts = [
        "command=classify kind=A rank=1 form=split t=1 nu=1,-1",
        "command=strata kind=G2 rank=2 nu=0,-1,1",
        "command=verify kind=A rank=2 nu=2,-1,-1 q=2 m=3 seed=7",
        "command=tables kind=F4 rank=4 output=record",
    ]
    for text in texts:
        job = cli.parse_jobspec(text)
        again = cli.parse_jobspec(cli.render_report(job))
        assert again == job


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


def test_exit_code_validation_error():
    code, _ = run_main("classify", "kind=A rank=2 nu=0,1,-1")
    assert code == 2
    code, _ = run_main("classify", "kind=Q rank=2 nu=1,-1")
    assert code == 2


def test_exit_code_budget():
    code, _ = run_main("strata", "kind=A rank=3 nu=3,1,-1,-3", "--budget-cells", "2")
    assert code == 3


@pytest.mark.parametrize("key", ["budget_cells", "budget_field"])
def test_negative_budget_rejected(key):
    with pytest.raises(ValidationError):
        cli.parse_jobspec(f"command=strata kind=A rank=3 nu=3,1,-1,-3 {key}=-1")
    flag = "--" + key.replace("_", "-")
    code, out = run_main("strata", "kind=A rank=3 nu=3,1,-1,-3", flag, "-1")
    assert code == cli.EXIT_VALIDATION and out == ""


def test_default_budget_refuses_e8_regular():
    # |W^P| = |W(E8)| = 696,729,600 must be refused before any enumeration
    rs = rd.build_root_system("E8", 8)
    rho = ",".join(str(sum(w[k] for w in rs.fundamental_coweights))
                   for k in range(rs.ambient_dim))
    start = time.perf_counter()
    code, out = run_main("strata", f"kind=E8 rank=8 nu={rho}")
    assert code == cli.EXIT_BUDGET and out == ""
    assert time.perf_counter() - start < 1.0


def test_stdin_config(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("kind = A\nrank = 1\nnu = 1,-1\n")
    code, out = run_main("classify", str(cfg))
    assert code == 0
    assert "pi1 = pi1(Omega^(2)/k)" in out


def test_console_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "perioddomains.cli", "classify",
         "kind=A rank=1 nu=1,-1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pi1 = pi1(Omega^(2)/k)" in proc.stdout


@given(st.integers(1, 3), st.integers(0, 3))
def test_roundtrip_property(rank, shift):
    nu = list(range(shift + rank, shift - 1, -1))
    # integer-friendly zero-sum: scale by the length to stay integral
    n = len(nu)
    nu = [x * n - sum(nu) for x in nu]
    text = f"command=classify kind=A rank={rank} nu=" + ",".join(str(x) for x in nu)
    job = cli.parse_jobspec(text)
    assert cli.parse_jobspec(cli.render_report(job)) == job

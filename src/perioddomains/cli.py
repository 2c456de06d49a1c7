"""Command-line front door: classify / strata / verify / tables.

Input is a line-oriented `key = value` config (hand-parsed, no external
config dependencies): vectors are comma-separated rationals `p/q`, tuples
are semicolon-separated vectors. A config may come from a file, stdin (`-`),
or inline `key=value` tokens on the command line. Output is deterministic:
each subcommand returns (key, value) lines, which `run_job` renders once, as
`key = value` or, with `--record`, `key=value`; `tables` returns text lines.
A warning prints once, as one `warning:` line on stderr. A rational longer
than str() prints (sys.get_int_max_str_digits()) is a parse error; a longer
result exits 2.

Budgets: `budget` (default 65536) is the one cap on counted work, checked
before the work starts. strata applies it to the orbit elements it visits,
the sum over copies and vertices of min(|W/W_{P_i}|, |W/W_P|). verify works
over F_{q^m}, with the prime power q the one field key, and takes split type
A with any t dividing m; a point is then a t-tuple of flags, one per copy.
verify checks that it has nu, split type A and q, then runs the job through
`finflag.survey`, whose docstring gives the checks it makes before it builds
the field, in order, and the two counts it holds to the budget. Every
command refuses a root system with more than 600 positive roots
(`rootdata.MAX_POSITIVE_ROOTS`; A34 has 595), or a restriction of scalars
of degree t whose t copies have more, before building it; t must be at
least 1.
A verify run that takes longer than two seconds reports its progress on
stderr. An unstable witness lists each copy's steps, copies joined by `;`.

Exit codes: 0 success, 1 usage/parse, 2 validation, 3 budget exceeded,
4 oracle disagreement (verify).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .classify import SIDE_FIRST, VERDICT_DRINFELD, classify
from .errors import (
    BudgetExceeded,
    NotDominant,
    ParseError,
    PeriodDomainError,
    ValidationError,
    check_budget,
    shown,
)
from .finflag import factor_prime_power, survey
from .rootdata import (
    FORM_SPLIT,
    MAX_POSITIVE_ROOTS,
    Vector,
    build_group,
    build_root_system,
    format_vector,
    relative_coweights,
)
from .strata import strata_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_DISAGREEMENT = 4

# the cap on counted work when budget is not given. strata admits E7 with a
# regular nu (17,642 orbit elements, a 0.2 s report) and A3 t=4 (56), and
# refuses E8 with a regular nu (881,760) before any orbit search; verify
# admits P^3 over F_27 (20,440 points, about 35 s on a 2-CPU Xeon with
# Python 3.11) and refuses the line-in-hyperplane flags of F_256^4 (about
# 1.1 * 10^12 points) before the first point.
DEFAULT_BUDGET = 2 ** 16

# verify reports `verify: <done>/<total> points` on stderr once a run has
# taken this long, and at most once per interval after that.
PROGRESS_INTERVAL_S = 2.0

_KNOWN_KEYS = {
    "command", "kind", "rank", "form", "t", "nu", "q", "m", "budget", "output",
}


@dataclass
class JobSpec:
    """One parsed job: what to run and on which data."""

    command: str
    kind: str
    rank: int
    form: str = FORM_SPLIT
    t: int = 1
    nu: tuple[Vector, ...] | None = None
    p: int | None = None  # q = p^e, derived from the q key
    e: int = 1
    m: int = 1
    budget: int = DEFAULT_BUDGET
    output: str = "text"


def _parse_fraction(token: str, line: int) -> Fraction:
    text = token.strip()
    try:
        if "e" in text or "E" in text:
            # Fraction would build 10^exponent, so its digits are read from the
            # text first; int() bounds the digits of a token without one
            mantissa, _, exponent = text.lower().partition("e")
            whole, _, decimals = mantissa.partition(".")
            shift = int(exponent) - len(decimals)
            digits = max(sum(map(str.isdigit, whole + decimals)) + shift, 1 - shift)
            if 0 < (limit := sys.get_int_max_str_digits()) < digits:
                raise ParseError(line, f"rational {shown(token)} has more than {limit} digits")
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line, f"bad rational {shown(token)}") from None


def _parse_vector(token: str, line: int) -> Vector:
    return tuple(_parse_fraction(x, line) for x in token.split(","))


def parse_jobspec(text: str) -> JobSpec:
    """Parse config text into a validated JobSpec."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split() if line.count("=") > 1 and " " in line else [line]
        for token in tokens:
            if "=" not in token:
                raise ParseError(lineno, f"expected key=value, got {shown(token)}")
            key, value = token.split("=", 1)
            key = key.strip().lower()
            if key not in _KNOWN_KEYS:
                raise ParseError(lineno, f"unknown key {shown(key)}")
            raw[key] = (value.strip(), lineno)

    def get(key, default=None):
        return raw[key][0] if key in raw else default

    def integer(key):
        value, line = raw[key]
        try:
            return int(value)
        except ValueError:
            raise ParseError(line, f"key {key}: bad integer {shown(value)}") from None

    command = get("command")
    if command is None:
        raise ParseError(0, "missing key 'command'")
    if command not in _RUNNERS:
        raise ValidationError(f"unknown command {shown(command)}")
    if "kind" not in raw:
        raise ParseError(0, "missing key 'kind'")
    if "rank" not in raw:
        raise ParseError(0, "missing key 'rank'")

    job = JobSpec(
        command=command,
        kind=get("kind").upper(),
        rank=integer("rank"),
        form=get("form", FORM_SPLIT).lower(),
        t=integer("t") if "t" in raw else 1,
        output=get("output", "text"),
    )
    if job.t < 1:
        raise ValidationError(f"t must be at least 1, got {shown(job.t)}")
    if job.output not in ("text", "record"):
        raise ValidationError(f"output must be text or record, got {shown(job.output)}")

    if "nu" in raw:
        text, line = raw["nu"]
        job.nu = tuple(_parse_vector(p, line) for p in text.split(";"))
        if len(job.nu) != job.t:
            raise ValidationError(
                f"nu has {len(job.nu)} factors but t={shown(job.t)}")
    if "q" in raw:
        job.p, job.e = factor_prime_power(integer("q"))
    if "m" in raw:
        job.m = integer("m")
    if "budget" in raw:
        job.budget = integer("budget")
        check_budget(job.budget)
    return job


def _kv(line: tuple, sep: str) -> str:
    key, value = line
    try:
        return f"{key}{sep}{value}"
    except ValueError:  # an integer longer than sys.get_int_max_str_digits()
        raise ValidationError(f"{key} has more digits than can be printed") from None


def _run_classify(job: JobSpec) -> tuple[int, list]:
    g = build_group(job.kind, job.rank, job.form, job.t)
    if job.nu is None:
        raise ValidationError("classify requires nu")
    cls = classify(g, job.nu)
    drinfeld = cls.verdict == VERDICT_DRINFELD
    lines = [("pi1", cls.pi1_label(job.t))]
    if drinfeld:
        lines += [("factor", cls.factor_index), ("side", cls.side)]
    lines.append(("codim_one", "true" if cls.codim_one else "false"))
    lines += cls.details.items()
    if cls.near_miss_factors:
        lines.append(("near_miss", ",".join(str(j) for j in cls.near_miss_factors)))
    if drinfeld:
        first = cls.side == SIDE_FIRST
        lines += [("projection_target", f"{'' if first else 'dual '}Omega^({cls.ell + 1})"),
                  ("step_subspace_dim", 1 if first else cls.ell)]
    return EXIT_OK, lines


def _run_strata(job: JobSpec) -> tuple[int, list]:
    g = build_group(job.kind, job.rank, job.form, job.t)
    if job.nu is None:
        raise ValidationError("strata requires nu")
    report = strata_report(g, job.nu, max_cells=job.budget)
    lines = [("dim_F", report.dim_f),
             ("dim_Y", "empty" if report.dim_y is None else report.dim_y),
             ("codim", "inf" if report.codim_y == math.inf else report.codim_y)]
    for s in report.per_vertex:
        lines += [(f"dim_Y_{s.index}", "empty" if s.dim is None else s.dim),
                  (f"cells_{s.index}", s.cell_count),
                  (f"witness_{s.index}", repr(s.witness) if s.witness else "-")]
    return EXIT_OK, lines


def _run_verify(job: JobSpec) -> tuple[int, list]:
    if job.nu is None:
        raise ValidationError("verify requires nu")
    if job.form != FORM_SPLIT or job.kind != "A":
        raise ValidationError("verify supports split type A")
    if job.p is None:
        raise ValidationError("verify requires a field (q, plus m)")
    points, verdicts = survey(job.p, job.e, job.m, job.rank, job.nu, job.budget)
    total = semistable = disagreements = 0
    witnesses: list[str] = []
    next_report = time.monotonic() + PROGRESS_INTERVAL_S
    for x, a, b in verdicts:
        total += 1
        now = time.monotonic()
        if now >= next_report:
            print(f"verify: {total}/{points} points", file=sys.stderr, flush=True)
            next_report = now + PROGRESS_INTERVAL_S
        if a:
            semistable += 1
        if a != b:
            disagreements += 1
        if not a and len(witnesses) < 3:
            witnesses.append(";".join("|".join(
                " ".join(",".join(str(v) for v in row) for row in step)
                for step in copy.bases) for copy in x))

    lines = [("points", total), ("semistable", semistable), ("unstable", total - semistable),
             ("disagreements", disagreements),
             ("agreement", "ok" if disagreements == 0 else "FAILED")]
    lines += ((f"unstable_witness_{k}", w) for k, w in enumerate(witnesses, start=1))
    return (EXIT_OK if disagreements == 0 else EXIT_DISAGREEMENT), lines


def _vec_text(v: Vector) -> str:
    return " ".join(str(x) for x in v)


def _run_tables(job: JobSpec) -> tuple[int, list]:
    rs = build_root_system(job.kind, job.rank)
    lines = ["# simple roots"]
    lines += [_vec_text(a) for a in rs.simple_roots]
    lines.append("# fundamental coweights")
    lines += [_vec_text(w) for w in rs.fundamental_coweights]
    lines.append("# gram simple roots")
    lines += [_vec_text(row) for row in rs.gram]
    lines.append("# gram coweights")
    lines += [_vec_text(row) for row in rs.coweight_gram]
    lines.append("# opposition")
    lines.append(" ".join(str(i) for i in rs.opposition))
    if job.form != FORM_SPLIT or job.t > 1:
        g = build_group(job.kind, job.rank, job.form, job.t)
        lines.append(f"# relative coweights (form={job.form}, t={job.t})")
        lines += [_vec_text(w) for w in relative_coweights(g)]
    return EXIT_OK, lines


_RUNNERS = {
    "classify": _run_classify,
    "strata": _run_strata,
    "verify": _run_verify,
    "tables": _run_tables,
}


def run_job(job: JobSpec) -> tuple[int, str]:
    """Run job; return its exit code and its output, one line per line the
    runner gives: a (key, value) pair in the job's format, or text as is.
    A NotDominant error names the pairings, and here also the job's nu."""
    try:
        code, lines = _RUNNERS[job.command](job)
    except NotDominant as exc:
        exc.args = (f"{exc}: {';'.join(map(format_vector, job.nu))}",)
        raise
    sep = "=" if job.output == "record" else " = "
    return code, "\n".join([line if isinstance(line, str) else _kv(line, sep)
                            for line in lines])


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="perioddomains", description=__doc__.splitlines()[0],
                     allow_abbrev=False,
                     epilog=f"A root system with more than {MAX_POSITIVE_ROOTS} positive "
                            "roots, counting every copy of a restriction of scalars, is "
                            "refused with exit code 3 before it is built. verify takes split "
                            "type A with t dividing m, and checks the field, the group, nu "
                            "and its budgets before it builds the field.")
    parser.add_argument("command", choices=tuple(_RUNNERS))
    parser.add_argument("config", nargs="*",
                        help="config file, '-' for stdin, or inline key=value tokens")
    parser.add_argument("--record", action="store_true",
                        help="machine-readable key=value output")
    parser.add_argument("--budget", type=int, default=None,
                        help="cap on counted work: strata's orbit elements, verify's flag "
                             f"points and rational subspaces per point (default {DEFAULT_BUDGET})")

    try:
        args = parser.parse_intermixed_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    pieces = []
    for item in args.config:
        if item == "-":
            pieces.append(sys.stdin.read())
        elif "=" not in item and os.path.exists(item):
            try:
                with open(item, encoding="utf-8") as handle:
                    pieces.append(handle.read())
            except (OSError, UnicodeDecodeError) as exc:
                reason = getattr(exc, "strerror", None) or exc
                print(f"error: cannot read config file {shown(item)}: {reason}",
                      file=sys.stderr)
                return EXIT_USAGE
        elif "=" in item:
            pieces.append(item)
        else:
            print(f"error: no such config file {shown(item)}", file=sys.stderr)
            return EXIT_USAGE
    pieces.append(f"command={args.command}")
    if args.record:
        pieces.append("output=record")
    if args.budget is not None:
        pieces.append(f"budget={args.budget}")

    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # whatever the filters, each warning is one line
        try:
            job = parse_jobspec("\n".join(pieces))
            code, text = run_job(job)
        except PeriodDomainError as exc:
            error = exc
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if error is not None:
        return report_error(error)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has closed stdout; point it at devnull so that the flush
        # at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def report_error(exc: PeriodDomainError) -> int:
    """Print the CLI's one-line message for exc on stderr; return its exit code."""
    if isinstance(exc, ParseError):
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(exc, ValidationError):
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if isinstance(exc, BudgetExceeded):
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door: classify / strata / verify / tables.

Input is a line-oriented `key = value` config (hand-parsed, no external
config dependencies): vectors are comma-separated rationals `p/q`, tuples
are semicolon-separated vectors. A config may come from a file, stdin (`-`),
or inline `key=value` tokens on the command line. Output is deterministic;
`--record` switches to machine-readable `key=value` lines. A warning prints
once, as one `warning:` line on stderr. A rational longer than str() prints
(sys.get_int_max_str_digits()) is a parse error; a longer result exits 2.

Budgets: `budget` (default 65536) is the one cap on counted work, checked
before the work starts. strata applies it to the orbit elements it visits,
the sum over copies and vertices of min(|W/W_{P_i}|, |W/W_P|). verify works
over F_{q^m}, with the prime power q the one field key, and takes split type
A with any t dividing m; a point is then a t-tuple of flags, one per copy,
and its rational subspaces are those of F_{q^t}^n. verify applies the
budget to the number of points (the product of the copies' flag counts) and
to the number sum_k [n, k]_{q^t} of rational subspaces (and translates)
tested per point, both from `finflag.checked_flag_count` once the rank
passes the root bound below. They, t | m, the shape of the input and the
field order bound 2^16 (`finflag.MAX_FIELD_ORDER`) are checked before the
field is built, and a q above that bound before it is factored. Every
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
import itertools
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .classify import (
    VERDICT_DRINFELD,
    Classification,
    classify,
    describe_ss_locus,
)
from .errors import (
    BudgetExceeded,
    ParseError,
    PeriodDomainError,
    ValidationError,
    shown,
)
from .finflag import (
    MAX_FIELD_ORDER,
    _prime_divisors,
    checked_field_order,
    checked_flag_count,
    enumerate_flags,
    finite_field,
    flag_dims,
    is_semistable_strata_test,
    is_semistable_subspace_test,
)
from .rootdata import (
    FORM_SPLIT,
    MAX_POSITIVE_ROOTS,
    GroupDatum,
    Vector,
    build_group,
    build_root_system,
    integer_pairings,
    relative_coweights,
    split_nu,
)
from .strata import StrataReport, strata_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_DISAGREEMENT = 4

_COMMANDS = ("classify", "strata", "verify", "tables")

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


def _parse_int(token: str, line: int, key: str) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise ParseError(line, f"key {key}: bad integer {shown(token)}") from None


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

    def lineof(key):
        return raw[key][1]

    command = get("command")
    if command is None:
        raise ParseError(0, "missing key 'command'")
    if command not in _COMMANDS:
        raise ValidationError(f"unknown command {shown(command)}")
    if "kind" not in raw:
        raise ParseError(0, "missing key 'kind'")
    if "rank" not in raw:
        raise ParseError(0, "missing key 'rank'")

    job = JobSpec(
        command=command,
        kind=get("kind").upper(),
        rank=_parse_int(get("rank"), lineof("rank"), "rank"),
        form=get("form", FORM_SPLIT).lower(),
        t=_parse_int(get("t"), lineof("t"), "t") if "t" in raw else 1,
        output=get("output", "text"),
    )
    if job.t < 1:
        raise ValidationError(f"t must be at least 1, got {shown(job.t)}")
    if job.output not in ("text", "record"):
        raise ValidationError(f"output must be text or record, got {shown(job.output)}")

    if "nu" in raw:
        parts = get("nu").split(";")
        job.nu = tuple(_parse_vector(p, lineof("nu")) for p in parts)
        if len(job.nu) != job.t:
            raise ValidationError(
                f"nu has {len(job.nu)} factors but t={shown(job.t)}")
    if "q" in raw:
        q = _parse_int(get("q"), lineof("q"), "q")
        if q > MAX_FIELD_ORDER:  # refused before it is factored
            raise BudgetExceeded(f"q = {shown(q)} exceeds the field order bound {MAX_FIELD_ORDER}")
        job.p, job.e = _factor_prime_power(q)
    if "m" in raw:
        job.m = _parse_int(get("m"), lineof("m"), "m")
    if "budget" in raw:
        job.budget = _parse_int(get("budget"), lineof("budget"), "budget")
        if job.budget < 0:
            raise ValidationError(f"budget must be nonnegative, got {shown(job.budget)}")
    return job


def _factor_prime_power(q: int) -> tuple[int, int]:
    primes = _prime_divisors(q)
    if len(primes) != 1:
        raise ValidationError("q must be a prime power" + ("" if primes else " >= 2"))
    e = 1
    while primes[0] ** e < q:
        e += 1
    return primes[0], e


def _kv(key: str, value, record: bool) -> str:
    try:
        return f"{key}={value}" if record else f"{key} = {value}"
    except ValueError:  # an integer longer than sys.get_int_max_str_digits()
        raise ValidationError(f"{key} has more digits than can be printed") from None


def _render_classification(cls: Classification, g: GroupDatum, job: JobSpec,
                           record: bool) -> str:
    lines = [_kv("pi1", cls.pi1_label(job.t), record)]
    if cls.verdict == VERDICT_DRINFELD:
        lines.append(_kv("factor", cls.factor_index, record))
        lines.append(_kv("side", cls.side, record))
    lines.append(_kv("codim_one", "true" if cls.codim_one else "false", record))
    for key, value in cls.details.items():
        lines.append(_kv(key, value, record))
    if cls.near_miss_factors:
        lines.append(_kv("near_miss",
                         ",".join(str(j) for j in cls.near_miss_factors), record))
    if cls.verdict == VERDICT_DRINFELD:
        desc = describe_ss_locus(g, job.nu, cls)
        target = f"Omega^({desc.ell + 1})" if desc.target == "omega" \
            else f"dual Omega^({desc.ell + 1})"
        lines.append(_kv("projection_target", target, record))
        lines.append(_kv("step_subspace_dim", desc.subspace_dim, record))
    return "\n".join(lines)


def _render_strata(report: StrataReport, record: bool) -> str:
    dim_y = "empty" if report.dim_y is None else report.dim_y
    codim = "inf" if report.codim_y == math.inf else report.codim_y
    lines = [
        _kv("dim_F", report.dim_f, record),
        _kv("dim_Y", dim_y, record),
        _kv("codim", codim, record),
    ]
    for s in report.per_vertex:
        lines.append(_kv(f"dim_Y_{s.index}", "empty" if s.dim is None else s.dim, record))
        lines.append(_kv(f"cells_{s.index}", s.cell_count, record))
        lines.append(_kv(f"witness_{s.index}", repr(s.witness) if s.witness else "-",
                         record))
    return "\n".join(lines)


def _run_classify(job: JobSpec, record: bool) -> tuple[int, str]:
    g = build_group(job.kind, job.rank, job.form, job.t)
    if job.nu is None:
        raise ValidationError("classify requires nu")
    cls = classify(g, job.nu)
    return EXIT_OK, _render_classification(cls, g, job, record)


def _run_strata(job: JobSpec, record: bool) -> tuple[int, str]:
    g = build_group(job.kind, job.rank, job.form, job.t)
    if job.nu is None:
        raise ValidationError("strata requires nu")
    report = strata_report(g, job.nu, max_cells=job.budget)
    return EXIT_OK, _render_strata(report, record)


def _run_verify(job: JobSpec, record: bool) -> tuple[int, str]:
    if job.nu is None:
        raise ValidationError("verify requires nu")
    if job.form != FORM_SPLIT or job.kind != "A":
        raise ValidationError("verify supports split type A")
    if job.p is None:
        raise ValidationError("verify requires a field (q, plus m)")
    # the field's own checks, t | m, the dims, the root bound on A_rank, the
    # point budget, the shape of the input and the subspace budget all run
    # before the field's tables are built, which takes up to a second at 2^16
    order = checked_field_order(job.p, job.e, job.m)
    if job.m % job.t:
        raise ValidationError(f"t={job.t} does not divide m={job.m}: no degree-t extension")
    dims = [flag_dims(nu) for nu in job.nu]
    points = math.prod(checked_flag_count(job.rank, d, order) for d in dims)
    if points > job.budget:
        raise BudgetExceeded(f"{shown(points)} flag points exceed budget {job.budget}")
    # checks (kind, rank) and len(nu); no verdict depends on nu's scale, and
    # integer entries keep the tests' per-nu memo keys cheap to hash
    g = build_group(job.kind, job.rank, job.form, job.t)
    nu = integer_pairings(g.base, split_nu(g, job.nu))[0]
    # both tests visit every subspace of F_{q^t}^n at every point
    subspaces = sum(checked_flag_count(job.rank, (k,), job.p ** (job.e * job.t))
                    for k in range(1, job.rank + 1))
    if subspaces > job.budget:
        raise BudgetExceeded(
            f"{shown(subspaces)} rational subspaces exceed budget {job.budget}")
    ff = finite_field(job.p, job.e, job.m)

    total = semistable = 0
    disagreements = 0
    witnesses: list[str] = []
    next_report = time.monotonic() + PROGRESS_INTERVAL_S
    # the first copy's points stream; the tuples of the others are listed once
    copies = [enumerate_flags(ff, job.rank, d) for d in dims]
    others = list(itertools.product(*copies[1:]))
    for x in ((first,) + rest for first in copies[0] for rest in others):
        a = is_semistable_subspace_test(x, nu, ff)
        b = is_semistable_strata_test(x, nu, ff)
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

    lines = [
        _kv("points", total, record),
        _kv("semistable", semistable, record),
        _kv("unstable", total - semistable, record),
        _kv("disagreements", disagreements, record),
        _kv("agreement", "ok" if disagreements == 0 else "FAILED", record),
    ]
    for k, w in enumerate(witnesses, start=1):
        lines.append(_kv(f"unstable_witness_{k}", w, record))
    code = EXIT_OK if disagreements == 0 else EXIT_DISAGREEMENT
    return code, "\n".join(lines)


def _vec_text(v: Vector) -> str:
    return " ".join(str(x) for x in v)


def _run_tables(job: JobSpec, record: bool) -> tuple[int, str]:
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
        lines += [_vec_text(rc.vector) for rc in relative_coweights(g)]
    return EXIT_OK, "\n".join(lines)


_RUNNERS = {
    "classify": _run_classify,
    "strata": _run_strata,
    "verify": _run_verify,
    "tables": _run_tables,
}


def run_job(job: JobSpec) -> tuple[int, str]:
    record = job.output == "record"
    return _RUNNERS[job.command](job, record)


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
                            "type A with t dividing m, and checks its field order, t | m, "
                            "flag points (the product over the t copies) and rational "
                            "subspaces before it builds the field.")
    parser.add_argument("command", choices=_COMMANDS)
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

"""Command-line front door: classify / strata / verify / tables.

Input is a line-oriented `key = value` config (hand-parsed, no external
config dependencies): vectors are comma-separated rationals `p/q`, tuples
are semicolon-separated vectors. A config may come from a file, stdin (`-`),
or inline `key=value` tokens on the command line. Output is deterministic;
`--record` switches to machine-readable `key=value` lines.

Exit codes: 0 success, 1 usage/parse, 2 validation, 3 budget exceeded,
4 oracle disagreement (verify).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
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
    IllegalType,
    MalformedNu,
    NotDominant,
    ParseError,
    PeriodDomainError,
    ValidationError,
)
from .finflag import (
    enumerate_flags,
    finite_field,
    flag_dims,
    is_semistable_strata_test,
    is_semistable_subspace_test,
)
from .rootdata import (
    FORM_SPLIT,
    Vector,
    build_group,
    build_root_system,
    inner_product,
    relative_coweights,
)
from .strata import StrataReport, strata_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_DISAGREEMENT = 4

_COMMANDS = ("classify", "strata", "verify", "tables")

# |W^P| limit for strata when budget_cells is not given. It admits E6 with a
# regular nu (51,840 cells, about 190 MB) and refuses E7 and E8 with a
# regular nu (2,903,040 and 696,729,600 cells) before any enumeration.
DEFAULT_BUDGET_CELLS = 2 ** 16

_KNOWN_KEYS = {
    "command", "kind", "rank", "form", "t", "nu", "q", "p", "e", "m",
    "dims", "seed", "budget_cells", "budget_field", "output",
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
    p: int | None = None
    e: int = 1
    m: int = 1
    dims: tuple[int, ...] | None = None
    seed: int = 0
    budget_cells: int | None = None
    budget_field: int | None = None
    output: str = "text"


def _parse_fraction(token: str, line: int) -> Fraction:
    try:
        return Fraction(token.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(line, f"bad rational {token!r}") from None


def _parse_int(token: str, line: int, key: str) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise ParseError(line, f"key {key}: bad integer {token!r}") from None


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
                raise ParseError(lineno, f"expected key=value, got {token!r}")
            key, value = token.split("=", 1)
            key = key.strip().lower()
            if key not in _KNOWN_KEYS:
                raise ParseError(lineno, f"unknown key {key!r}")
            raw[key] = (value.strip(), lineno)

    def get(key, default=None):
        return raw[key][0] if key in raw else default

    def lineof(key):
        return raw[key][1]

    command = get("command")
    if command is None:
        raise ParseError(0, "missing key 'command'")
    if command not in _COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
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
        seed=_parse_int(get("seed"), lineof("seed"), "seed") if "seed" in raw else 0,
        output=get("output", "text"),
    )
    if job.output not in ("text", "record"):
        raise ValidationError(f"output must be text or record, got {job.output!r}")

    if "nu" in raw:
        parts = get("nu").split(";")
        job.nu = tuple(_parse_vector(p, lineof("nu")) for p in parts)
        if len(job.nu) != job.t:
            raise ValidationError(
                f"nu has {len(job.nu)} factors but t={job.t}")
    if "q" in raw:
        q = _parse_int(get("q"), lineof("q"), "q")
        p, e = _factor_prime_power(q)
        job.p, job.e = p, e
    if "p" in raw:
        job.p = _parse_int(get("p"), lineof("p"), "p")
    if "e" in raw:
        job.e = _parse_int(get("e"), lineof("e"), "e")
    if "m" in raw:
        job.m = _parse_int(get("m"), lineof("m"), "m")
    if "dims" in raw:
        job.dims = tuple(_parse_int(x, lineof("dims"), "dims")
                         for x in get("dims").split(","))
    for key in ("budget_cells", "budget_field"):
        if key in raw:
            budget = _parse_int(get(key), lineof(key), key)
            if budget < 0:
                raise ValidationError(f"{key} must be nonnegative, got {budget}")
            setattr(job, key, budget)
    return job


def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            if q != 1:
                raise ValidationError("q must be a prime power")
            return p, e
    raise ValidationError("q must be a prime power >= 2")


def render_jobspec(job: JobSpec) -> str:
    """Canonical config text; parse(render(parse(x))) == parse(x)."""
    lines = [
        f"command = {job.command}",
        f"kind = {job.kind}",
        f"rank = {job.rank}",
        f"form = {job.form}",
        f"t = {job.t}",
    ]
    if job.nu is not None:
        lines.append("nu = " + ";".join(",".join(str(x) for x in v) for v in job.nu))
    if job.p is not None:
        lines.append(f"p = {job.p}")
        lines.append(f"e = {job.e}")
        lines.append(f"m = {job.m}")
    if job.dims is not None:
        lines.append("dims = " + ",".join(str(d) for d in job.dims))
    lines.append(f"seed = {job.seed}")
    if job.budget_cells is not None:
        lines.append(f"budget_cells = {job.budget_cells}")
    if job.budget_field is not None:
        lines.append(f"budget_field = {job.budget_field}")
    lines.append(f"output = {job.output}")
    return "\n".join(lines) + "\n"


def _kv(key: str, value, record: bool) -> str:
    return f"{key}={value}" if record else f"{key} = {value}"


def _render_classification(cls: Classification, job: JobSpec, record: bool) -> str:
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
        desc = describe_ss_locus(build_group(job.kind, job.rank, job.form, job.t),
                                 job.nu)
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


def render_report(result, record: bool = False, job: JobSpec | None = None) -> str:
    """Deterministic text for any result object this package produces."""
    if isinstance(result, JobSpec):
        return render_jobspec(result)
    if isinstance(result, Classification):
        return _render_classification(result, job, record)
    if isinstance(result, StrataReport):
        return _render_strata(result, record)
    raise TypeError(f"cannot render {type(result).__name__}")


def _run_classify(job: JobSpec, record: bool) -> tuple[int, str]:
    g = build_group(job.kind, job.rank, job.form, job.t)
    if job.nu is None:
        raise ValidationError("classify requires nu")
    cls = classify(g, job.nu)
    return EXIT_OK, _render_classification(cls, job, record)


def _run_strata(job: JobSpec, record: bool) -> tuple[int, str]:
    g = build_group(job.kind, job.rank, job.form, job.t)
    if job.nu is None:
        raise ValidationError("strata requires nu")
    budget = DEFAULT_BUDGET_CELLS if job.budget_cells is None else job.budget_cells
    report = strata_report(g, job.nu, max_cells=budget)
    return EXIT_OK, _render_strata(report, record)


def _run_verify(job: JobSpec, record: bool) -> tuple[int, str]:
    if job.nu is None:
        raise ValidationError("verify requires nu")
    if job.t != 1 or job.form != FORM_SPLIT or job.kind != "A":
        raise ValidationError("verify supports split type A with t=1")
    if job.p is None:
        raise ValidationError("verify requires a field (q or p/e, plus m)")
    ff = finite_field(job.p, job.e, job.m)
    nu = job.nu[0]
    dims = flag_dims(nu)
    if job.dims is not None and job.dims != dims:
        raise ValidationError(f"dims {job.dims} do not match nu steps {dims}")

    total = semistable = 0
    disagreements = 0
    witnesses: list[str] = []
    for x in enumerate_flags(ff, job.rank, dims, max_points=job.budget_field):
        a = is_semistable_subspace_test(x, nu, ff, max_subspaces=job.budget_field)
        b = is_semistable_strata_test(x, nu, ff, max_translates=job.budget_field)
        total += 1
        if a:
            semistable += 1
        if a != b:
            disagreements += 1
        if not a and len(witnesses) < 3:
            witnesses.append("|".join(
                " ".join(",".join(str(v) for v in row) for row in step)
                for step in x.bases))

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
    lines += [_vec_text(row) for row in rs.cartan_pairings]
    lines.append("# gram coweights")
    lines += [_vec_text(tuple(inner_product(a, b) for b in rs.fundamental_coweights))
              for a in rs.fundamental_coweights]
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
    parser = _Parser(prog="perioddomains", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("config", nargs="*",
                        help="config file, '-' for stdin, or inline key=value tokens")
    parser.add_argument("--record", action="store_true",
                        help="machine-readable key=value output")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--budget-cells", type=int, default=None)
    parser.add_argument("--budget-field", type=int, default=None)

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
            with open(item, encoding="utf-8") as handle:
                pieces.append(handle.read())
        elif "=" in item:
            pieces.append(item)
        else:
            print(f"error: no such config file {item!r}", file=sys.stderr)
            return EXIT_USAGE
    pieces.append(f"command={args.command}")
    if args.record:
        pieces.append("output=record")
    if args.seed is not None:
        pieces.append(f"seed={args.seed}")
    if args.budget_cells is not None:
        pieces.append(f"budget_cells={args.budget_cells}")
    if args.budget_field is not None:
        pieces.append(f"budget_field={args.budget_field}")

    try:
        job = parse_jobspec("\n".join(pieces))
        code, text = run_job(job)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, MalformedNu, IllegalType, NotDominant) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PeriodDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

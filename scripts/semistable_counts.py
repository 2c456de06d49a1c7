#!/usr/bin/env python3
"""Tabulate semistable point counts of a type-A period domain over growing
field extensions, cross-checking the two finite-field semistability tests.

Each row is one `perioddomains verify` job, so the input is validated as the
CLI validates it (a q that is not a prime power exits 2).

Example:
    python scripts/semistable_counts.py --q 2 --max-m 3 --nu 2,-1,-1
"""

import argparse
import sys

from perioddomains import cli
from perioddomains.errors import PeriodDomainError
from perioddomains.finflag import flag_dims


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q", type=int, default=2, help="base field size (prime power)")
    parser.add_argument("--max-m", type=int, default=3, help="largest extension degree")
    parser.add_argument("--nu", default="1,-1",
                        help="sorted sum-zero cocharacter, comma-separated rationals")
    args = parser.parse_args(argv)
    if args.max_m < 1:
        parser.error("--max-m must be at least 1")

    rank = len(args.nu.split(",")) - 1
    try:
        jobs = [cli.parse_jobspec(f"command=verify kind=A rank={rank} nu={args.nu} "
                                  f"q={args.q} m={m} output=record")
                for m in range(1, args.max_m + 1)]
        dims = flag_dims(jobs[0].nu[0])
        print(f"nu = {args.nu}   flag steps = {dims}   base field F_{args.q}")
        print(f"{'m':>3s} {'points':>8s} {'semistable':>11s} {'agree':>6s}")
        disagreements = 0
        for job in jobs:
            _, text = cli.run_job(job)
            result = dict(line.split("=", 1) for line in text.splitlines())
            bad = int(result["disagreements"])
            disagreements += bad
            flag = "ok" if bad == 0 else f"{bad} BAD"
            print(f"{job.m:3d} {result['points']:>8s} {result['semistable']:>11s} {flag:>6s}")
    except PeriodDomainError as exc:
        return cli.report_error(exc)
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())

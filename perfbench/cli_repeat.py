"""cli_repeat: rescaled config texts through cli.parse_jobspec and cli.run_job."""

from __future__ import annotations

import random
from fractions import Fraction as F
from functools import partial

from perioddomains import cli
from perioddomains import rootdata as rd


# Maximal-parabolic cocharacters c * omega_i whose Levi is large and whose
# |W^P| is small (8 to 2160), so a warm report is cheap next to a cold one.
# Each (configuration, command) job has its own narrow latency band. With an
# even number of jobs op_p50_ms fell on the boundary between two bands 25%
# apart and jumped between seeds; with an odd number it falls inside one.
CLI_CONFIGS = (("E6", 6, 1), ("E6", 6, 6), ("E7", 7, 1), ("E7", 7, 7),
               ("E8", 8, 1), ("E8", 8, 8), ("F4", 4, 1), ("F4", 4, 4),
               ("A", 7, 1), ("A", 7, 2), ("A", 7, 4))
CLI_COMMANDS = ("classify", "strata", "tables")
# classify record keys whose values do not scale with nu
_VERDICT_KEYS = ("pi1", "factor", "side", "codim_one", "near_miss",
                 "projection_target", "step_subspace_dim")
CLI_BLOCKS = {"full": 40, "tiny": 10}


def _config_text(command: str, kind: str, rank: int, nu) -> str:
    return (f"command = {command}\nkind = {kind}\nrank = {rank}\n"
            f"nu = {','.join(str(x) for x in nu)}\noutput = record\n")


def _comparable(command: str, text: str):
    """The part of a record output that must not change with the scale of nu."""
    if command != "classify":
        return text
    fields = dict(line.split("=", 1) for line in text.splitlines())
    return {k: fields.get(k) for k in _VERDICT_KEYS}


class CliRepeat:
    """cli.parse_jobspec then cli.run_job on a seeded stream of config texts,
    in blocks that hold every (configuration, command) once.

    Set-up runs every (configuration, command) once at scale 1; those runs
    warm the coset tables and give the references that every later,
    rescaled op must reproduce.
    """

    def __init__(self, seed: int, size: str, tr):
        configs = CLI_CONFIGS if size == "full" else CLI_CONFIGS[-4:]
        self.jobs = []
        self.reference = {}
        for kind, rank, i in configs:
            with tr.span("rootdata.build_group"):
                g = rd.build_group(kind, rank)
            omega = g.base.fundamental_coweights[i - 1]
            label = f"{kind}{rank if kind == 'A' else ''} omega_{i}"
            for command in CLI_COMMANDS:
                _, out = cli.run_job(cli.parse_jobspec(
                    _config_text(command, kind, rank, omega)))
                self.reference[(label, command)] = _comparable(command, out)
                self.jobs.append((label, kind, rank, omega, command))
        self.seed = seed
        self.blocks = CLI_BLOCKS[size]

    def ops(self, tr):
        rng = random.Random(self.seed)
        jobs = list(self.jobs)
        for _ in range(self.blocks):
            rng.shuffle(jobs)
            for label, kind, rank, omega, command in jobs:
                c = F(rng.randint(1, 12), rng.randint(1, 12))
                text = _config_text(command, kind, rank, tuple(c * x for x in omega))
                yield (f"{label} {command}", partial(self._call, tr, text, command),
                       partial(self._check, command, self.reference[(label, command)]))

    @staticmethod
    def _call(tr, text, command):
        with tr.span("cli.parse_jobspec"):
            job = cli.parse_jobspec(text)
        with tr.span("cli.run_job", command=command):
            return cli.run_job(job)

    @staticmethod
    def _check(command, expected, value):
        code, out = value
        return int(code != cli.EXIT_OK or _comparable(command, out) != expected), out

    def finish(self) -> int:
        return 0

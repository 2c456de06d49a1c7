"""The CLI's committed transcript: every entry of cli_transcript.json is one
argv with the exit code, stdout and stderr that `cli.main` gives it.

An entry is run in-process, with progress lines off, so the transcript holds
no timing. To add an input, append `{"argv": [...]}` to the file; to rewrite
every entry's outputs from its argv, run

    PYTHONPATH=src python tests/test_cli_transcript.py

A change that alters an entry lists the input in CHANGES.md.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from perioddomains import cli

TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")


def replay(argv):
    """The entry that `cli.main(argv)` gives, with no progress lines."""
    out, err = io.StringIO(), io.StringIO()
    interval, cli.PROGRESS_INTERVAL_S = cli.PROGRESS_INTERVAL_S, math.inf
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        cli.PROGRESS_INTERVAL_S = interval
    return {"argv": list(argv), "code": code,
            "stdout": out.getvalue().splitlines(keepends=True),
            "stderr": err.getvalue().splitlines(keepends=True)}


def _entries():
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


def test_cli_matches_the_transcript():
    entries = _entries()
    assert {e["code"] for e in entries} == {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_VALIDATION,
                                            cli.EXIT_BUDGET}
    prefixes = ("parse error: ", "validation error: ", "budget exceeded: ", "error: ",
                "warning: ")
    assert all(any(line.startswith(p) for e in entries for line in e["stderr"])
               for p in prefixes)
    assert [e["argv"] for e in entries if replay(e["argv"]) != e] == []


def test_record_and_text_carry_the_same_lines():
    # for each classify, strata and verify entry whose format the flag sets,
    # the run in the other format gives the same lines, `key = value` in text
    # and `key=value` in a record
    for e in _entries():
        if e["argv"][0] not in ("classify", "strata", "verify") or \
                any("output=" in a for a in e["argv"]):
            continue
        record = "--record" in e["argv"]
        other = replay([a for a in e["argv"] if a != "--record"] if record
                       else e["argv"] + ["--record"])
        text, rec = (other, e) if record else (e, other)
        assert (rec["code"], rec["stderr"]) == (text["code"], text["stderr"]), e["argv"]
        assert "".join(rec["stdout"]) == "".join(text["stdout"]).replace(" = ", "="), e["argv"]


if __name__ == "__main__":
    entries = [replay(e["argv"]) for e in _entries()]
    TRANSCRIPT.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n",
                          encoding="utf-8")
    print(f"{len(entries)} entries written to {TRANSCRIPT}")

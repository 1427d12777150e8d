"""SHA-256 digests of a fixed set of CLI outputs, each run in-process.

    PYTHONPATH=src python3 tools/cli_digests.py

Run from the root of a checkout.  Writes ``tests/data/cli_digests.json``,
which ``tests/test_outputs.py`` checks, so run it only when a change to an
output is intended.  The set:

* ``verify --suite all --json``;
* ``series tnc m --terms 60`` for m = 2..16;
* ``series tg|kb m --p p --terms 25`` for m = 2..9 and every twist p;
* ``digraph m --kind full|reduced|glued --stats --json`` for m = 1..10;
* ``digraph m --kind full --stats --json`` for m = 11, 12 and
  ``digraph m --kind reduced --stats --json`` for m = 11..13;
* ``count tnc 13 --n 2000``;
* ``digraph m --kind glued --dump`` for m = 2..16;
* ``series tg 10 --p 1 --terms 10`` and ``series kb 11 --p 2 --terms 6``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

from gridcycles import cli

OUT = "tests/data/cli_digests.json"
RUNS = (
    ["verify --suite all --json"]
    + [f"series tnc {m} --terms 60" for m in range(2, 17)]
    + [
        f"series {family} {m} --p {p} --terms 25"
        for m in range(2, 10)
        for family in ("tg", "kb")
        for p in range(m)
    ]
    + [
        f"digraph {m} --kind {kind} --stats --json"
        for m in range(2, 11)
        for kind in ("full", "reduced", "glued")
    ]
    + [f"digraph 1 --kind {kind} --stats --json" for kind in ("full", "reduced", "glued")]
    + [f"digraph {m} --kind full --stats --json" for m in (11, 12)]
    + [f"digraph {m} --kind reduced --stats --json" for m in (11, 12, 13)]
    + ["count tnc 13 --n 2000"]
    + [f"digraph {m} --kind glued --dump" for m in range(2, 17)]
    + ["series tg 10 --p 1 --terms 10", "series kb 11 --p 2 --terms 6"]
)


def digest(command: str) -> str:
    """The SHA-256 of what ``gridcycles <command>`` prints; a non-zero exit
    status raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(command.split())
    if status != 0:
        raise RuntimeError(f"gridcycles {command} exited with status {status}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> None:
    doc = {
        "_comment": "SHA-256 of the standard output of each gridcycles command, run "
        "in-process; checked by tests/test_outputs.py.",
        "command": "PYTHONPATH=src python3 tools/cli_digests.py",
        "digests": {command: digest(command) for command in RUNS},
    }
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Golden CLI outputs: each command in ``data/cli_digests.json`` prints
exactly what it printed when the file was written by
``tools/cli_digests.py``, down to the byte."""

import hashlib
import json
from pathlib import Path

import pytest

from gridcycles import cli

DIGESTS = json.loads((Path(__file__).parent / "data" / "cli_digests.json").read_text())["digests"]


@pytest.mark.parametrize("command", DIGESTS)
def test_cli_output_is_unchanged(capsys, command):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]

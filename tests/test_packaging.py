import importlib
import re
import sys
from pathlib import Path

import pytest

from gridcycles import oracle, transfer

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_declared_dependencies_import():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert deps
    for dep in deps:
        name = re.match(r"[A-Za-z0-9_.-]+", dep).group(0)
        importlib.import_module(name.replace("-", "_"))


def test_readme_limits_match_constants():
    # the README's limits table, row by row: the rows of transfer.LIMITS, then the oracle's cap
    text = (ROOT / "README.md").read_text()
    table = text.split("## Practical limits", 1)[1].split("\n\n")[2]
    rows = []
    for line in table.splitlines()[2:]:
        route, limit, _ = [cell.strip() for cell in line.strip("|").split("|")]
        rows.append((route, int(re.search(r"\d+", limit).group(0))))
    expected = [(name, limit) for limit, name in transfer.LIMITS.values()]
    assert rows == expected + [("brute-force oracle", oracle.MAX_EDGES)]


def test_readme_layout_lists_every_module():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Layout", 1)[1].split("```")[1]
    listed = set(re.findall(r"^  (\w+\.py) ", block, flags=re.MULTILINE))
    modules = {
        p.name for p in (ROOT / "src" / "gridcycles").glob("*.py") if not p.name.startswith("__")
    }
    assert listed == modules

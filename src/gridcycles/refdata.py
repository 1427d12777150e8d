"""Loader for the reference dataset shipped with the package.

``data/tables.json`` holds curated digraph sizes, component censuses,
recurrence orders and spectral constants; ``data/series/*.bfile`` hold the
known exact count series (one ``n value`` line per term, n = 1..25) for
thin cylinders of width 2..7 and tori / Klein bottles of width 2..5.

The verification harness treats these as ground truth, so loading is
strict: a missing or malformed file raises instead of skipping checks.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from importlib.resources import files

_SERIES_NAME = re.compile(r"(tnc|tg|kb)_m(\d+)_p(\d+)\.bfile")


class RefDataError(RuntimeError):
    """The shipped reference dataset is missing or malformed."""


def _data_root():
    return files("gridcycles") / "data"


@lru_cache(maxsize=1)
def tables() -> dict:
    """The curated reference tables, parsed and type-checked."""
    path = _data_root() / "tables.json"
    try:
        raw = path.read_text()
    except OSError as exc:
        raise RefDataError(f"reference tables missing: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise RefDataError(f"reference tables malformed: {exc}") from exc
    for key in (
        "lucas",
        "full_vertices",
        "full_zero_component",
        "reduced_zero_component",
        "glued_vertices",
        "reduced_components",
        "orders_tnc",
        "orders_tg",
        "orders_kb",
        "theta",
        "amplitude_tnc",
    ):
        if key not in data:
            raise RefDataError(f"reference tables lack section {key!r}")
    return data


@lru_cache(maxsize=1)
def series_keys() -> tuple[tuple[str, int, int], ...]:
    """All (family, m, p) triples with a shipped reference series.  Each
    file name must be exactly ``<family>_m<m>_p<p>.bfile``, and no two files
    may name one triple: only the file spelled as :func:`reference_series`
    spells it would ever be read."""
    keys = []
    for entry in (_data_root() / "series").iterdir():
        match = _SERIES_NAME.fullmatch(entry.name)
        if not match:
            raise RefDataError(f"unexpected file in series data: {entry.name}")
        key = (match.group(1), int(match.group(2)), int(match.group(3)))
        if key in keys:
            raise RefDataError(f"two files in series data name {key}: {entry.name}")
        keys.append(key)
    if not keys:
        raise RefDataError("no reference series found")
    return tuple(sorted(keys))


@lru_cache(maxsize=None)
def reference_series(family: str, m: int, p: int = 0) -> tuple[int, ...]:
    """The shipped exact reference counts for n = 1..25."""
    path = _data_root() / "series" / f"{family}_m{m}_p{p}.bfile"
    try:
        text = path.read_text()
    except OSError as exc:
        raise RefDataError(f"reference series {family} m={m} p={p} missing") from exc
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if len(parts) != 2 or int(parts[0]) != lineno:
            raise RefDataError(f"malformed line {lineno} in {path}")
        values.append(int(parts[1]))
    if len(values) != 25:
        raise RefDataError(f"{path} holds {len(values)} terms, expected 25")
    return tuple(values)

"""Certified minimal recurrence orders past the shipped tables.

    PYTHONPATH=src python3 tools/derive_orders.py

Run from the root of a clean checkout.  Each order comes from the
production engine's certificate (:func:`gridcycles.recurrence.order_report`).
Writes ``src/gridcycles/data/derived_orders.json`` with this command and the
tree it ran at, named by ``git describe --always --dirty`` (so a modified
tree reads ``<commit>-dirty``); the wall time of each width goes to standard
error.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from gridcycles import recurrence

OUT = "src/gridcycles/data/derived_orders.json"
TNC_WIDTHS = (15, 16, 17, 18)
TG_KB_WIDTHS = (6, 7, 8, 9, 10)


def main() -> None:
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty"], capture_output=True, text=True, check=True
    ).stdout.strip()
    doc = {
        "_comment": "Certified minimal recurrence orders past tables.json: the thin "
        "cylinder at m = 15..18, and every twist p = 0..m-1 of the torus and the Klein "
        "bottle at m = 6..10.",
        "provenance": {"command": "PYTHONPATH=src python3 tools/derive_orders.py", "commit": commit},
        "orders_tnc": {},
        "orders_tg": {},
        "orders_kb": {},
    }
    for m in TNC_WIDTHS:
        start = time.perf_counter()
        doc["orders_tnc"][str(m)] = recurrence.order_report("tnc", m)
        print(f"tnc m={m}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    for m in TG_KB_WIDTHS:
        start = time.perf_counter()
        for family in ("tg", "kb"):
            doc[f"orders_{family}"][str(m)] = [recurrence.order_report(family, m, p) for p in range(m)]
        print(f"tg/kb m={m}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

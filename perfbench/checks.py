"""Correctness checks of one benchmark run.

Every check compares the program's outputs with a value computed apart
from the timed code path (brute-force oracle, full-digraph route, numpy's
eigensolver, closed forms expanded here, the shipped reference tables) or
with a property the method must have.  Nothing is compared with a saved
copy of earlier output.

``check(workload, prm, outputs, refs)`` returns a list of failures, each
``(check_id, message)``; an empty list means every check passed.  Pure
standard library, so the self-test runs without the program.
"""

from __future__ import annotations

from fractions import Fraction

import workloads as w

# Published closed-form generating functions of the thin-cylinder counts,
# numerator and denominator by ascending degree.
TNC_CLOSED_FORMS = {
    2: ([0, 1, 3], [1, -2, -3]),
    3: ([0, 1, 1], [1, -3, -1]),
    4: ([0, 1, 3, -4], [1, -6, -3, 4]),
}

THETA_TOL = 1e-9
AMPLITUDE_TOL = 1e-9
RATIO_REL_TOL = {w.CYL_REDUCED_M: 1e-3, w.CYL_GLUED_M: 1e-6}


def closed_form_term(num: list[int], den: list[int], n: int) -> int:
    """Coefficient of x^n in num/den (den[0] == 1), by the recurrence the
    denominator gives, keeping only the last len(den) - 1 terms."""
    d = len(den) - 1
    window = [0] * d  # c_{k-1}, c_{k-2}, ..., c_{k-d}
    c = 0
    for k in range(n + 1):
        c = (num[k] if k < len(num) else 0) - sum(
            den[j] * window[j - 1] for j in range(1, d + 1)
        )
        window = [c] + window[:-1]
    return c


def _ints(hexes) -> list[int]:
    return [int(h, 16) for h in hexes]


def _torus_klein(prm, out, refs):
    fails = []
    series = {}
    for m, terms in w.TORUS_TERMS.items():
        for family in ("tg", "kb"):
            for p in range(m):
                name = f"series {family} m={m} p={p}"
                values = _ints(out.get(name, []))
                if len(values) != terms:
                    fails.append(("complete", f"{name}: {len(values)} terms, expected {terms}"))
                series[family, m, p] = values
    for family, m, p, n, value in refs["oracle"]:
        got = series.get((family, m, p), [])
        if len(got) < n or got[n - 1] != int(value, 16):
            fails.append(("oracle", f"{family} m={m} p={p} n={n} disagrees with count_grid"))
    for m in w.TORUS_TERMS:
        for p in range(1, m):
            if series["tg", m, p] != series["tg", m, m - p]:
                fails.append(("reflection", f"tg m={m}: p={p} and p={m - p} differ"))
    for family, m, p, values in refs["full"]:
        full = _ints(values)
        if series[family, m, p][: len(full)] != full:
            fails.append(("full", f"{family} m={m} p={p}: reduced and full routes differ"))
    return fails


def _ratio_approach(values: list[int], theta: float, rel_tol: float):
    """Successive ratios approach theta: the last is within rel_tol and
    closer than the one half-way along.  int / int stays exact past 1e308."""
    if len(values) < 4:
        return "too few terms"
    last = abs(values[-1] / values[-2] - theta)
    half = len(values) // 2
    mid = abs(values[half] / values[half - 1] - theta)
    if last > mid or last > rel_tol * theta:
        return f"|ratio - theta| {last:.3e} at n={len(values)}, {mid:.3e} at n={half + 1}"
    return None


def _cylinder(prm, out, refs):
    fails = []
    tab = refs["tables"]
    reduced = _ints(out.get(f"series tnc m={w.CYL_REDUCED_M}", []))
    glued = _ints(out.get(f"series tnc m={w.CYL_GLUED_M} glued", []))
    frontier = {w.CYL_REDUCED_M: reduced, w.CYL_GLUED_M: glued}
    for m, n, value in refs["oracle"]:
        got = frontier[m]
        if len(got) < n or got[n - 1] != int(value, 16):
            fails.append(("oracle", f"tnc m={m} n={n} disagrees with count_grid"))
    for m, values in frontier.items():
        problem = _ratio_approach(values, float(tab["theta"][str(m)]), RATIO_REL_TOL[m])
        if problem:
            fails.append(("ratios", f"m={m}: {problem}"))

    for m, n in prm["long"].items():
        name = f"count_tnc m={m}"
        num, den = TNC_CLOSED_FORMS[m]
        if name not in out or int(out[name], 16) != closed_form_term(num, den, n):
            fails.append(("closed_form", f"{name} n={n} disagrees with its generating function"))

    expected_order = tab["orders_tnc"][str(w.CYL_ORDER_M)]
    order = out.get(f"order_report m={w.CYL_ORDER_M}")
    if order != expected_order:
        fails.append(("order", f"order_report m={w.CYL_ORDER_M} = {order}, tables say {expected_order}"))
    coeffs = [Fraction(c) for c in out.get(f"minimal_recurrence m={w.CYL_ORDER_M}", [])]
    values = _ints(out.get(f"series tnc m={w.CYL_ORDER_M}", []))
    if len(coeffs) != expected_order or len(values) != w.CYL_EXTEND_TERMS:
        fails.append(("fit", f"fit of order {len(coeffs)} on {len(values)} terms"))
    else:
        for i in range(w.CYL_FIT_TERMS, len(values)):
            if values[i] != sum(c * values[i - 1 - k] for k, c in enumerate(coeffs)):
                fails.append(("fit", f"recurrence misses term n={i + 1} beyond its fit window"))
                break

    m = w.CYL_SPECTRUM_M
    theta = out.get(f"spectrum m={m}")
    eig = refs["eigvalsh"]
    if (
        theta is None
        or not eig["symmetric"]
        or abs(theta - float(tab["theta"][str(m)])) > THETA_TOL
        or abs(theta - eig["theta"]) > THETA_TOL
    ):
        fails.append(("theta", f"m={m}: {theta} vs tables {tab['theta'][str(m)]}, eigvalsh {eig['theta']}"))

    gm = refs["glued_vertices"]["m"]
    if refs["glued_vertices"]["count"] != tab["glued_vertices"][str(gm)]:
        fails.append(("glued_vertices", f"m={gm}: {refs['glued_vertices']['count']} vertices"))
    rm = refs["reduced_total"]["m"]
    if refs["reduced_total"]["total"] != 3**rm + (-1) ** rm:
        fails.append(("reduced_total", f"m={rm}: entries sum to {refs['reduced_total']['total']}"))

    am = w.CYL_AMPLITUDE_M
    expected = float(tab["amplitude_tnc"][str(am)])
    for name in (f"amplitude m={am}", f"amplitude overflow m={am}"):
        # the overflow case fails today and is counted as failed; once it
        # returns, its value is checked like the other
        if name in out and abs(out[name] - expected) > AMPLITUDE_TOL:
            fails.append(("amplitude", f"{name} = {out[name]}, tables say {expected}"))
    if f"amplitude m={am}" not in out:
        fails.append(("amplitude", f"amplitude m={am} missing"))
    return fails


def _verify_all(prm, out, refs):
    fails = []
    result = out.get("verify all")
    if result is None:
        return [("exit", "verify did not return")]
    report = result["report"]
    if result["exit"] != 0:
        fails.append(("exit", f"exit status {result['exit']}"))
    bad = [c["name"] for c in report["checks"] if c["status"] != "pass"]
    if report["failed"] != 0 or bad:
        fails.append(("failed", f"{report['failed']} failed: {bad[:5]}"))
    if report["total"] != len(report["checks"]):
        fails.append(("total", f"total {report['total']} but {len(report['checks'])} checks listed"))
    return fails


_CHECKS = {"torus-klein": _torus_klein, "cylinder": _cylinder, "verify-all": _verify_all}


def check(workload: str, prm: dict, outputs: dict, refs: dict) -> list[tuple[str, str]]:
    return _CHECKS[workload](prm, outputs, refs)


def tally(workload: str, ops: list[dict], outputs: dict) -> tuple[int, int]:
    """(attempted, failed) of one round.  verify-all counts each of its
    checks as an operation; the other workloads count program calls."""
    if workload == "verify-all" and "verify all" in outputs:
        report = outputs["verify all"]["report"]
        return report["total"], report["failed"]
    return len(ops), sum(not op["ok"] for op in ops)

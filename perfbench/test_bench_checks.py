"""Self-test of the benchmark: consistent synthetic outputs pass the
checker, one perturbed value makes each check fail, and the tracer's
accounting holds.

    python3 -m pytest -q perfbench/test_bench_checks.py
"""

import copy
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads as w  # noqa: E402
from tracer import PER_LAYER, Tracer, decimal_digits  # noqa: E402


def _hexes(values):
    return [hex(v) for v in values]


def torus_case():
    out, full, oracle = {}, [], []
    for m, terms in w.TORUS_TERMS.items():
        for family in ("tg", "kb"):
            for p in range(m):
                twist = min(p, m - p) if family == "tg" else p
                values = [7 * n * n + 3 * twist + m + (family == "kb") for n in range(1, terms + 1)]
                out[f"series {family} m={m} p={p}"] = _hexes(values)
                oracle.append([family, m, p, 2, hex(values[1])])
                if m in w.TORUS_FULL_TERMS:
                    full.append([family, m, p, _hexes(values[: w.TORUS_FULL_TERMS[m]])])
    return {}, out, {"oracle": oracle, "full": full}


def cylinder_case():
    prm = {"long": {2: 40, 3: 41, 4: 42}, "glued_check_m": 10}
    tables = {
        "orders_tnc": {str(w.CYL_ORDER_M): 3},
        "theta": {str(w.CYL_REDUCED_M): "3", str(w.CYL_GLUED_M): "3", str(w.CYL_SPECTRUM_M): "5.5"},
        "amplitude_tnc": {str(w.CYL_AMPLITUDE_M): "0.25"},
        "glued_vertices": {"10": 26},
    }
    frontier = {
        m: [3**n + 2**n for n in range(1, terms + 1)]
        for m, terms in ((w.CYL_REDUCED_M, w.CYL_REDUCED_TERMS), (w.CYL_GLUED_M, w.CYL_GLUED_TERMS))
    }
    tribonacci = [1, 1, 2]
    while len(tribonacci) < w.CYL_EXTEND_TERMS:
        tribonacci.append(sum(tribonacci[-3:]))
    out = {
        f"series tnc m={w.CYL_REDUCED_M}": _hexes(frontier[w.CYL_REDUCED_M]),
        f"series tnc m={w.CYL_GLUED_M} glued": _hexes(frontier[w.CYL_GLUED_M]),
        f"order_report m={w.CYL_ORDER_M}": 3,
        f"minimal_recurrence m={w.CYL_ORDER_M}": ["1", "1", "1"],
        f"series tnc m={w.CYL_ORDER_M}": _hexes(tribonacci),
        f"spectrum m={w.CYL_SPECTRUM_M}": 5.5,
        f"amplitude m={w.CYL_AMPLITUDE_M}": 0.25,
    }
    for m, n in prm["long"].items():
        num, den = checks.TNC_CLOSED_FORMS[m]
        out[f"count_tnc m={m}"] = hex(checks.closed_form_term(num, den, n))
    refs = {
        "tables": tables,
        "oracle": [[m, n, hex(v[n - 1])] for m, v in frontier.items() for n in w.CYL_ORACLE_N],
        "eigvalsh": {"m": w.CYL_SPECTRUM_M, "symmetric": True, "theta": 5.5},
        "reduced_total": {"m": 11, "total": 3**11 - 1},
        "glued_vertices": {"m": 10, "count": 26},
    }
    return prm, out, refs


def verify_case():
    report = {
        "suite": "all",
        "total": 2,
        "failed": 0,
        "checks": [{"name": "a", "status": "pass"}, {"name": "b", "status": "pass"}],
    }
    return {}, {"verify all": {"exit": 0, "report": report}}, {}


CASES = {"torus-klein": torus_case, "cylinder": cylinder_case, "verify-all": verify_case}


def _bump_hex(seq, i, by=1):
    seq[i] = hex(int(seq[i], 16) + by)


# (workload, check id, perturbation of (out, refs))
PERTURBATIONS = [
    ("torus-klein", "oracle", lambda o, r: _bump_hex(o["series kb m=9 p=4"], 1)),
    ("torus-klein", "reflection", lambda o, r: _bump_hex(o["series tg m=7 p=2"], 20)),
    ("torus-klein", "full", lambda o, r: _bump_hex(o["series kb m=8 p=3"], 4)),
    ("torus-klein", "complete", lambda o, r: o["series tg m=9 p=0"].pop()),
    ("cylinder", "oracle", lambda o, r: _bump_hex(o[f"series tnc m={w.CYL_GLUED_M} glued"], 1)),
    ("cylinder", "ratios", lambda o, r: _bump_hex(o[f"series tnc m={w.CYL_GLUED_M} glued"], -1, 3**190)),
    ("cylinder", "closed_form", lambda o, r: o.update({"count_tnc m=3": hex(int(o["count_tnc m=3"], 16) + 1)})),
    ("cylinder", "order", lambda o, r: o.update({f"order_report m={w.CYL_ORDER_M}": 4})),
    ("cylinder", "fit", lambda o, r: _bump_hex(o[f"series tnc m={w.CYL_ORDER_M}"], 70)),
    ("cylinder", "theta", lambda o, r: o.update({f"spectrum m={w.CYL_SPECTRUM_M}": 5.5 + 1e-6})),
    ("cylinder", "theta", lambda o, r: r["eigvalsh"].update(theta=5.5 + 1e-6)),
    ("cylinder", "glued_vertices", lambda o, r: r["glued_vertices"].update(count=27)),
    ("cylinder", "reduced_total", lambda o, r: r["reduced_total"].update(total=3**11)),
    ("cylinder", "amplitude", lambda o, r: o.update({f"amplitude m={w.CYL_AMPLITUDE_M}": 0.25 + 1e-6})),
    (
        "cylinder",
        "amplitude",
        lambda o, r: o.update({f"amplitude overflow m={w.CYL_AMPLITUDE_M}": 0.25 + 1e-6}),
    ),
    ("verify-all", "exit", lambda o, r: o["verify all"].update(exit=1)),
    ("verify-all", "failed", lambda o, r: o["verify all"]["report"]["checks"][1].update(status="fail")),
    ("verify-all", "failed", lambda o, r: o["verify all"]["report"].update(failed=1)),
    ("verify-all", "total", lambda o, r: o["verify all"]["report"].update(total=3)),
]


def test_consistent_outputs_pass():
    for workload, make in CASES.items():
        prm, out, refs = make()
        assert checks.check(workload, prm, out, refs) == [], workload


def test_mended_overflow_case_passes_when_right():
    prm, out, refs = cylinder_case()
    out[f"amplitude overflow m={w.CYL_AMPLITUDE_M}"] = 0.25
    assert checks.check("cylinder", prm, out, refs) == []


def test_each_perturbation_fails_its_check():
    for workload, check_id, perturb in PERTURBATIONS:
        prm, out, refs = CASES[workload]()
        out, refs = copy.deepcopy(out), copy.deepcopy(refs)
        perturb(out, refs)
        ids = {cid for cid, _ in checks.check(workload, prm, out, refs)}
        assert check_id in ids, (workload, check_id, ids)


def test_every_check_is_exercised():
    named = {
        "torus-klein": {"oracle", "reflection", "full", "complete"},
        "cylinder": {
            "oracle", "ratios", "closed_form", "order", "fit", "theta",
            "glued_vertices", "reduced_total", "amplitude",
        },
        "verify-all": {"exit", "failed", "total"},
    }
    for workload, ids in named.items():
        assert ids == {cid for wl, cid, _ in PERTURBATIONS if wl == workload}


def test_closed_forms_match_their_recurrences():
    # x(1+3x)/(1-2x-3x^2): f(n) = 2 f(n-1) + 3 f(n-2), f(1) = 1, f(2) = 5
    num, den = checks.TNC_CLOSED_FORMS[2]
    assert [checks.closed_form_term(num, den, n) for n in range(1, 6)] == [1, 5, 13, 41, 121]


def test_tally_counts_failed_operations():
    ops = [{"name": "a", "ok": True}, {"name": "b", "ok": False}]
    assert checks.tally("cylinder", ops, {}) == (2, 1)
    _, out, _ = verify_case()
    assert checks.tally("verify-all", [{"name": "verify all", "ok": True}], out) == (2, 0)


def test_decimal_digits():
    for v in (0, 1, 9, 10, 99, 100, 10**50 - 1, 10**50, 3**1000):
        assert decimal_digits(v) == len(str(v))


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == [tuple(x) for x in PER_LAYER]


def test_self_time_excludes_child_spans():
    t = Tracer()
    inner = t._wrap(lambda: time.sleep(0.02), "transfer.components", None)
    outer = t._wrap(lambda: inner(), "transfer.build_reduced", None)
    outer()
    metrics = t.layer_metrics()
    assert metrics["transfer.components_s"] >= 0.02
    assert metrics["transfer.build_reduced_s"] < 0.01


def test_tracer_survives_a_changed_result_shape():
    t = Tracer()
    notes = {name: note for _, _, name, note in t._targets() if isinstance(name, str)}
    wrapped = t._wrap(object, "transfer.build_reduced", notes["transfer.build_reduced"])
    wrapped()
    assert t.note_errors
    assert t.layer_metrics()["transfer.build_reduced_s"] >= 0

"""The three benchmark workloads: their seed-derived inputs, the engines
their set-up builds, and the operations their timed solve phase runs.

Everything here goes through public functions of the ``gridcycles``
package, so the benchmark keeps working when engine internals change.
Each operation is a ``(name, call, encode)`` triple: ``call`` is timed,
``encode`` turns its result into JSON outside the timed region (big
integers travel as hex strings, which have no digit limit).
"""

from __future__ import annotations

import contextlib
import io
import json
import random

WORKLOADS = ("torus-klein", "cylinder", "verify-all")

# torus-klein: terms per width; one trace engine per width serves all
# 2m (family, twist) series.
TORUS_TERMS = {6: 40, 7: 30, 8: 24, 9: 4}
# n = 3 oracle spot checks at m = 6, picked by the seed
TORUS_N3_POINTS = 3
# full-route prefix lengths used as a cross-check (check phase only)
TORUS_FULL_TERMS = {6: 10, 7: 8, 8: 6}

# cylinder
CYL_REDUCED_M, CYL_REDUCED_TERMS = 12, 30
CYL_GLUED_M, CYL_GLUED_TERMS = 13, 200
CYL_ORDER_M = 10
CYL_FIT_TERMS, CYL_EXTEND_TERMS = 48, 96  # fit window, then terms it must predict
CYL_SPECTRUM_M = 11
CYL_AMPLITUDE_M = 8
CYL_OVERFLOW_N = 240  # count / theta^n leaves the float range past ~1e308
CYL_LONG = {2: 20000, 3: 20000, 4: 10000}  # base lengths for count_tnc
CYL_LONG_JITTER = 64  # the seed adds 0..63 to each base length
CYL_GLUED_CHECK_WIDTHS = (9, 10, 11)  # glued vertex count spot check
CYL_ORACLE_N = (1, 2)  # brute-force spot checks of the frontier series


def params(workload: str, seed: int) -> dict:
    """Seed-derived inputs.  The seed moves only the long lengths n and the
    spot-check points, never the amount of timed work by more than ~1 %."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "torus-klein":
        pairs = [(f, p) for f in ("tg", "kb") for p in range(6)]
        return {"n3_points": sorted(rng.sample(pairs, TORUS_N3_POINTS))}
    if workload == "cylinder":
        return {
            "long": {m: n + rng.randrange(CYL_LONG_JITTER) for m, n in CYL_LONG.items()},
            "glued_check_m": rng.choice(CYL_GLUED_CHECK_WIDTHS),
        }
    if workload == "verify-all":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def _hex(values) -> list[str]:
    return [hex(v) for v in values]


def _run_verify(cli) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--suite", "all", "--json"])
    return code, buf.getvalue()


def engines(workload: str, prm: dict) -> list[tuple[str, int, str]]:
    """(family, m, method) of every engine the solve phase uses; set-up
    builds each with a one-term series."""
    if workload == "torus-klein":
        return [("tg", m, "reduced") for m in TORUS_TERMS]
    if workload == "cylinder":
        widths = sorted({*prm["long"], CYL_ORDER_M, CYL_AMPLITUDE_M, CYL_REDUCED_M})
        return [("tnc", m, "reduced") for m in widths] + [("tnc", CYL_GLUED_M, "glued")]
    return []


def operations(workload: str, prm: dict, g) -> list[tuple[str, object, object]]:
    """The timed operations of one round, each under a name that does not
    depend on the seed.  ``g`` holds the imported program modules
    (counting, recurrence, exactmat, cli) as attributes."""
    counting = g.counting
    spec = counting.GridSpec
    ops: list[tuple[str, object, object]] = []
    if workload == "torus-klein":
        for m, terms in TORUS_TERMS.items():
            for family in ("tg", "kb"):
                for p in range(m):
                    ops.append(
                        (
                            f"series {family} m={m} p={p}",
                            lambda s=spec(family, m, p), t=terms: counting.series(s, t),
                            lambda r: _hex(r.values),
                        )
                    )
        return ops
    if workload == "cylinder":
        def series_call(m, terms, method="reduced"):
            return lambda: counting.series(spec("tnc", m), terms, method=method)

        def fit_call():
            values = counting.series(spec("tnc", CYL_ORDER_M), CYL_FIT_TERMS).values
            return g.recurrence.minimal_recurrence(values)

        ops += [
            (
                f"series tnc m={CYL_REDUCED_M}",
                series_call(CYL_REDUCED_M, CYL_REDUCED_TERMS),
                lambda r: _hex(r.values),
            ),
            (
                f"series tnc m={CYL_GLUED_M} glued",
                series_call(CYL_GLUED_M, CYL_GLUED_TERMS, "glued"),
                lambda r: _hex(r.values),
            ),
            (
                f"order_report m={CYL_ORDER_M}",
                lambda: g.recurrence.order_report("tnc", CYL_ORDER_M),
                int,
            ),
            (
                f"minimal_recurrence m={CYL_ORDER_M}",
                fit_call,
                lambda r: [str(c) for c in r.coeffs],
            ),
            (
                f"series tnc m={CYL_ORDER_M}",
                series_call(CYL_ORDER_M, CYL_EXTEND_TERMS),
                lambda r: _hex(r.values),
            ),
            (
                f"spectrum m={CYL_SPECTRUM_M}",
                lambda: counting.zero_component_spectrum(CYL_SPECTRUM_M),
                lambda r: r.theta,
            ),
            (
                f"amplitude m={CYL_AMPLITUDE_M}",
                lambda: g.exactmat.amplitude_estimate(CYL_AMPLITUDE_M),
                float,
            ),
            (
                f"amplitude overflow m={CYL_AMPLITUDE_M}",
                lambda: g.exactmat.amplitude_estimate(CYL_AMPLITUDE_M, n_max=CYL_OVERFLOW_N),
                float,
            ),
        ]
        for m, n in prm["long"].items():
            ops.append(
                (f"count_tnc m={m}", lambda m=m, n=n: counting.count_tnc(m, n), hex)
            )
        return ops
    if workload == "verify-all":
        return [
            (
                "verify all",
                lambda: _run_verify(g.cli),
                lambda r: {"exit": r[0], "report": json.loads(r[1])},
            )
        ]
    raise ValueError(f"unknown workload {workload!r}")

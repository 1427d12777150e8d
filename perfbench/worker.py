"""One fresh interpreter of the benchmark: a timed round, a set-up only
start, or the reference computations the checks compare against.

    python3 perfbench/worker.py --workload W --seed N --mode round|setup|refs
                                [--trace-file PATH]

Run from the root of a checkout with ``PYTHONPATH=src``; ``run.py``
starts it with the environment the README describes.  Prints one JSON
object on its last line of standard output.
"""

import time

T0 = time.perf_counter()  # set-up is timed from the first statement

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402


def import_program():
    """Import the package from ./src and refuse any other copy."""
    import gridcycles
    from gridcycles import (
        cli,
        counting,
        exactmat,
        oracle,
        recurrence,
        refdata,
        transfer,
    )

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(gridcycles.__file__).startswith(src + os.sep):
        raise SystemExit(f"gridcycles imported from {gridcycles.__file__}, not {src}")
    return types.SimpleNamespace(
        cli=cli,
        counting=counting,
        exactmat=exactmat,
        oracle=oracle,
        recurrence=recurrence,
        refdata=refdata,
        transfer=transfer,
    )


def load_refdata(g) -> None:
    g.refdata.tables()
    for key in g.refdata.series_keys():
        g.refdata.reference_series(*key)


def run_round(workload: str, seed: int, mode: str, trace_file: str | None) -> dict:
    import workloads

    prm = workloads.params(workload, seed)
    g = import_program()
    tracer = None
    if trace_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
        load_refdata(g)
        for family, m, method in workloads.engines(workload, prm):
            g.counting.series(g.counting.GridSpec(family, m), 1, method=method)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s}
    if mode == "setup":
        return result

    ops, outputs, solve_s = [], {}, 0.0
    for name, call, encode in workloads.operations(workload, prm, g):
        gc.collect()
        span = tracer.span(f"bench.op {name}") if tracer else contextlib.nullcontext()
        t = time.perf_counter()
        try:
            with span:
                value = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            dt = time.perf_counter() - t
            error = f"{type(exc).__name__}: {exc}"
        else:
            dt = time.perf_counter() - t
            error = None
            outputs[name] = encode(value)
        solve_s += dt
        ops.append({"name": name, "ok": error is None, "s": dt, "error": error})
    result.update(
        solve_s=solve_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ops=ops,
        outputs=outputs,
    )
    if tracer:
        report = outputs.get("verify all", {}).get("report")
        if report is not None:
            tracer.add("cli.checks", report["total"])
        result["layers"] = tracer.layer_metrics()
        tracer.dump(trace_file)
    return result


def refs(workload: str, seed: int) -> dict:
    """Values the checks compare against, computed apart from the timed
    code path: the brute-force oracle, the full-digraph route, numpy's
    symmetric eigensolver, the reduced matrix itself, and tables.json."""
    import numpy

    import workloads as w

    prm = w.params(workload, seed)
    g = import_program()
    spec = g.counting.GridSpec
    tab = g.refdata.tables()
    out: dict = {"numpy": numpy.__version__}
    if workload == "torus-klein":
        points = [(f, m, p, 2) for m in w.TORUS_TERMS for f in ("tg", "kb") for p in range(m)]
        points += [(f, 6, p, 3) for f, p in prm["n3_points"]]
        out["oracle"] = [[f, m, p, n, hex(g.oracle.count_grid(spec(f, m, p, n)))] for f, m, p, n in points]
        out["full"] = [
            [f, m, p, [hex(v) for v in g.counting.series(spec(f, m, p), t, method="full").values]]
            for m, t in w.TORUS_FULL_TERMS.items()
            for f in ("tg", "kb")
            for p in range(m)
        ]
    elif workload == "cylinder":
        out["oracle"] = [
            [m, n, hex(g.oracle.count_grid(spec("tnc", m, 0, n)))]
            for m in (w.CYL_REDUCED_M, w.CYL_GLUED_M)
            for n in w.CYL_ORACLE_N
        ]
        m = w.CYL_SPECTRUM_M
        d = g.transfer.build_reduced(m)
        census = g.transfer.components(d)
        sub = g.transfer.component_subdigraph(d, census, census.zero_id)
        a = sub.adj.astype(float)
        out["eigvalsh"] = {
            "m": m,
            "symmetric": bool(numpy.array_equal(a, a.T)),
            "theta": float(numpy.linalg.eigvalsh(a)[-1]),
        }
        out["reduced_total"] = {"m": m, "total": int(d.adj.astype(numpy.int64).sum())}
        gm = prm["glued_check_m"]
        out["glued_vertices"] = {"m": gm, "count": len(g.transfer.build_glued(gm))}
        out["tables"] = {
            key: tab[key]
            for key in ("orders_tnc", "theta", "amplitude_tnc", "glued_vertices")
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("round", "setup", "refs"), required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args()
    if args.mode == "refs":
        result = refs(args.workload, args.seed)
    else:
        result = run_round(args.workload, args.seed, args.mode, args.trace_file)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

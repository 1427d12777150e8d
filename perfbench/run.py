"""gridcycles benchmark: set-up time, solve time and peak memory of three
workloads, checked for correctness, plus a traced per-layer breakdown.

    python3 perfbench/run.py --workload torus-klein|cylinder|verify-all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every round is a fresh single-threaded
interpreter that imports the package from ``src/`` (see README.md).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; progress and
failures go to standard error, and the full record of the run to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

DEFAULT_SEED = 1
MIN_ROUNDS = 2  # untraced rounds per run at least; the median is reported
MIN_TRACE_ROUNDS = 2  # traced and untraced rounds each, alternating
EXTRA_SETUPS = 2  # set-up only starts after each untraced round ...
CHEAP_SETUP_S = 1.0  # ... whose set-up took less than this
DEADLINE_S = 170  # a run never starts a new interpreter past this
OUT_DIR = ".perfbench-out"


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.abspath("src"),
        PYTHONHASHSEED="0",  # zero_component_words and orbits iterate over sets
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(args, mode: str, started: float, trace_file: str | None = None) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--mode",
        mode,
    ]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    timeout = DEADLINE_S + 5 - (time.monotonic() - started)
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), capture_output=True, text=True, timeout=max(timeout, 1)
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {mode} timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(args, started: float) -> tuple[list[dict], list[float]]:
    """Rounds until --seconds is used up, at least MIN_ROUNDS (untraced)
    or MIN_TRACE_ROUNDS of each kind (traced, alternating).  A cheap
    set-up is sampled more often, by set-up only starts spread between the
    rounds.  Returns the rounds and the untraced set-up samples."""
    rounds: list[dict] = []
    setups: list[float] = []
    while True:
        elapsed = time.monotonic() - started
        if args.trace:
            traced = len(rounds) % 2 == 1
            enough = len(rounds) >= 2 * MIN_TRACE_ROUNDS and not traced
        else:
            traced = False
            enough = len(rounds) >= MIN_ROUNDS
        longest = max((r["wall_s"] for r in rounds), default=0.0)
        if enough and (elapsed + longest > args.seconds or elapsed + longest > DEADLINE_S):
            return rounds, setups
        trace_file = None
        if traced:
            trace_file = os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}-round{len(rounds)}.json"
            )
        t = time.monotonic()
        result = run_worker(args, "round", started, trace_file)
        result["wall_s"] = time.monotonic() - t
        result["traced"] = traced
        rounds.append(result)
        print(
            f"round {len(rounds)}{' traced' if traced else ''}: setup {result['setup_s']:.3f} s, "
            f"solve {result['solve_s']:.3f} s, rss {result['peak_rss_mb']:.1f} MB",
            file=sys.stderr,
        )
        if not args.trace:
            setups.append(result["setup_s"])
            if result["setup_s"] < CHEAP_SETUP_S:
                setups += [run_worker(args, "setup", started)["setup_s"] for _ in range(EXTRA_SETUPS)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "gridcycles", "__init__.py")):
        print("error: run from the root of a checkout holding src/gridcycles", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    started = time.monotonic()
    try:
        rounds, setups = run_rounds(args, started)
        refs = run_worker(args, "refs", started)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    prm = workloads.params(args.workload, args.seed)
    first = rounds[0]["outputs"]
    failures = checks.check(args.workload, prm, first, refs)
    for i, r in enumerate(rounds[1:], start=2):
        if r["outputs"] != first:
            failures.append(("repeat", f"round {i} outputs differ from round 1"))
    attempted = failed = 0
    for r in rounds:
        a, f = checks.tally(args.workload, r["ops"], r["outputs"])
        attempted += a
        failed += f
    for check_id, message in failures:
        print(f"CHECK FAILED [{check_id}] {message}", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit}
            for name, unit, _ in PER_LAYER
            if name != "trace.overhead_pct"
        }
        total = [r["setup_s"] + r["solve_s"] for r in plain]
        total_traced = [r["setup_s"] + r["solve_s"] for r in traced]
        overhead = 100 * (statistics.median(total_traced) / statistics.median(total) - 1)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": statistics.median(r["solve_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(r["peak_rss_mb"] for r in plain),
                "unit": "MB",
            },
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": refs.get("numpy"),
        "params": prm,
        "setup_samples": setups,
        "rounds": [
            {k: r[k] for k in ("setup_s", "solve_s", "peak_rss_mb", "wall_s", "traced", "ops")}
            | ({"layers": r["layers"]} if "layers" in r else {})
            for r in rounds
        ],
        "failures": failures,
        "result": result,
        "wall_s": time.monotonic() - started,
    }
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

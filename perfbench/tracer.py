"""Span tracing of the program's layers, installed from outside.

``Tracer.install`` wraps public functions of the ``gridcycles`` modules.
A function that several modules import by name (``counting.series`` is
also ``recurrence.series``, ``exactmat.amplitude_estimate`` is also
``cli.amplitude_estimate``) is replaced at every place it is looked up:
each module namespace, and dictionaries held in module globals such as the
CLI's suite table.  Functions called once per word (``outlet``, ``inlet``)
are left alone.  A target that does not exist is skipped, and its metrics
read 0.  A count whose result no longer has the expected shape is skipped
and recorded in the dump, so the run goes on.

Each call records a span ``[name, start, end, parent]``; spans stay in
memory until ``dump`` writes them out.  A layer's self time is its spans'
durations minus the time covered by their direct child spans.  Counts
(calls, structure sizes, terms) are recorded at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# (metric name, unit, better).  Time metrics are self times unless listed
# in INCLUSIVE.  The benchmark reports every one of these in a traced run.
PER_LAYER = [
    ("kernels.reduced_adjacency_s", "s", "lower"),
    ("kernels.matrix_mb", "MB", "lower"),
    ("transfer.build_reduced_s", "s", "lower"),
    ("transfer.build_reduced_calls", "count", "lower"),
    ("transfer.components_s", "s", "lower"),
    ("transfer.components_calls", "count", "lower"),
    ("transfer.component_subdigraph_s", "s", "lower"),
    ("transfer.zero_component_words_s", "s", "lower"),
    ("transfer.build_glued_s", "s", "lower"),
    ("transfer.build_full_s", "s", "lower"),
    ("alphabet.enumerate_column_words_s", "s", "lower"),
    ("transfer.reduced_nonzeros", "count", "lower"),
    ("transfer.zero_component_vertices", "count", "lower"),
    ("transfer.glued_vertices", "count", "lower"),
    ("counting.engine_init_s", "s", "lower"),
    ("counting.trace_extend_s", "s", "lower"),
    ("counting.vector_extend_s", "s", "lower"),
    ("counting.long_count_s", "s", "lower"),
    ("counting.full_extend_s", "s", "lower"),
    ("counting.terms", "count", "lower"),
    ("counting.result_digits", "count", "lower"),
    ("exactmat.dominant_eigenvalue_s", "s", "lower"),
    ("exactmat.power_iterations", "count", "lower"),
    ("exactmat.amplitude_estimate_s", "s", "lower"),
    ("recurrence.order_report_s", "s", "lower"),
    ("recurrence.minimal_recurrence_s", "s", "lower"),
    ("recurrence.terms_fitted", "count", "lower"),
    ("recurrence.order", "count", "lower"),
    ("oracle.count_grid_s", "s", "lower"),
    ("refdata.load_s", "s", "lower"),
    ("cli.suite_series_s", "s", "lower"),
    ("cli.suite_digraph_s", "s", "lower"),
    ("cli.suite_orders_s", "s", "lower"),
    ("cli.suite_spectral_s", "s", "lower"),
    ("cli.suite_oracle_s", "s", "lower"),
    ("cli.suite_symmetry_s", "s", "lower"),
    ("cli.checks", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]

SUITES = ("series", "digraph", "orders", "spectral", "oracle", "symmetry")

# spans whose metric is the whole span, children included
INCLUSIVE = {
    "exactmat.amplitude_estimate",
    "recurrence.order_report",
    *(f"cli.suite_{s}" for s in SUITES),
}


def decimal_digits(v: int) -> int:
    """Exact number of decimal digits of |v| (no int -> str conversion)."""
    v = abs(v)
    d = max(1, int(v.bit_length() * 0.30102999566398120))
    while 10**d <= v:
        d += 1
    while d > 1 and 10 ** (d - 1) > v:
        d -= 1
    return d


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.engines_seen: set[tuple[str, int]] = set()
        self.missing: list[str] = []
        self.note_errors: set[str] = set()

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, namer, note):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = namer(args, kwargs) if callable(namer) else namer
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if note is not None:
                try:
                    note(args, kwargs, result)
                except (AttributeError, TypeError, ValueError, KeyError, IndexError) as exc:
                    # a changed result shape loses the count, not the run
                    tracer.note_errors.add(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at every place it is looked up."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "gridcycles" or name.startswith("gridcycles.")
        ]
        by_name = {mod.__name__: mod for mod in modules}
        for modname, attr, namer, note in self._targets():
            orig = getattr(by_name.get(modname), attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(orig, namer, note)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                    elif isinstance(val, dict) and not key.startswith("__"):
                        for k2, v2 in list(val.items()):
                            if v2 is orig:
                                val[k2] = wrapper

    def _series_name(self, args, kwargs) -> str:
        spec = args[0] if args else kwargs["spec"]
        terms = args[1] if len(args) > 1 else kwargs.get("terms", 0)
        method = args[2] if len(args) > 2 else kwargs.get("method", "reduced")
        if method == "full":
            route = "full"
        elif spec.family == "tnc":
            route = f"tnc-{method}"
        else:
            route = "trace"
        key = (route, spec.m)
        first = key not in self.engines_seen
        self.engines_seen.add(key)
        if first and terms == 1:
            return "counting.engine_init"
        return {
            "full": "counting.full_extend",
            "trace": "counting.trace_extend",
        }.get(route, "counting.vector_extend")

    def _targets(self):
        add, peak = self.add, self.peak

        def matrix(args, kwargs, result):
            add("kernels.matrix_mb", result.nbytes / 2**20)

        def reduced(args, kwargs, d):
            import numpy  # already loaded by the program

            add("transfer.build_reduced_calls", 1)
            nnz = getattr(d.adj, "nnz", None)  # a sparse matrix knows its own
            peak("transfer.reduced_nonzeros", int(numpy.count_nonzero(d.adj) if nnz is None else nnz))

        def census(args, kwargs, c):
            add("transfer.components_calls", 1)
            d = args[0] if args else kwargs["d"]
            if d.kind == "reduced" and c.zero_id is not None:
                peak("transfer.zero_component_vertices", c.sizes[c.zero_id])

        def zero_words(args, kwargs, words):
            peak("transfer.zero_component_vertices", len(words))

        def glued(args, kwargs, d):
            peak("transfer.glued_vertices", len(d))

        def series(args, kwargs, s):
            add("counting.terms", len(s.values))
            if s.values:
                add("counting.result_digits", decimal_digits(max(s.values)))

        def count(args, kwargs, value):
            spec = args[0] if args else kwargs["spec"]
            add("counting.terms", spec.n)
            add("counting.result_digits", decimal_digits(value))

        def spectrum(args, kwargs, s):
            add("exactmat.power_iterations", s.iterations)

        def fitted(args, kwargs, rec):
            values = args[0] if args else kwargs["values"]
            add("recurrence.terms_fitted", len(values))

        def order(args, kwargs, value):
            add("recurrence.order", value)

        targets = [
            ("gridcycles._kernels", "reduced_adjacency", "kernels.reduced_adjacency", matrix),
            ("gridcycles.transfer", "build_reduced", "transfer.build_reduced", reduced),
            ("gridcycles.transfer", "components", "transfer.components", census),
            ("gridcycles.transfer", "component_subdigraph", "transfer.component_subdigraph", None),
            ("gridcycles.transfer", "zero_component_words", "transfer.zero_component_words", zero_words),
            ("gridcycles.transfer", "build_glued", "transfer.build_glued", glued),
            ("gridcycles.transfer", "build_full", "transfer.build_full", None),
            ("gridcycles.alphabet", "enumerate_column_words", "alphabet.enumerate_column_words", None),
            ("gridcycles.counting", "series", self._series_name, series),
            ("gridcycles.counting", "count", "counting.long_count", count),
            # runs every route at m <= 7; the full route dominates its time
            ("gridcycles.counting", "verify_route_agreement", "counting.full_extend", None),
            ("gridcycles.exactmat", "dominant_eigenvalue", "exactmat.dominant_eigenvalue", spectrum),
            ("gridcycles.exactmat", "amplitude_estimate", "exactmat.amplitude_estimate", None),
            ("gridcycles.recurrence", "order_report", "recurrence.order_report", order),
            ("gridcycles.recurrence", "minimal_recurrence", "recurrence.minimal_recurrence", fitted),
            ("gridcycles.oracle", "count_grid", "oracle.count_grid", None),
            ("gridcycles.refdata", "tables", "refdata.load", None),
            ("gridcycles.refdata", "series_keys", "refdata.load", None),
            ("gridcycles.refdata", "reference_series", "refdata.load", None),
        ]
        targets += [
            ("gridcycles.cli", f"suite_{s}", f"cli.suite_{s}", None) for s in SUITES
        ]
        return targets

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except the overhead, from spans and counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        times: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            dur = end - start
            value = dur if name in INCLUSIVE else dur - covered
            times[name] = times.get(name, 0.0) + value
        out = {}
        for metric, unit, _ in PER_LAYER:
            if unit == "s":
                out[metric] = times.get(metric[: -len("_s")], 0.0)
            elif metric != "trace.overhead_pct":
                out[metric] = self.counts.get(metric, 0)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p}
                        for n, s, e, p in self.spans
                    ],
                    "counts": self.counts,
                    "missing_targets": self.missing,
                    "note_errors": sorted(self.note_errors),
                },
                fh,
            )

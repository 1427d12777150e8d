"""Command-line front end.

Subcommands::

    count tnc 4 --n 3                    one exact count
    series tg 5 --p 2 --terms 10         a count series (csv/bfile/json)
    digraph 6 --kind reduced --stats     digraph statistics
    digraph 4 --kind glued --dump        serialized digraph
    verify --suite all                   run the verification harness

``verify`` recomputes everything it checks and compares against the
reference dataset shipped in ``gridcycles/data``; one line per check,
exit status 0 only when every check passes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import alphabet, counting, oracle, recurrence, refdata, transfer
from .counting import GridSpec
from .exactmat import amplitude_estimate
from .transfer import ResourceLimitError

# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------


@dataclass
class Check:
    name: str
    expected: str
    actual: str
    passed: bool
    provenance: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status} {self.name}"
        if not self.passed:
            out += f": expected {self.expected}, got {self.actual}"
        return out + f"  [{self.provenance}]"


@dataclass
class RunReport:
    suite: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, expected, actual, provenance: str) -> None:
        self.checks.append(
            Check(name, str(expected), str(actual), expected == actual, provenance)
        )

    def add_close(self, name: str, expected: float, actual: float, tol: float, provenance: str) -> None:
        ok = math.isfinite(actual) and abs(expected - actual) <= tol
        self.checks.append(
            Check(name, f"{expected!r} (tol {tol:g})", repr(actual), ok, provenance)
        )

    @property
    def n_failed(self) -> int:
        return sum(not c.passed for c in self.checks)

    def extend(self, other: "RunReport") -> None:
        self.checks.extend(other.checks)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "total": len(self.checks),
            "failed": self.n_failed,
            "checks": [
                {
                    "name": c.name,
                    "expected": c.expected,
                    "actual": c.actual,
                    "status": "pass" if c.passed else "fail",
                    "provenance": c.provenance,
                }
                for c in self.checks
            ],
        }


def suite_series() -> RunReport:
    """Computed counts against every shipped reference series, plus the
    agreement of the full route with the production route."""
    report = RunReport("series")
    for family, m, p in refdata.series_keys():
        ref = list(refdata.reference_series(family, m, p))[:25]
        got = counting.series(GridSpec(family, m, p), len(ref)).values
        report.add(
            f"series {family} m={m} p={p} n<=25",
            ref,
            got,
            f"refdata series/{family}_m{m}_p{p}",
        )
    for m in range(2, 8):
        ok = all(counting.verify_route_agreement(m, p, 30) for p in range(m))
        report.add(
            f"route agreement m={m} n<=30 (full = reduced = glued)",
            True,
            ok,
            "internal cross-check",
        )
    return report


def suite_digraph() -> RunReport:
    """Vertex/edge/component censuses and structural invariants."""
    report = RunReport("digraph")
    tab = refdata.tables()
    for m in range(2, 11):
        d = transfer.build_full(m)
        report.add(
            f"full digraph vertices m={m}",
            tab["full_vertices"][str(m)],
            len(d),
            "refdata table full_vertices",
        )
        census = transfer.components(d)
        report.add(
            f"full zero-component size m={m}",
            tab["full_zero_component"][str(m)],
            census.sizes[census.zero_id],
            "refdata table full_zero_component",
        )
        even = m % 2 == 0
        report.add(
            f"zero and ones components {'merge' if even else 'differ'} m={m}",
            even,
            census.zero_id == census.ones_id,
            "parity of the width",
        )
    zero_words = {}  # the 0^m components, for the closure checks
    for m in range(2, 11):
        d = transfer.build_reduced(m)
        census = transfer.components(d)
        zero_words[m] = d.words[census.members(census.zero_id)]
        # the label search over the reduced arcs, the one check of the
        # charge classes: arcs keep the charge, so as many components as
        # classes makes each class one strongly connected component
        words = np.arange(2**m)
        searched = len(np.unique(transfer.arc_components(2**m, *transfer.reduced_arcs(words, m))))
        report.add(
            f"reduced digraph vertices m={m}", 2**m, len(d), "power of two"
        )
        report.add(
            f"reduced multiplicity total m={m}",
            3**m + (-1) ** m,
            int(d.adj.sum(dtype=np.int64)),
            "refdata table full_vertices",
        )
        ref = tab["reduced_components"][str(m)]
        if m % 2 == 0:
            expected_sizes = [ref["ones"]] + ref["rest"]
            actual_sizes = [census.sizes[census.ones_id]] + census.rest_sizes()
            report.add(
                f"reduced component count m={m}",
                m // 2 + 1,
                searched,
                "floor(m/2)+1 for even widths",
            )
            binomials = [math.comb(m, m // 2)] + [
                2 * math.comb(m, m // 2 - s) for s in range(1, m // 2 + 1)
            ]
            report.add(
                f"reduced component binomial sizes m={m}",
                binomials,
                actual_sizes,
                "binomial size law, even widths",
            )
        else:
            expected_sizes = [ref["ones"], ref["rest"][0]]
            actual_sizes = [
                census.sizes[census.ones_id],
                census.sizes[census.zero_id],
            ]
            report.add(
                f"reduced component count m={m}",
                2,
                searched,
                "two components for odd widths",
            )
        report.add(
            f"reduced component sizes m={m}",
            expected_sizes,
            actual_sizes,
            "refdata table reduced_components",
        )
        report.add(
            f"reduced zero-component size m={m}",
            tab["reduced_zero_component"][str(m)],
            census.sizes[census.zero_id],
            "refdata table reduced_zero_component",
        )
    for m in range(2, 13):
        faults = transfer.symmetry_faults(*transfer.reduced_arcs(np.arange(2**m), m), m)
        symmetric = "transpose" not in faults
        report.add(f"reduced matrix symmetric m={m}", True, symmetric, "transfer-matrix symmetry")
        for law in ("rotation", "reversal", "complement"):
            name = f"reduced digraph commutes with {law} m={m}"
            report.add(name, True, law not in faults, "letter-table symmetry")
    for m, words in zero_words.items():
        closed = all(
            np.isin(image, words).all()
            for image in (transfer.reverse_words(words, m), transfer.rotate_words(words, 1, m))
        )
        report.add(
            f"zero component closed under rotation/reversal m={m}",
            True,
            closed,
            "closure law",
        )
    for m in range(2, 11):
        g = transfer.build_glued(m)
        report.add(
            f"glued digraph vertices m={m}",
            tab["glued_vertices"][str(m)],
            len(g),
            "refdata table glued_vertices",
        )
    for m in range(2, 13):
        report.add(
            f"first/last column sets are Lucas-sized m={m}",
            [tab["lucas"][str(m)]] * 2,
            [len(alphabet.column_word_codes(m, letters)) for letters in ("abc", "bdf")],
            "refdata table lucas",
        )
    return report


def suite_orders() -> RunReport:
    """Minimal recurrence orders, and exact generating-function reconstruction
    for the narrow cylinders."""
    report = RunReport("orders")
    tab = refdata.tables()
    for m in range(2, 9):
        report.add(
            f"recurrence order tnc m={m}",
            tab["orders_tnc"][str(m)],
            recurrence.order_report("tnc", m),
            "refdata table orders_tnc",
        )
    for m in range(2, 6):
        got = [recurrence.order_report("tg", m, p) for p in range(m)]
        report.add(
            f"recurrence orders tg m={m} (p=0..{m-1})",
            tab["orders_tg"][str(m)],
            got,
            "refdata table orders_tg",
        )
    for m in range(2, 7):
        got = [recurrence.order_report("kb", m, p) for p in (0, 1)]
        report.add(
            f"recurrence orders kb m={m} (p=0,1)",
            [tab["orders_kb"][str(m)]] * 2,
            got,
            "refdata table orders_kb",
        )
    known_gfs = {
        2: ([0, 1, 3], [1, -2, -3]),
        3: ([0, 1, 1], [1, -3, -1]),
        4: ([0, 1, 3, -4], [1, -6, -3, 4]),
    }
    for m, (num, den) in known_gfs.items():
        values = counting.series(GridSpec("tnc", m), 25).values
        gf = recurrence.to_generating_function(
            values, recurrence.certified_recurrence("tnc", m, 0)
        )
        report.add(
            f"generating function tnc m={m}",
            (num, den),
            (gf.numerator, gf.denominator),
            "refdata known closed forms",
        )
    return report


def suite_spectral() -> RunReport:
    """Dominant eigenvalues and leading asymptotic coefficients."""
    report = RunReport("spectral")
    tab = refdata.tables()
    for m in range(2, 9):
        got = counting.zero_component_spectrum(m).theta
        report.add_close(
            f"dominant eigenvalue m={m}",
            float(tab["theta"][str(m)]),
            got,
            1e-9,
            "refdata table theta",
        )
    for m in range(2, 7):
        report.add_close(
            f"thin-cylinder amplitude m={m}",
            float(tab["amplitude_tnc"][str(m)]),
            amplitude_estimate(m),
            1e-5,
            "refdata table amplitude_tnc",
        )
    return report


def suite_oracle() -> RunReport:
    """Brute-force counts on explicit grids against the transfer counts."""
    report = RunReport("oracle")
    for m in (2, 3, 4):
        pairs = [(n, counting.count_tnc(m, n)) for n in range(1, 5)]
        got = [(n, oracle.count_grid(GridSpec("tnc", m, 0, n))) for n in range(1, 5)]
        report.add(
            f"oracle tnc m={m} n=1..4", pairs, got, "internal cross-check (brute force)"
        )
    for family in ("tg", "kb"):
        for m in (2, 3, 4):
            pairs = [
                (p, n, counting.count(GridSpec(family, m, p, n)))
                for p in range(m)
                for n in (2, 3)
            ]
            got = [
                (p, n, oracle.count_grid(GridSpec(family, m, p, n)))
                for p in range(m)
                for n in (2, 3)
            ]
            report.add(
                f"oracle {family} m={m} p=0..{m-1} n=2,3",
                pairs,
                got,
                "internal cross-check (brute force)",
            )
    return report


def suite_symmetry() -> RunReport:
    """Torus reflection symmetry in the twist, and the observed Klein-bottle
    twist invariance (odd widths: all twists agree; even widths: twists of
    equal parity agree)."""
    report = RunReport("symmetry")
    for m in range(2, 9):
        tg = [counting.series(GridSpec("tg", m, p), 30).values for p in range(m)]
        report.add(
            f"torus twist reflection m={m} n<=30",
            True,
            all(tg[p] == tg[m - p] for p in range(1, m)),
            "trace transpose identity",
        )
        kb = [counting.series(GridSpec("kb", m, p), 30).values for p in range(m)]
        if m % 2 == 1:
            invariant = all(v == kb[0] for v in kb)
        else:
            invariant = all(kb[p] == kb[p % 2] for p in range(m))
        report.add(
            f"klein twist classes m={m} n<=30",
            True,
            invariant,
            "observed twist invariance (checked, not assumed)",
        )
    return report


_SUITE_FUNCS = {
    "series": suite_series,
    "digraph": suite_digraph,
    "orders": suite_orders,
    "spectral": suite_spectral,
    "oracle": suite_oracle,
    "symmetry": suite_symmetry,
}
SUITES = tuple(_SUITE_FUNCS)


def run_suites(names) -> RunReport:
    report = RunReport("+".join(names))
    for name in names:
        report.extend(_SUITE_FUNCS[name]())
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _spec_from_args(args, need_n: bool) -> GridSpec:
    p = args.p if args.p is not None else 0
    if args.family == "tnc" and args.p not in (None, 0):
        raise ValueError("the thin cylinder has no twist; drop --p")
    n = getattr(args, "n", None) if need_n else None
    return GridSpec(args.family, args.m, p, n)


def cmd_count(args) -> int:
    spec = _spec_from_args(args, need_n=True)
    value = counting.count(spec, method=args.method)
    if args.json:
        print(
            json.dumps(
                {
                    "family": spec.family,
                    "m": spec.m,
                    "p": spec.p,
                    "n": spec.n,
                    "method": args.method,
                    "value": counting.decimal_str(value),
                }
            )
        )
    else:
        print(counting.decimal_str(value))
    return 0


def cmd_series(args) -> int:
    spec = _spec_from_args(args, need_n=False)
    ser = counting.series(spec, args.terms, method=args.method)
    if args.format == "json":
        print(json.dumps(ser.to_json_dict()))
    elif args.format == "bfile":
        sys.stdout.write(ser.to_bfile_text())
    else:  # csv
        if ser.values:
            print(",".join(map(counting.decimal_str, ser.values)))
    return 0


def cmd_digraph(args) -> int:
    if args.kind == "full":
        d = transfer.build_full(args.m, args.dump)
    elif args.kind == "reduced":
        d = transfer.build_reduced(args.m)
    else:
        d = transfer.build_glued(args.m)
    if args.dump:
        d.write_json(sys.stdout)
        sys.stdout.write("\n")
        return 0
    census = transfer.components(d) if args.kind != "glued" else None
    stats: dict = {"kind": d.kind, "m": d.m, "vertices": len(d)}
    if d.kind == "full":  # the arcs v -> u with outlet(v) = inlet(u), class by class
        ins, outs = (np.bincount(c, minlength=1 << d.m) for c in d.classes)
        stats["multiplicity_total"] = int(outs @ ins)
    else:
        stats["multiplicity_total"] = int(d.adj.sum(dtype=np.int64))
    if census is not None:
        sizes = sorted(census.sizes, reverse=True)
        stats["components"] = len(census.sizes)
        stats["component_sizes"] = sizes
        stats["zero_component"] = census.sizes[census.zero_id]
        stats["ones_component"] = census.sizes[census.ones_id]
    if args.kind == "reduced":
        spectra = counting.component_spectra(d, census)
        thetas = [s.theta for s in spectra]
        # the observed (unproven) coincidence: the whole digraph's spectral
        # radius against the 1^m component's; both reported, never assumed
        stats["component_eigenvalues"] = [round(t, 10) for t in thetas]
        stats["max_eigenvalue"] = round(max(thetas), 10)
        stats["ones_component_eigenvalue"] = round(thetas[census.ones_id], 10)
    if args.json:
        print(json.dumps(stats))
    else:
        for key, val in stats.items():
            print(f"{key}: {val}")
    return 0


def cmd_verify(args) -> int:
    names = SUITES if args.suite == "all" else (args.suite,)
    report = run_suites(names)
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        for check in report.checks:
            print(check.line())
        print(
            f"{len(report.checks) - report.n_failed}/{len(report.checks)} checks passed"
        )
    return 1 if report.n_failed else 0


def build_parser() -> argparse.ArgumentParser:
    limits = [(name, f"m <= {limit}") for limit, name in transfer.LIMITS.values()]
    limits.append(("brute-force oracle", f"<= {oracle.MAX_EDGES} edges"))
    parser = argparse.ArgumentParser(
        prog="gridcycles",
        description="Exact 2-factor enumeration on thin-cylinder, torus and "
        "Klein-bottle grid graphs.",
        epilog="practical limits (a wider request is refused):\n"
        + "\n".join(f"  {name}: {limit}" for name, limit in limits),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p, with_n: bool):
        p.add_argument("family", choices=counting.FAMILIES)
        p.add_argument("m", type=int, help="grid width (number of rows)")
        p.add_argument("--p", type=int, default=None, help="twist (tg/kb only)")
        if with_n:
            p.add_argument("--n", type=int, required=True, help="grid length")
        p.add_argument(
            "--method",
            choices=("reduced", "full", "glued"),
            default="reduced",
            help="counting route (default: reduced)",
        )

    p_count = sub.add_parser("count", help="one exact 2-factor count")
    add_spec_args(p_count, with_n=True)
    p_count.add_argument("--json", action="store_true")
    p_count.set_defaults(func=cmd_count)

    p_series = sub.add_parser("series", help="count series for n = 1..terms")
    add_spec_args(p_series, with_n=False)
    p_series.add_argument("--terms", type=int, required=True)
    p_series.add_argument(
        "--format", choices=("csv", "bfile", "json"), default="csv"
    )
    p_series.set_defaults(func=cmd_series)

    p_digraph = sub.add_parser("digraph", help="transfer digraph statistics")
    p_digraph.add_argument("m", type=int)
    p_digraph.add_argument(
        "--kind", choices=("full", "reduced", "glued"), default="reduced"
    )
    group = p_digraph.add_mutually_exclusive_group()
    group.add_argument("--stats", action="store_true", default=True)
    group.add_argument("--dump", action="store_true")
    p_digraph.add_argument("--json", action="store_true")
    p_digraph.set_defaults(func=cmd_digraph)

    p_verify = sub.add_parser("verify", help="run the verification harness")
    p_verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ResourceLimitError, refdata.RefDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

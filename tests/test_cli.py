import decimal
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridcycles
from gridcycles import cli, counting, oracle, refdata, transfer


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_examples(capsys):
    assert run(capsys, "count", "tnc", "4", "--n", "3") == (0, "53\n", "")
    assert run(capsys, "count", "tg", "2", "--p", "1", "--n", "2") == (0, "10\n", "")
    assert run(capsys, "count", "kb", "4", "--p", "0", "--n", "1") == (0, "18\n", "")


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "tnc", "7", "--n", "25", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "14458254399899446658426778070807"
    assert doc["method"] == "reduced"


def test_count_prints_values_past_the_digit_limit(capsys):
    # f(n) = (3^n + (-1)^n) / 2 expands x(1+3x)/(1-2x-3x^2); at n = 9100 it
    # has 4342 digits, past the interpreter's 4300-digit int -> str limit
    n = 9100
    expected = str(decimal.Decimal((3**n + (-1) ** n) // 2))
    assert len(expected) == 4342
    assert run(capsys, "count", "tnc", "2", "--n", str(n)) == (0, expected + "\n", "")
    ser = counting.Series("tnc", 2, 0, [1, int(decimal.Decimal(expected))])
    assert ser.to_json_dict()["values"] == ["1", expected]
    assert ser.to_bfile_text() == f"1 1\n2 {expected}\n"


def test_count_rejects_cylinder_twist(capsys):
    code, out, err = run(capsys, "count", "tnc", "4", "--p", "1", "--n", "2")
    assert code == 1 and out == "" and "twist" in err


def test_count_resource_limit(capsys):
    m = str(transfer.LIMITS["trace"][0] + 1)
    code, _, err = run(capsys, "count", "tg", m, "--n", "2")
    assert code == 1 and "limited" in err


def test_help_lists_every_limit(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    for limit, name in transfer.LIMITS.values():
        assert f"{name}: m <= {limit}\n" in out
    assert f"brute-force oracle: <= {oracle.MAX_EDGES} edges\n" in out


def test_python_m_runs_the_cli(capsys, monkeypatch):
    # `python -m gridcycles --help` from a child process prints what
    # cli.main(["--help"]) prints; both wrap the help at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    src = str(Path(gridcycles.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-m", "gridcycles", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "COLUMNS": "80", "PYTHONPATH": path},
        check=True,
    )
    assert child.stdout == capsys.readouterr().out


def test_series_formats(capsys):
    code, out, _ = run(capsys, "series", "tnc", "2", "--terms", "5")
    assert code == 0 and out == "1,5,13,41,121\n"
    code, out, _ = run(capsys, "series", "tg", "5", "--p", "2", "--terms", "3")
    assert code == 0 and out == "12,152,1022\n"
    code, out, _ = run(capsys, "series", "tnc", "3", "--terms", "0")
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "series", "tnc", "2", "--terms", "3", "--format", "bfile")
    assert out == "1 1\n2 5\n3 13\n"
    code, out, _ = run(capsys, "series", "kb", "3", "--p", "2", "--terms", "2", "--format", "json")
    assert json.loads(out) == {"family": "kb", "m": 3, "p": 2, "values": ["6", "22"]}


def test_series_deterministic(capsys):
    a = run(capsys, "series", "tg", "4", "--p", "1", "--terms", "8", "--format", "bfile")
    b = run(capsys, "series", "tg", "4", "--p", "1", "--terms", "8", "--format", "bfile")
    assert a == b


def test_digraph_stats(capsys):
    code, out, _ = run(capsys, "digraph", "6", "--kind", "reduced", "--stats")
    assert code == 0
    assert "components: 4" in out
    assert "component_sizes: [30, 20, 12, 2]" in out
    code, out, _ = run(capsys, "digraph", "9", "--kind", "glued", "--stats")
    assert "vertices: 23" in out
    code, out, _ = run(capsys, "digraph", "2", "--kind", "full", "--json")
    doc = json.loads(out)
    assert doc["vertices"] == 10


def test_digraph_eigenvalue_report(capsys):
    _, out, _ = run(capsys, "digraph", "5", "--kind", "reduced", "--json")
    doc = json.loads(out)
    # observed coincidence of the global and ones-component spectral radii
    # is reported, not asserted
    assert doc["max_eigenvalue"] == doc["ones_component_eigenvalue"]
    assert len(doc["component_eigenvalues"]) == 2


def test_digraph_reduced_builds_once(capsys, monkeypatch):
    calls = {"build_reduced": 0, "components": 0}

    def counted(name):
        real = getattr(transfer, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(transfer, name, counted(name))
    code, out, _ = run(capsys, "digraph", "6", "--kind", "reduced", "--json")
    assert code == 0 and json.loads(out)["components"] == 4
    assert calls == {"build_reduced": 1, "components": 1}


def test_digraph_suite_builds_each_width_once(monkeypatch):
    widths = []
    real = transfer.build_reduced

    def build(m):
        widths.append(m)
        return real(m)

    monkeypatch.setattr(transfer, "build_reduced", build)
    assert cli.suite_digraph().n_failed == 0
    assert sorted(widths) == list(range(2, 11))


def test_reduced_component_count_reads_the_label_search(monkeypatch):
    # a search that splits the word 1^m off its class: every count check
    # fails, while the sizes, which the charge census gives, still pass
    search = transfer.arc_components

    def split(nodes, src, dst):
        least = search(nodes, src, dst)
        least[nodes - 1] = nodes - 1
        return least

    monkeypatch.setattr(transfer, "arc_components", split)
    checks = cli.suite_digraph().checks
    counts = [c for c in checks if c.name.startswith("reduced component count")]
    sizes = [c for c in checks if c.name.startswith("reduced component sizes")]
    assert len(counts) == len(sizes) == 9
    assert not any(c.passed for c in counts)
    assert all(c.passed for c in sizes)
    assert sum(not c.passed for c in checks) == len(counts)


@pytest.mark.parametrize(
    "kind,m", [(kind, m) for kind in ("full", "reduced", "glued") for m in ("0", "-3")]
)
def test_digraph_rejects_invalid_width(capsys, kind, m):
    assert run(capsys, "digraph", m, "--kind", kind) == (
        1, "", f"error: width must be >= 1, got {m}\n"
    )


def test_digraph_dump(capsys):
    code, out, _ = run(capsys, "digraph", "3", "--kind", "reduced", "--dump")
    doc = json.loads(out)
    assert doc["m"] == 3 and len(doc["vertices"]) == 8
    assert len(doc["adj"]) == 64
    code, _, err = run(capsys, "digraph", "9", "--kind", "full", "--dump")
    assert code == 1 and "limited" in err


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "spectral")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["failed"] == 0
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert all(c["provenance"] for c in doc["checks"])


def test_refdata_is_complete():
    keys = refdata.series_keys()
    assert len(keys) == 34
    assert ("tnc", 7, 0) in keys and ("kb", 5, 4) in keys
    assert refdata.reference_series("tnc", 2, 0)[:3] == (1, 5, 13)
    tab = refdata.tables()
    assert tab["orders_tnc"]["8"] == 10


@pytest.mark.parametrize("stray", ["old_tnc_m2_p0.bfile", "tnc_m02_p0.bfile", "tnc_m2_p0.bfile.bak"])
def test_refdata_refuses_stray_series_names(monkeypatch, tmp_path, stray):
    # a stray name must not pass as a (second) key whose file is never read
    (tmp_path / "series").mkdir()
    for name in ("tnc_m2_p0.bfile", stray):
        (tmp_path / "series" / name).write_text("")
    monkeypatch.setattr(refdata, "_data_root", lambda: tmp_path)
    refdata.series_keys.cache_clear()
    try:
        with pytest.raises(refdata.RefDataError):
            refdata.series_keys()
    finally:
        refdata.series_keys.cache_clear()


def test_refdata_fails_loudly(monkeypatch, tmp_path):
    (tmp_path / "series").mkdir()
    (tmp_path / "series" / "tnc_m2_p0.bfile").write_text("1 1\n3 5\n")
    monkeypatch.setattr(refdata, "_data_root", lambda: tmp_path)
    refdata.reference_series.cache_clear()
    refdata.series_keys.cache_clear()
    refdata.tables.cache_clear()
    with pytest.raises(refdata.RefDataError):
        refdata.reference_series("tnc", 2, 0)
    with pytest.raises(refdata.RefDataError):
        refdata.tables()
    refdata.reference_series.cache_clear()
    refdata.series_keys.cache_clear()
    refdata.tables.cache_clear()

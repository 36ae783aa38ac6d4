"""tools/trace_calls.py: it reads the library call counts of a ``--trace 1``
result line and names each count that moved."""

import importlib.util
import io
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "tools" / "trace_calls.expected.json"
_SPEC = importlib.util.spec_from_file_location("trace_calls", ROOT / "tools" / "trace_calls.py")
trace_calls = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace_calls)


def result_line(**calls):
    metrics = {"kernel.fraction.calls": {"value": 9, "unit": "count"},
               "paf.construct.self_s": {"value": 0.5, "unit": "s"}}
    metrics.update({f"{name}.calls": {"value": n, "unit": "count"} for name, n in calls.items()})
    return json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics})


def test_reads_the_library_counts_and_leaves_out_the_kernel():
    assert trace_calls.library_calls(result_line(paf_construct=3)) == {"paf_construct.calls": 3}


def test_names_each_count_that_moved_or_is_missing():
    got = {"a.calls": 1, "b.calls": 2, "c.calls": 4}
    expected = {"a.calls": 1, "c.calls": 3, "d.calls": 5, "why": "not compared"}
    assert trace_calls.mismatches(got, expected) == ["b.calls: expected None, got 2",
                                                      "c.calls: expected 3, got 4",
                                                      "d.calls: expected 5, got None"]


def test_exit_codes(tmp_path, monkeypatch, capsys):
    expect = tmp_path / "expected.json"
    expect.write_text(json.dumps({"a.calls": 1, "why": "seeded by hand"}))
    for stdin, code in [(f"a = 1 count\n{result_line(a=1)}\n", 0), (result_line(a=2), 1),
                        ("not a result line\n", 2)]:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert trace_calls.main(["--expect", str(expect)]) == code
    assert capsys.readouterr().err.splitlines() == [
        "trace_calls: a.calls: expected 1, got 2",
        "trace_calls: the last line of stdin is not a --trace 1 result"]


def test_the_committed_counts_are_the_benchmarks_library_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.metrics import FUNCTION_METRICS

    expected = json.loads(EXPECTED.read_text())
    assert expected["why"]
    assert set(expected) - {"why"} == {f"{name}.calls" for name in FUNCTION_METRICS}

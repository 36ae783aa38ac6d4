"""Verdicts of tools/bench_pairs.py on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

STEADY = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]  # IQR/median 0.02
NOISY = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]    # IQR/median 0.4


@pytest.mark.parametrize("better, base, change, bound, expected", [
    ("higher", STEADY, [v * 0.8 for v in STEADY], 0.1, "worse"),
    ("higher", STEADY, [v * 0.95 for v in STEADY], 0.1, "within"),
    ("higher", STEADY, [v * 1.5 for v in STEADY], 0.1, "within"),
    ("lower", STEADY, [v * 1.2 for v in STEADY], 0.1, "worse"),
    ("lower", STEADY, [v * 0.8 for v in STEADY], 0.1, "within"),
    ("lower", STEADY, [v * 1.05 for v in STEADY], 0.1, "within"),
    # the parent's spread exceeds the bound: only a change that beats every
    # parent run is resolved
    ("higher", NOISY, NOISY, 0.25, "unresolved"),
    ("higher", NOISY, [v + 81 for v in NOISY], 0.25, "within"),
    ("lower", NOISY, [v - 81 for v in NOISY], 0.25, "within"),
    ("lower", NOISY, [v - 50 for v in NOISY], 0.25, "unresolved"),
    # worse takes precedence over unresolved
    ("higher", NOISY, [v * 0.5 for v in NOISY], 0.25, "worse"),
    # the bound is a fraction of the parent median
    ("lower", [10.0] * 4, [10.9] * 4, 0.1, "within"),
    ("lower", [10.0] * 4, [11.1] * 4, 0.1, "worse"),
    ("higher", [10.0] * 4, [9.1] * 4, 0.1, "within"),
    ("higher", [10.0] * 4, [8.9] * 4, 0.1, "worse"),
])
def test_verdict(better, base, change, bound, expected):
    assert bench_pairs.verdict(base, change, better, bound) == expected


def test_refuses_a_checkout_with_a_bytecode_cache(tmp_path, capsys):
    for side in ("base", "change"):
        (tmp_path / side / "src" / "char1").mkdir(parents=True)
    cache = tmp_path / "base" / "src" / "char1" / "__pycache__"
    cache.mkdir()
    code = bench_pairs.main(["--base", str(tmp_path / "base"), "--change",
                             str(tmp_path / "change"), "--workload", "cli",
                             "--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1 and str(cache) in err
    assert not (tmp_path / "out.json").exists()


def test_runs_compile_from_source(monkeypatch):
    seen = {}

    def fake_run(cmd, env, **kwargs):
        seen.update(env)
        out = '{}\n{"metrics": {}, "correct": true, "attempted": 1, "failed": 0}\n'
        return bench_pairs.subprocess.CompletedProcess(cmd, 0, out)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    bench_pairs.run_once(".", "cli", 1, 1.0)
    assert seen["PYTHONDONTWRITEBYTECODE"] == "1"


def test_each_side_reports_its_failed_share(monkeypatch):
    """A change that fails a larger share of its operations shows it in the
    pair file, run by run and as one share per side."""
    failed = {"base": 0, "change": 3}

    def fake_run(cmd, cwd, **kwargs):
        bad = failed[cwd]
        result = {"correct": bad == 0, "attempted": 100, "failed": bad,
                  "metrics": {"ops_per_s": {"value": 10.0, "unit": "1/s"}}}
        out = json.dumps({"speed_scale": 1.0}) + "\n" + json.dumps(result) + "\n"
        return bench_pairs.subprocess.CompletedProcess(cmd, 0, out)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = bench_pairs.compare("base", "change", "laws", 2, 1.0, 1, {"ops_per_s": "higher"},
                              {"ops_per_s": 0.25})
    assert (out["base"]["attempted"], out["base"]["failed"]) == ([100, 100], [0, 0])
    assert (out["change"]["attempted"], out["change"]["failed"]) == ([100, 100], [3, 3])
    assert out["base"]["failed_share"] == 0 and out["change"]["failed_share"] == 0.03
    assert out["base"]["correct"] and not out["change"]["correct"]

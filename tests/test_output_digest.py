"""tools/output_digest.py: its digests repeat and move with the output."""

import importlib.util
import json
from pathlib import Path

import pytest

from char1 import cli, laws

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("output_digest",
                                               ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digest)

RUNS = ((3, 4),)  # one seed, four cases


def test_laws_digest_repeats_and_moves_with_a_suite(monkeypatch):
    first = output_digest.laws_digest(["semifield"], RUNS)
    assert output_digest.laws_digest(["semifield"], RUNS) == first
    monkeypatch.setitem(laws.SUITES, "semifield", laws.SUITES["decomposition"])
    assert output_digest.laws_digest(["semifield"], RUNS) != first


def test_laws_digest_names_the_suite_that_moved(monkeypatch):
    total, suites = output_digest.laws_digest(["norm", "semifield"], RUNS)
    assert sorted(suites) == ["norm", "semifield"]
    # one suite alone hashes to its own entry of the map
    assert output_digest.laws_digest(["norm"], RUNS) == (suites["norm"], {"norm": suites["norm"]})
    monkeypatch.setitem(laws.SUITES, "semifield", laws.SUITES["decomposition"])
    moved_total, moved = output_digest.laws_digest(["norm", "semifield"], RUNS)
    assert moved_total != total
    assert moved["norm"] == suites["norm"] and moved["semifield"] != suites["semifield"]


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))


def test_cli_digest_repeats_and_moves_with_a_verb(monkeypatch, perfbench_path):
    first, requests, errors, verbs = output_digest.cli_digest(seeds=[1])
    assert 0 < errors < requests
    assert output_digest.cli_digest(seeds=[1]) == (first, requests, errors, verbs)
    monkeypatch.setitem(cli._VERBS, "paf-norm", lambda p, args: {"r": "0"})
    moved, _, _, moved_verbs = output_digest.cli_digest(seeds=[1])
    assert moved != first
    assert {v for v in verbs if moved_verbs[v] != verbs[v]} == {"paf-norm"}


def test_run_request_records_what_the_cli_prints():
    code, out, err = output_digest.run_request("paf-norm", [], "[]")
    assert (code, out) == (1, "")
    assert err == "char1: schema violation: input must be a JSON object\n"


def test_mismatches_name_each_value_that_moved():
    got = {"laws": "a", "cli": "b", "requests": 3, "error_exits": 1, "suites": {}}
    assert output_digest.mismatches(got, {"laws": "a", "requests": 3}) == []
    assert output_digest.mismatches(got, {"laws": "x", "cli": "b", "error_exits": 2}) == [
        "laws: expected 'x', got 'a'", "error_exits: expected 2, got 1"]
    assert output_digest.mismatches(got, {"verbs": {}}) == ["verbs: expected {}, got None"]


def test_the_expected_file_pins_the_four_totals():
    expected = json.loads((ROOT / "tools" / "output_digest.expected.json").read_text())
    assert sorted(expected) == ["cli", "error_exits", "laws", "requests", "why"]
    assert output_digest.mismatches({}, {"why": expected["why"]}) == []
    assert all(len(expected[k]) == 32 for k in ("cli", "laws"))
    assert 0 < expected["error_exits"] < expected["requests"]

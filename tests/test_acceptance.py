"""Acceptance gate: one test per criterion, exact tolerances, one
printed PASS/FAIL line each.  Run with -s to watch the lines stream."""

import json
import time

import pytest

from char1 import laws
from char1.cli import main

SEED = 20240811


def _report(number, title, rep, elapsed):
    status = "PASS" if rep.ok else "FAIL"
    print(f"{status} criterion {number}: {title} "
          f"({rep.passed}/{rep.cases} checks, {elapsed:.1f}s)")
    if rep.first_counterexample:
        print(f"     first counterexample: {rep.first_counterexample}")
    assert rep.ok, rep.first_counterexample


def test_c01_semifield_laws_all_three_models():
    t0 = time.time()
    rep = laws.run_semifield_suite(seed=SEED, cases=1000)
    elapsed = time.time() - t0
    _report(1, "semifield laws, 1000 cases per model", rep, elapsed)
    assert elapsed < 10.0, f"law suite took {elapsed:.1f}s"


def test_c02_decomposition_identities():
    t0 = time.time()
    rep = laws.run_decomposition_suite(seed=SEED, cases=1000)
    _report(2, "decomposition identities", rep, time.time() - t0)


def test_c03_norm_suite():
    t0 = time.time()
    rep = laws.run_norm_suite(seed=SEED, cases=1000)
    _report(3, "norm suite (unit, subadditive, homogeneous, ultrametric, split)",
            rep, time.time() - t0)


def test_c04_c07_characters():
    t0 = time.time()
    rep = laws.run_character_suite(seed=SEED, cases=1000)
    elapsed = time.time() - t0
    _report(4, "norm attainment on 500 functions, 25 grid points each", rep, elapsed)
    print(f"PASS criterion 7: character axioms and separation "
          f"(same run, {elapsed:.1f}s)")


def test_c05_c09_congruences():
    t0 = time.time()
    rep = laws.run_congruence_suite(seed=SEED, cases=500)
    elapsed = time.time() - t0
    _report(5, "quotient-norm equality with constructive representative",
            rep, elapsed)
    print(f"PASS criterion 9: congruence compatibility, sandwich, Zariski, "
          f"fraction extension (same run, {elapsed:.1f}s)")


def test_c06_support_isomorphism_and_dual_norm():
    t0 = time.time()
    rep = laws.run_convex_suite(seed=SEED, cases=200)
    _report(6, "support isomorphism (200 pairs, exact on the merged fan), dual norm (500), "
            "euclidean mode", rep, time.time() - t0)


def test_c08_c10_valuations_and_circle():
    t0 = time.time()
    rep = laws.run_valuation_suite(seed=SEED, cases=500)
    elapsed = time.time() - t0
    _report(8, "valuation laws and convexity criterion (1000 functions)",
            rep, elapsed)
    print(f"PASS criterion 10: 500 valid circle sections constant, 100 "
          f"quadratic junction checks (same run, {elapsed:.1f}s)")


GOLDEN = [
    ("paf-eval",
     {"f": {"domain": ["0", "1"], "breakpoints": ["0", "1"],
            "pieces": [{"a": "2", "b": "-1"}]}, "t": "1/2"},
     [], {"value": "0"}),
    ("paf-oplus",
     {"f": {"domain": ["0", "1"], "breakpoints": ["0", "1"],
            "pieces": [{"a": "1", "b": "0"}]},
      "g": {"domain": ["0", "1"], "breakpoints": ["0", "1"],
            "pieces": [{"a": "-1", "b": "1"}]}},
     [], {"result": {"domain": ["0", "1"], "breakpoints": ["0", "1/2", "1"],
                     "pieces": [{"a": "-1", "b": "1"}, {"a": "1", "b": "0"}]}}),
    ("paf-norm",
     {"f": {"domain": ["0", "1"], "breakpoints": ["0", "1"],
            "pieces": [{"a": "2", "b": "-1"}]}},
     [], {"r": "1"}),
    ("paf-clamp",
     {"f": {"domain": ["0", "1"], "breakpoints": ["0", "1"],
            "pieces": [{"a": "2", "b": "-1"}]}, "c": "1/2"},
     [], {"result": {"domain": ["0", "1"], "breakpoints": ["0", "1/4", "3/4", "1"],
                     "pieces": [{"a": "0", "b": "-1/2"}, {"a": "2", "b": "-1"},
                                {"a": "0", "b": "1/2"}]}}),
    ("paf-plot",
     {"f": {"domain": ["0", "1"], "breakpoints": ["0", "1"],
            "pieces": [{"a": "1", "b": "0"}]}},
     ["--samples", "3"], "0,0\n1/2,1/2\n1,1\n"),
    ("poly-hull-union",
     {"A": {"vertices": [["0", "0"], ["1", "0"]]},
      "B": {"vertices": [["0", "0"], ["0", "1"]]}},
     [], {"result": {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}}),
    ("poly-minkowski",
     {"A": {"vertices": [["0", "0"], ["1", "0"]]},
      "B": {"vertices": [["0", "0"], ["0", "1"]]}},
     [], {"result": {"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]}}),
    ("poly-support",
     {"A": {"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]},
      "psi": ["1", "1"]},
     [], {"value": "2"}),
    ("poly-rnorm",
     {"A": {"vertices": [["0", "0"], ["2", "0"], ["0", "1"]]},
      "E": {"vertices": [["-1", "-1"], ["1", "-1"], ["1", "1"], ["-1", "1"]]}},
     [], {"r": "2"}),
    ("poly-polar",
     {"E": {"vertices": [["-1", "-1"], ["1", "-1"], ["1", "1"], ["-1", "1"]]}},
     [], {"result": {"vertices": [["-1", "0"], ["0", "-1"], ["1", "0"], ["0", "1"]]}}),
    ("spec-attain",
     {"f": {"domain": ["0", "1"], "breakpoints": ["0", "1"],
            "pieces": [{"a": "2", "b": "-1"}]}},
     [], {"character": {"kind": "point", "t": "0"}, "value": "-1"}),
    ("spec-classify",
     {"f": {"domain": ["0", "1"], "breakpoints": ["0", "1/2", "1"],
            "pieces": [{"a": "-1", "b": "1"}, {"a": "1", "b": "0"}]}},
     [], {"absorbing": True, "epsilon": "1/2", "nonneg": True, "regular": True}),
    ("cong-qnorm",
     {"f": {"domain": ["0", "1"], "breakpoints": ["0", "1"],
            "pieces": [{"a": "2", "b": "-1"}]},
      "K1": {"intervals": [["1/4", "1/2"]]}},
     [], {"r": "1/2"}),
    ("cong-minrep",
     {"f": {"domain": ["0", "1"], "breakpoints": ["0", "1"],
            "pieces": [{"a": "2", "b": "-1"}]},
      "K1": {"intervals": [["1/4", "1/2"]]}},
     [], {"result": {"domain": ["0", "1"], "breakpoints": ["0", "1/4", "3/4", "1"],
                     "pieces": [{"a": "0", "b": "-1/2"}, {"a": "2", "b": "-1"},
                                {"a": "0", "b": "1/2"}]}, "r": "1/2"}),
    ("cong-zariski",
     {"K1": {"intervals": [["1/4", "1/2"]]}},
     [], {"V": {"intervals": [["1/4", "1/2"]]}}),
    ("val-kink",
     {"f": {"domain": ["0", "1"], "breakpoints": ["0", "1/2", "1"],
            "pieces": [{"a": "-1", "b": "1/2"}, {"a": "1", "b": "-1/2"}]},
      "x": "1/2"},
     [], {"kink": "2"}),
    ("val-convexity",
     {"f": {"domain": ["0", "1"], "breakpoints": ["0", "1/2", "1"],
            "pieces": [{"a": "-1", "b": "1/2"}, {"a": "1", "b": "-1/2"}]}},
     [], {"convex": True}),
    ("val-circle-check",
     {"s": {"cyclic": True, "breakpoints": ["0"], "pieces": [{"a": "0", "b": "3"}]}},
     [], {"constant": True, "valid": True}),
]


def test_c11_cli_golden(tmp_path):
    failures = []
    for verb, payload, extra, expected in GOLDEN:
        inp = tmp_path / f"{verb}.json"
        inp.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / f"{verb}.out"
        code = main([verb, "--input", str(inp), "--output", str(out), *extra])
        text = out.read_text(encoding="utf-8")
        got = text if isinstance(expected, str) else json.loads(text)
        if code != 0 or got != expected:
            failures.append((verb, code, got))
    # laws-run: lawful build passes with a nonzero case count
    out = tmp_path / "laws.out"
    code = main(["laws-run", "semifield", "--seed", "7", "--cases", "40",
                 "--output", str(out)])
    got = json.loads(out.read_text(encoding="utf-8"))
    if code != 0 or got["failed"] != 0 or got["passed"] == 0:
        failures.append(("laws-run", code, got))
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion 11: CLI golden examples "
          f"({len(GOLDEN) + 1 - len(failures)}/{len(GOLDEN) + 1} verbs)")
    assert not failures, failures

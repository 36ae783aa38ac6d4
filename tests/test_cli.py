import contextlib
import copy
import io
import json
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from char1 import cli
from char1.cli import main
from char1.congruence import ClosedSet
from char1.convex import FracBody, Polygon, random_polygon
from char1.laws import SUITES, SuiteReport
from char1.paf import PAF, random_paf
from char1.valuation import CirclePAF
from test_acceptance import GOLDEN


def run_cli(tmp_path, verb, payload=None, *extra):
    argv = [verb, *extra]
    if payload is not None:
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(payload), encoding="utf-8")
        argv += ["--input", str(inp)]
    out = tmp_path / "out"
    argv += ["--output", str(out)]
    code = main(argv)
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return code, text


def paf_json(*samples):
    return PAF.from_samples(samples).to_json()


LINE = {"domain": ["0", "1"], "breakpoints": ["0", "1"],
        "pieces": [{"a": "2", "b": "-1"}]}


def test_paf_eval_golden(tmp_path):
    code, out = run_cli(tmp_path, "paf-eval", {"f": LINE, "t": "1/2"})
    assert code == 0 and json.loads(out) == {"value": "0"}


def test_paf_oplus_golden(tmp_path):
    payload = {"f": paf_json((0, 0), (1, 1)), "g": paf_json((0, 1), (1, 0))}
    code, out = run_cli(tmp_path, "paf-oplus", payload)
    assert code == 0
    assert json.loads(out)["result"] == {
        "domain": ["0", "1"],
        "breakpoints": ["0", "1/2", "1"],
        "pieces": [{"a": "-1", "b": "1"}, {"a": "1", "b": "0"}],
    }


def test_paf_norm_golden(tmp_path):
    code, out = run_cli(tmp_path, "paf-norm", {"f": LINE})
    assert code == 0 and json.loads(out) == {"r": "1"}


def test_paf_clamp_golden(tmp_path):
    code, out = run_cli(tmp_path, "paf-clamp", {"f": LINE, "c": "1/2"})
    assert code == 0
    assert json.loads(out)["result"] == {
        "domain": ["0", "1"],
        "breakpoints": ["0", "1/4", "3/4", "1"],
        "pieces": [{"a": "0", "b": "-1/2"}, {"a": "2", "b": "-1"},
                   {"a": "0", "b": "1/2"}],
    }


def test_paf_plot_golden(tmp_path):
    code, out = run_cli(tmp_path, "paf-plot", {"f": paf_json((0, 0), (1, 1))},
                        "--samples", "3")
    assert code == 0
    assert out == "0,0\n1/2,1/2\n1,1\n"


def test_paf_plot_includes_breakpoints(tmp_path):
    payload = {"f": paf_json((0, 1), ("1/2", "1/2"), (1, 1))}  # max(t, 1-t)
    code, out = run_cli(tmp_path, "paf-plot", payload, "--samples", "5")
    assert code == 0 and "1/2,1/2" in out.splitlines()
    code, out = run_cli(tmp_path, "paf-plot", payload, "--samples", "2")
    assert code == 0 and "1/2,1/2" in out.splitlines()


def test_paf_plot_rejects_samples_over_the_bound(tmp_path):
    code, out = run_cli(tmp_path, "paf-plot", {"f": LINE}, "--samples",
                        str(cli.MAX_PLOT_SAMPLES + 1))
    assert code == 2 and out == ""


def test_paf_plot_rejects_single_sample(tmp_path):
    code, _ = run_cli(tmp_path, "paf-plot", {"f": LINE}, "--samples", "1")
    assert code == 2


def test_poly_hull_union_golden(tmp_path):
    payload = {"A": {"vertices": [["0", "0"], ["1", "0"]]},
               "B": {"vertices": [["0", "0"], ["0", "1"]]}}
    code, out = run_cli(tmp_path, "poly-hull-union", payload)
    assert code == 0
    assert json.loads(out)["result"] == {
        "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}


def test_poly_minkowski_golden(tmp_path):
    payload = {"A": {"vertices": [["0", "0"], ["1", "0"]]},
               "B": {"vertices": [["0", "0"], ["0", "1"]]}}
    code, out = run_cli(tmp_path, "poly-minkowski", payload)
    assert code == 0
    assert json.loads(out)["result"] == {
        "vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]}


def test_poly_support_golden(tmp_path):
    payload = {"A": {"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]},
               "psi": ["1", "1"]}
    code, out = run_cli(tmp_path, "poly-support", payload)
    assert code == 0 and json.loads(out) == {"value": "2"}


def test_poly_rnorm_golden(tmp_path):
    payload = {"A": {"vertices": [["0", "0"], ["2", "0"], ["0", "1"]]}}
    code, out = run_cli(tmp_path, "poly-rnorm", payload)
    assert code == 0 and json.loads(out) == {"r": "2"}


def test_poly_rnorm_euclidean(tmp_path):
    payload = {"A": {"vertices": [["0", "0"], ["2", "0"], ["0", "1"]]}}
    code, out = run_cli(tmp_path, "poly-rnorm", payload, "--euclidean")
    got = json.loads(out)
    assert code == 0 and got["approximate"] is True
    assert abs(got["r_euclidean"] - 2.0) <= 1e-9


def test_poly_polar_golden(tmp_path):
    payload = {"E": {"vertices": [["-1", "-1"], ["1", "-1"], ["1", "1"], ["-1", "1"]]}}
    code, out = run_cli(tmp_path, "poly-polar", payload)
    assert code == 0
    assert json.loads(out)["result"] == {
        "vertices": [["-1", "0"], ["0", "-1"], ["1", "0"], ["0", "1"]]}


def test_spec_attain_golden(tmp_path):
    code, out = run_cli(tmp_path, "spec-attain", {"f": LINE})
    assert code == 0
    assert json.loads(out) == {"character": {"kind": "point", "t": "0"}, "value": "-1"}


def test_spec_classify_golden(tmp_path):
    payload = {"f": paf_json((0, 1), ("1/2", "1/2"), (1, 1))}
    code, out = run_cli(tmp_path, "spec-classify", payload)
    assert code == 0
    assert json.loads(out) == {"absorbing": True, "epsilon": "1/2",
                               "nonneg": True, "regular": True}


def test_cong_qnorm_golden(tmp_path):
    payload = {"f": LINE, "K1": {"intervals": [["1/4", "1/2"]]}}
    code, out = run_cli(tmp_path, "cong-qnorm", payload)
    assert code == 0 and json.loads(out) == {"r": "1/2"}


def test_cong_minrep_golden(tmp_path):
    payload = {"f": LINE, "K1": {"intervals": [["1/4", "1/2"]]}}
    code, out = run_cli(tmp_path, "cong-minrep", payload)
    got = json.loads(out)
    assert code == 0 and got["r"] == "1/2"
    assert got["result"]["breakpoints"] == ["0", "1/4", "3/4", "1"]


def test_cong_zariski_golden(tmp_path):
    payload = {"K1": {"intervals": [["1/4", "1/2"]]},
               "K2": {"intervals": [["3/8", "1"]]}}
    code, out = run_cli(tmp_path, "cong-zariski", payload)
    got = json.loads(out)
    assert code == 0
    assert got["V"] == {"intervals": [["1/4", "1/2"]]}
    assert got["V_join"] == {"intervals": [["3/8", "1/2"]]}
    assert got["V_meet"] == {"intervals": [["1/4", "1"]]}
    assert got["laws_ok"] is True


def test_val_kink_golden(tmp_path):
    payload = {"f": paf_json((0, "1/2"), ("1/2", 0), (1, "1/2")), "x": "1/2"}
    code, out = run_cli(tmp_path, "val-kink", payload)
    assert code == 0 and json.loads(out) == {"kink": "2"}


def test_val_convexity_golden(tmp_path):
    payload = {"f": paf_json((0, "1/2"), ("1/2", 0), (1, "1/2"))}
    code, out = run_cli(tmp_path, "val-convexity", payload)
    assert code == 0 and json.loads(out) == {"convex": True}


def test_val_circle_check_golden(tmp_path):
    payload = {"s": {"cyclic": True, "breakpoints": ["0"],
                     "pieces": [{"a": "0", "b": "3"}]}}
    code, out = run_cli(tmp_path, "val-circle-check", payload)
    assert code == 0 and json.loads(out) == {"constant": True, "valid": True}


def test_laws_run_golden(tmp_path):
    code, out = run_cli(tmp_path, "laws-run", None, "semifield", "--seed", "7",
                        "--cases", "25")
    got = json.loads(out)
    assert code == 0
    assert got["suite"] == "semifield"
    assert got["failed"] == 0 and got["passed"] > 0
    assert got["first_counterexample"] is None


# Checks per suite at seed 7 and 25 cases: a change to any suite's draws or
# checks moves its count.
LAWS_RUN_COUNTS = {"semifield": 225, "decomposition": 110, "norm": 336, "convex": 1132,
                   "character": 688, "congruence": 325, "valuation": 557}


@pytest.mark.parametrize("suite", sorted(LAWS_RUN_COUNTS))
def test_laws_run_case_counts(tmp_path, suite):
    code, out = run_cli(tmp_path, "laws-run", None, suite, "--seed", "7", "--cases", "25")
    got = json.loads(out)
    assert code == 0 and got["suite"] == suite
    assert got["cases"] == got["passed"] == LAWS_RUN_COUNTS[suite]
    assert got["failed"] == 0


@pytest.mark.parametrize("cases", [0, cli.MAX_LAWS_CASES + 1])
def test_laws_run_rejects_cases_out_of_bounds(tmp_path, capsys, cases):
    code, out = run_cli(tmp_path, "laws-run", None, "semifield", "--cases", str(cases))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        f"char1: precondition violated: laws-run needs 1 to 10000 cases, got {cases}\n")


def test_laws_run_accepts_the_largest_case_count(tmp_path, monkeypatch):
    seen = []

    def tiny_suite(seed=0, cases=1):
        seen.append(cases)
        return SuiteReport("tiny", cases, 0, None)

    monkeypatch.setitem(SUITES, "tiny", tiny_suite)
    code, out = run_cli(tmp_path, "laws-run", None, "tiny", "--cases", "10000")
    assert code == 0 and seen == [10000]
    assert json.loads(out)["cases"] == 10000


def test_laws_run_unknown_suite(tmp_path):
    code, _ = run_cli(tmp_path, "laws-run", None, "nonsense")
    assert code == 1


def test_laws_run_env_seed_override(tmp_path, monkeypatch):
    monkeypatch.setenv("CHAR1_SEED", "99")
    code, out = run_cli(tmp_path, "laws-run", None, "decomposition", "--seed", "3",
                        "--cases", "5")
    assert code == 0 and json.loads(out)["failed"] == 0


def test_unknown_verb(tmp_path):
    code, _ = run_cli(tmp_path, "frobnicate", {"f": LINE})
    assert code == 1


def test_schema_violations_exit_1(tmp_path):
    code, _ = run_cli(tmp_path, "paf-eval", {"f": {"bad": True}, "t": "1/2"})
    assert code == 1
    code, _ = run_cli(tmp_path, "paf-eval", {"t": "1/2"})
    assert code == 1
    inp = tmp_path / "bad.json"
    inp.write_text("not json", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["paf-norm", "--input", str(inp), "--output", str(out)]) == 1


@pytest.mark.parametrize("section", [None, 3, "x", True, 1.5])
def test_circle_check_rejects_non_objects(tmp_path, capsys, section):
    code, out = run_cli(tmp_path, "val-circle-check", {"s": section})
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("char1: schema violation:") and err.count("\n") == 1


CONSTANT_SECTION = {"cyclic": True, "breakpoints": ["0"], "pieces": [{"a": "0", "b": "3"}]}


@pytest.mark.parametrize("field, value", [
    ("breakpoints", "0"),
    ("breakpoints", {"0": 1}),
    ("pieces", {"a": "0", "b": "3"}),
], ids=["breakpoints-string", "breakpoints-object", "pieces-object"])
def test_circle_section_fields_must_be_lists(tmp_path, capsys, field, value):
    code, out = run_cli(tmp_path, "val-circle-check", {"s": {**CONSTANT_SECTION, field: value}})
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"char1: schema violation: {field} must be a list\n"


QUAD_SHAPE = 'a quadratic scalar must be a "p/q" string or an object {"a": "p/q", "b": "p/q"}'
PIECE_SHAPE = 'pieces[1] must be an object with "a" and "b"'
TENT = {"cyclic": True, "breakpoints": ["0", {"a": "-1", "b": "1"}],
        "pieces": [{"a": {"a": "0", "b": "1"}, "b": "0"}, {"a": "-1", "b": "1"}]}


@pytest.mark.parametrize("verb, payload, message", [
    ("val-circle-check", {"s": {**CONSTANT_SECTION, "breakpoints": [0]}}, QUAD_SHAPE),
    ("val-circle-check", {"s": {**CONSTANT_SECTION, "breakpoints": [["0", "1"]]}}, QUAD_SHAPE),
    ("val-circle-check", {"s": {**CONSTANT_SECTION, "breakpoints": [{"a": "0"}]}}, QUAD_SHAPE),
    ("val-circle-check", {"s": {**CONSTANT_SECTION, "breakpoints": [{"a": 0, "b": "1"}]}},
     QUAD_SHAPE),
    ("val-circle-check", {"s": {**CONSTANT_SECTION, "pieces": [{"a": None, "b": "3"}]}},
     QUAD_SHAPE),
    ("val-circle-check", {"s": {**TENT, "pieces": [TENT["pieces"][0], "x"]}}, PIECE_SHAPE),
    ("val-circle-check", {"s": {**TENT, "pieces": [TENT["pieces"][0], ["-1", "1"]]}},
     PIECE_SHAPE),
    ("val-circle-check", {"s": {**TENT, "pieces": [TENT["pieces"][0], {"b": "1"}]}},
     PIECE_SHAPE),
    ("paf-eval", {"f": {**LINE, "breakpoints": ["0", "1/2", "1"],
                        "pieces": [LINE["pieces"][0], "x"]}, "t": "1/2"}, PIECE_SHAPE),
    ("paf-eval", {"f": {**LINE, "breakpoints": ["0", "1/2", "1"],
                        "pieces": [LINE["pieces"][0], {"a": "1"}]}, "t": "1/2"}, PIECE_SHAPE),
    ("val-circle-check", {"s": {**TENT, "pieces": [{"a": "1", "b": "0"}, TENT["pieces"][1]]}},
     'discontinuity at {"a": "-1", "b": "1"}'),
    ("paf-eval", {"f": {"domain": ["0", "1"], "breakpoints": ["0", "1"]}, "t": "1/2"},
     "missing field 'pieces' in a PAF"),
    ("poly-support", {"A": {"vertices": [["0", "0"]]}, "psi": ["0", "0"]},
     "direction must be nonzero"),
], ids=["breakpoint-int", "breakpoint-list", "breakpoint-no-b", "breakpoint-int-a",
        "piece-null", "circle-piece-string", "circle-piece-list", "circle-piece-no-a",
        "paf-piece-string", "paf-piece-no-b", "discontinuity-wire-form",
        "paf-missing-pieces", "direction-precondition"])
def test_element_shapes_are_named(tmp_path, capsys, verb, payload, message):
    code, out = run_cli(tmp_path, verb, payload)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"char1: schema violation: {message}\n"


def test_tent_section_with_an_irrational_breakpoint(tmp_path):
    assert run_cli(tmp_path, "val-circle-check", {"s": TENT}) == \
        (0, '{"constant": false, "valid": false}\n')


SQUARE01 = {"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]}


@pytest.mark.parametrize("verb, payload", [
    ("poly-support", {"A": SQUARE01, "psi": "10"}),
    ("poly-support", {"A": {"vertices": ["12", "30"]}, "psi": ["1", "0"]}),
    ("poly-support", {"A": SQUARE01, "psi": {"1": 0, "0": 1}}),
    ("cong-qnorm", {"f": LINE, "K1": {"intervals": ["01"]}}),
    ("cong-zariski", {"K1": {"intervals": ""}}),
    ("cong-zariski", {"K1": {"intervals": {}}}),
    ("paf-eval", {"f": {**LINE, "domain": "01", "breakpoints": "01"}, "t": "1/2"}),
    ("paf-eval", {"f": {**LINE, "domain": {"0": 1, "1": 2}}, "t": "1/2"}),
    ("paf-eval", {"f": {**LINE, "pieces": {"a": "2", "b": "-1"}}, "t": "1/2"}),
    ("poly-support", {"A": {"vertices": {}}, "psi": ["1", "0"]}),
], ids=["psi-string", "vertex-strings", "psi-object", "interval-string",
        "intervals-string", "intervals-object", "paf-strings", "domain-object",
        "pieces-object", "vertices-object"])
def test_pairs_must_be_lists_of_two(tmp_path, capsys, verb, payload):
    code, out = run_cli(tmp_path, verb, payload)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("char1: schema violation:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", sorted(cli._VERBS))
def test_missing_field_is_a_schema_violation(tmp_path, capsys, verb):
    code, out = run_cli(tmp_path, verb, {})
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("char1: schema violation: missing field ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_missing_input_file(tmp_path, capsys):
    code = main(["paf-norm", "--input", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("char1: cannot read ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unwritable_output(tmp_path, capsys):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"f": LINE}), encoding="utf-8")
    out = tmp_path / "absent-dir" / "out"
    code = main(["paf-norm", "--input", str(inp), "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err.startswith("char1: cannot write ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_non_utf8_input(tmp_path, capsys):
    inp = tmp_path / "in.json"
    inp.write_bytes(b'{"t": "\xff"}')
    code = main(["paf-eval", "--input", str(inp)])
    err = capsys.readouterr().err
    assert code == 1 and err == "char1: schema violation: input is not UTF-8 text\n"


def test_precondition_violations_exit_2(tmp_path):
    code, _ = run_cli(tmp_path, "paf-eval", {"f": LINE, "t": "3/2"})
    assert code == 2
    code, _ = run_cli(tmp_path, "paf-clamp", {"f": LINE, "c": "-1"})
    assert code == 2
    code, _ = run_cli(tmp_path, "cong-qnorm", {"f": LINE, "K1": {"intervals": []}})
    assert code == 2


def test_verb_output_matches_library(tmp_path):
    rng = random.Random(3)
    f = random_paf(rng)
    code, out = run_cli(tmp_path, "paf-norm", {"f": f.to_json()})
    assert code == 0 and json.loads(out)["r"] == str(f.r_norm())


# -- round-trip fuzzing ------------------------------------------------------------

sample_values = st.lists(
    st.tuples(st.sampled_from(range(0, 9)),
              st.fractions(min_value=-4, max_value=4, max_denominator=6)),
    min_size=2, max_size=5,
    unique_by=lambda tv: tv[0]).map(
        lambda tvs: sorted((t, v) for t, v in tvs))


@settings(max_examples=60)
@given(sample_values)
def test_paf_json_fuzz(tvs):
    if len({t for t, _ in tvs}) < 2:
        return
    from fractions import Fraction
    f = PAF.from_samples([(Fraction(t, 8), v) for t, v in tvs])
    assert PAF.from_json(json.loads(json.dumps(f.to_json()))) == f


def test_other_json_roundtrips():
    rng = random.Random(13)
    for _ in range(25):
        p = random_polygon(rng)
        assert Polygon.from_json(json.loads(json.dumps(p.to_json()))) == p
        k = ClosedSet.of((0, "1/4"), ("1/3", "1/2"))
        assert ClosedSet.from_json(json.loads(json.dumps(k.to_json()))) == k
        s = CirclePAF.constant(3)
        assert CirclePAF.from_json(json.loads(json.dumps(s.to_json()))) == s


# -- warnings, limits and fuzzing at the boundary ----------------------------------

ZERO_WARNING = "char1: warning: norm attainment on the zero element is degenerate\n"


@pytest.mark.parametrize("payload", [
    {"f": {**LINE, "pieces": [{"a": "0", "b": "0"}]}},
    {"A": {"vertices": [["0", "0"]]}},
], ids=["zero-paf", "zero-body"])
def test_zero_element_warning_is_one_line(tmp_path, capsys, payload):
    code, out = run_cli(tmp_path, "spec-attain", payload)
    assert code == 0 and json.loads(out)["value"] == "0"
    assert capsys.readouterr().err == ZERO_WARNING


def _run_text(verb, text, *extra):
    """(exit code, stdout, stderr) of main on stdin text; an exception that
    escapes main propagates."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb, *extra])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def test_digit_limits_at_the_boundary():
    digits = 4300
    line = json.dumps({"f": LINE, "t": "1/2"})
    # an unread integer literal at the limit decodes; one digit more does not
    assert _run_text("paf-eval", line[:-1] + ', "n": ' + "7" * digits + "}")[:2] == \
        (0, '{"value": "0"}\n')
    assert _run_text("paf-eval", line[:-1] + ', "n": ' + "7" * (digits + 1) + "}") == \
        (1, "", f"char1: schema violation: integer literal with more than {digits} digits\n")
    # a result too long to print: inputs of 2,201 digits, a product of 4,401
    a, t = 10 ** 2200 + 1, f"{10 ** 2200}/{10 ** 2200 + 3}"
    f = {"domain": ["0", "1"], "breakpoints": ["0", "1"], "pieces": [{"a": str(a), "b": "0"}]}
    assert _run_text("paf-eval", json.dumps({"f": f, "t": t})) == \
        (2, "", f"char1: precondition violated: result has more than {digits} digits in p or q\n")


@pytest.mark.xfail(raises=AttributeError, strict=True,
                   reason="ROADMAP item 3: a list section escapes CirclePAF.from_json, "
                   "kept as the cli benchmark's example crash")
def test_list_section_is_a_schema_violation():
    code, out, err = _run_text("val-circle-check", json.dumps({"s": ["x"]}))
    assert code == 1 and err.count("\n") == 1


SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from([0.5, -2.0])
    | st.sampled_from(["0", "1", "-1", "1/2", "3/4", "2", "x", "", "1/0", "1.5", "1e9"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "b", "t", "psi", "kind", "vertices", "intervals",
                                       "breakpoints", "pieces", "domain", "cyclic", "point",
                                       "dir"]), inner, max_size=3),
    max_leaves=6)


def _subtrees(node, path=()):
    """The path of every value below the root of a JSON tree."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    out = []
    for key, child in items:
        out += [path + (key,)] + _subtrees(child, path + (key,))
    return out


@pytest.mark.parametrize("verb, golden, extra", [(v, p, x) for v, p, x, _ in GOLDEN],
                         ids=[v for v, *_ in GOLDEN])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzzed_golden_payloads_end_cleanly(verb, golden, extra, data):
    payload = copy.deepcopy(golden)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = _subtrees(payload)
        if not paths:
            break
        *parents, key = data.draw(st.sampled_from(paths))
        node = payload
        for k in parents:
            node = node[k]
        if data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(SMALL_JSON)
    # a list section is the one held crash (ROADMAP item 3), pinned above
    assume(not (verb == "val-circle-check" and isinstance(payload.get("s"), list)))
    code, out, err = _run_text(verb, json.dumps(payload), *extra)
    assert code in (0, 1, 2)
    if code:
        assert out == "" and err.count("\n") == 1 and err.startswith("char1: ")
    else:
        assert err in ("", ZERO_WARNING)

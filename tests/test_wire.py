"""The wire format: every decoder's bad shapes, the rational grammar and the
digit limits."""

import json
from fractions import Fraction

import pytest

from char1.congruence import ClosedSet
from char1.convex import Direction, Polygon
from char1.errors import PreconditionError, SchemaError
from char1.paf import PAF
from char1.scalars import MAX_DIGITS, fmt_rat, parse_int_literal, parse_rat
from char1.valuation import CirclePAF, Quad

LINE = {"domain": ["0", "1"], "breakpoints": ["0", "1"], "pieces": [{"a": "2", "b": "-1"}]}
SECTION = {"cyclic": True, "breakpoints": ["0"], "pieces": [{"a": "0", "b": "3"}]}
SQUARE = {"vertices": [["-1", "-1"], ["1", "-1"], ["1", "1"], ["-1", "1"]]}
QUAD_SHAPE = 'a quadratic scalar must be a "p/q" string or an object {"a": "p/q", "b": "p/q"}'

# decoder -> (non-object, missing field, wrong element type, constructor precondition),
# each a (wire value, exact SchemaError message) pair
BAD_SHAPES = {
    PAF.from_json: [
        ([], "a PAF must be an object"),
        ({"domain": ["0", "1"], "breakpoints": ["0", "1"]}, "missing field 'pieces' in a PAF"),
        ({**LINE, "breakpoints": [0, "1"]}, "rational must be a string, got int"),
        ({**LINE, "breakpoints": ["0", "1/2", "1"],
          "pieces": [{"a": "0", "b": "0"}, {"a": "0", "b": "1"}]},
         "discontinuity at breakpoint 1/2"),
    ],
    CirclePAF.from_json: [
        (3, 'circle sections carry "cyclic": true'),
        ({"cyclic": True, "breakpoints": ["0"]}, "missing field 'pieces' in a circle section"),
        ({**SECTION, "breakpoints": [0]}, QUAD_SHAPE),
        ({**SECTION, "breakpoints": ["0", "1/2"]}, "need exactly one arc per breakpoint"),
    ],
    Polygon.from_json: [
        ("x", "a polygon must be an object"),
        ({"vertex": [["0", "0"]]}, "missing field 'vertices' in a polygon"),
        ({"vertices": [["0", 0]]}, "rational must be a string, got int"),
        ({"vertices": []}, "a polygon needs at least one vertex"),
    ],
    ClosedSet.from_json: [
        (None, "a closed set must be an object"),
        ({}, "missing field 'intervals' in a closed set"),
        ({"intervals": [["0", None]]}, "rational must be a string, got NoneType"),
        ({"intervals": [["1", "0"]]}, "intervals must satisfy a <= b"),
    ],
    Direction.from_json: [
        ({"p": "1", "q": "0"}, "a direction must be a list of two rationals"),
        (["1"], "a direction must be a list of two rationals"),
        (["1", 0.5], "rational must be a string, got float"),
        (["0", "0"], "direction must be nonzero"),
    ],
    Quad.from_json: [
        (["0", "1"], QUAD_SHAPE),
        ({"a": "0"}, QUAD_SHAPE),
        ({"a": "0", "b": True}, QUAD_SHAPE),
        ({"a": "0", "b": "1/0"}, "bad rational '1/0': zero denominator"),
    ],
}
CASES = [(decode, data, message) for decode, rows in BAD_SHAPES.items()
         for data, message in rows]
IDS = [f"{decode.__qualname__}-{shape}" for decode in BAD_SHAPES
       for shape in ("non-object", "missing", "element", "precondition")]


@pytest.mark.parametrize("decode, data, message", CASES, ids=IDS)
def test_every_bad_shape_is_a_schema_violation(decode, data, message):
    with pytest.raises(SchemaError) as exc:
        decode(data)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("-0", 0), ("007", 7), ("-3/6", Fraction(-1, 2)), ("4/2", 2),
    ("9" * MAX_DIGITS, int("9" * MAX_DIGITS)),
    ("-1/" + "1" * MAX_DIGITS, Fraction(-1, int("1" * MAX_DIGITS))),
])
def test_rationals_in_the_wire_grammar(text, value):
    assert parse_rat(text) == value


@pytest.mark.parametrize("text", [
    "", "-", "/2", "1/", "1/-2", "+1", "1.5", ".5", "1e5", "1e999999999", "1_000", " 1",
    "1 ", "1/ 2", "١", "0x10", "inf", "nan",
])
def test_every_other_string_is_a_bad_rational(text):
    with pytest.raises(SchemaError, match=r'^bad rational .*: expected "p" or "p/q"'):
        parse_rat(text)


def test_zero_denominator():
    with pytest.raises(SchemaError, match=r"^bad rational '1/00': zero denominator$"):
        parse_rat("1/00")


@pytest.mark.parametrize("text", [
    "1" * (MAX_DIGITS + 1), "-" + "1" * (MAX_DIGITS + 1), "1/" + "1" * (MAX_DIGITS + 1),
])
def test_a_rational_one_digit_past_the_limit(text):
    with pytest.raises(SchemaError, match=f"^rational with more than {MAX_DIGITS} digits"):
        parse_rat(text)


def test_an_integer_literal_one_digit_past_the_limit():
    assert json.loads("[" + "7" * MAX_DIGITS + "]", parse_int=parse_int_literal) == \
        [int("7" * MAX_DIGITS)]
    for literal in ("7" * (MAX_DIGITS + 1), "-" + "7" * (MAX_DIGITS + 1)):
        with pytest.raises(SchemaError, match=f"^integer literal with more than {MAX_DIGITS}"):
            json.loads(f'{{"n": {literal}}}', parse_int=parse_int_literal)


@pytest.mark.parametrize("q", [10 ** MAX_DIGITS, -10 ** MAX_DIGITS,
                               Fraction(1, 10 ** MAX_DIGITS)],
                         ids=["numerator", "negative", "denominator"])
def test_an_output_one_digit_past_the_limit(q):
    with pytest.raises(PreconditionError, match=f"^result has more than {MAX_DIGITS} digits"):
        fmt_rat(q)


def test_an_output_at_the_limit():
    edge = 10 ** MAX_DIGITS - 1
    assert fmt_rat(-edge) == "-" + "9" * MAX_DIGITS
    assert fmt_rat(Fraction(1, edge)) == "1/" + "9" * MAX_DIGITS

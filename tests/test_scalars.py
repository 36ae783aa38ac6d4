"""The library boundary: every scalar, rational pair, sequence and natural
number a library entry takes is read by ``scalars.as_rat``,
``scalars.as_pair``, ``scalars.as_items`` or ``scalars.as_nat``, so a
malformed one raises ``PreconditionError``; so does an element of the wrong
model at a public entry (``scalars.check_model``).
The query forms keep their exact reader, ``convex._int_pair``, which raises
``PreconditionError`` too."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from char1.congruence import (ClosedSet, FractionRestriction, RestrictionCongruence,
                              class_of_zero_contains, cutoff, join, meet, min_representative,
                              order_witness, quotient_norm, related, zariski_laws)
from char1.convex import (Direction, FracBody, Polygon, PolygonFractionSemifield, char_eval,
                          frac_equal, frac_neg, frac_oplus, frac_plus, frac_scale, hull_union,
                          i_invariant, i_symmetrize, minkowski, polar, r_norm_body,
                          r_norm_euclidean, r_norm_frac)
from char1.errors import Char1Error, PreconditionError
from char1.laws import run_suite
from char1.paf import PAF, PAFSemifield, convex_split
from char1.scalars import as_nat, as_pair, as_rat, fmt_rat
from char1.semifield import SCALAR
from char1.spectrum import PointEval, attain_norm, classify, prescribe, separate
from char1.valuation import (CirclePAF, Quad, circle_section_valid, convexity_criterion, germ,
                             glue, is_local_unit, kink, restrict_to_arc, smooth_neighborhood,
                             valuation_at)

f = PAF.identity()
SQ = Polygon.square()
K = ClosedSet.of((F(1, 4), F(1, 2)))
R = RestrictionCongruence(K)
S = CirclePAF.constant(1)


def test_as_rat_keeps_a_fraction():
    q = F(3, 4)
    assert as_rat(q) is q


@pytest.mark.parametrize("v, expected", [(3, F(3)), (True, F(1)), ("-1/2", F(-1, 2)),
                                         (0.5, F(1, 2)), (F(6, 4), F(3, 2))])
def test_as_rat_returns_a_fraction(v, expected):
    # an int kept as an int would make ``/`` in the PAF walks float division
    q = as_rat(v)
    assert q.__class__ is F and q == expected


def test_as_pair_reads_both_coordinates():
    assert as_pair(("1/2", 3), "a pair") == (F(1, 2), F(3))
    with pytest.raises(PreconditionError, match="^an interval must be a pair of ints or"):
        as_pair((0,), "an interval")


@pytest.mark.parametrize("call, message", [
    (lambda: CirclePAF((0,), ((1,),)), "a piece must be a pair of Quads, ints or Fractions"),
    (lambda: CirclePAF.from_kinks(0, 0, [(0,)]),
     "a kink must be a pair of Quads, ints or Fractions"),
    (lambda: FractionRestriction(R).related((f,), (f, f)),
     "a fraction pair must be a pair of PAFs"),
    (lambda: FractionRestriction(R).related((f, f), (f, 3)),
     "a fraction pair must be a pair of PAFs"),
])
def test_a_pair_message_names_what_its_reader_takes(call, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        call()


# malformed scalars and shapes at library entries, and elements of the wrong model
PROBES = {
    "PAF.constant-str": lambda: PAF.constant("x"),
    "PAF.eval": lambda: f.eval("a"),
    "PAF.scale": lambda: f.scale("q"),
    "PAF.clamp": lambda: f.clamp("q"),
    "PAF.restrict": lambda: f.restrict("a", 1),
    "PAF.compose_affine": lambda: f.compose_affine("x", 0, 0, 1),
    "PAF-zero-den": lambda: PAF((0, "1/0"), ((1, 0),)),
    "PAF-piece-single": lambda: PAF((0, 1), ((1,),)),
    "PAF-breakpoint-tuple": lambda: PAF(((0,), (1,)), ((1, 0),)),
    "PAF-breakpoints-int": lambda: PAF(5, ((1, 0),)),
    "PAF-pieces-int": lambda: PAF((0, 1), 5),
    "PAF.from_samples-int": lambda: PAF.from_samples(5),
    "PAF.from_samples-single": lambda: PAF.from_samples([(0,), (1, 1)]),
    "PAF.constant-nan": lambda: PAF.constant(float("nan")),
    "PAF.constant-none": lambda: PAF.constant(None),
    "kink": lambda: kink(f, "a"),
    "valuation_at": lambda: valuation_at("x", f),
    "is_local_unit": lambda: is_local_unit(f, "x"),
    "smooth_neighborhood": lambda: smooth_neighborhood(f, "x"),
    "Quad": lambda: Quad("x"),
    "CirclePAF.constant": lambda: CirclePAF.constant("x"),
    "Polygon.dilate": lambda: Polygon.square().dilate("x"),
    "fmt_rat": lambda: fmt_rat("x"),
    "ClosedSet-single": lambda: ClosedSet([(0,)]),
    "ClosedSet-int": lambda: ClosedSet(5),
    "Polygon-int": lambda: Polygon(5),
    "Polygon.hull-int": lambda: Polygon.hull(5),
    "CirclePAF-piece-single": lambda: CirclePAF((0,), ((1,),)),
    "CirclePAF-breakpoints-int": lambda: CirclePAF(5, ((0, 1),)),
    "CirclePAF.from_kinks-single": lambda: CirclePAF.from_kinks(0, 0, [(0,)]),
    "CirclePAF.from_kinks-int": lambda: CirclePAF.from_kinks(0, 0, 5),
    "ClosedSet.of": lambda: ClosedSet.of(("x", 1)),
    "ClosedSet.contains": lambda: ClosedSet.point(0).contains("x"),
    "PointEval": lambda: PointEval("x"),
    "SCALAR.scale": lambda: SCALAR.scale("x", F(1)),
    "SCALAR.scale-element": lambda: SCALAR.scale(1, "x"),
    "cutoff-slope": lambda: cutoff(f, ClosedSet.point(0), "x"),
    "PAF.oplus-int": lambda: f.oplus(3),
    "PAF.add-int": lambda: f + 3,
    "PAF.sub-int": lambda: f - 3,
    "PAF.tropical_min-int": lambda: f.tropical_min(3),
    "quotient_norm-int": lambda: quotient_norm(f, K, 3),
    "hull_union-int": lambda: hull_union(SQ, 3),
    "minkowski-int": lambda: minkowski(SQ, 3),
    "r_norm_frac-unit-int": lambda: r_norm_frac(FracBody.of(SQ), 3),
    "r_norm_frac-int": lambda: r_norm_frac(3, SQ),
    "attain_norm-unit-int": lambda: attain_norm(FracBody.of(SQ), 3),
    "frac_oplus-int": lambda: frac_oplus(FracBody.of(SQ), 3),
    "frac_equal-int": lambda: frac_equal(FracBody.of(SQ), 3),
    "frac_plus-int": lambda: frac_plus(FracBody.of(SQ), 3),
    "frac_scale-int": lambda: frac_scale(1, 3),
    "frac_neg-int": lambda: frac_neg(3),
    "FracBody-int": lambda: FracBody(3, SQ),
    "char_eval-int": lambda: char_eval(Direction(1, 0), 3, SQ),
    "r_norm_body-int": lambda: r_norm_body(3, SQ),
    "r_norm_body-unit-int": lambda: r_norm_body(SQ, 3),
    "polar-int": lambda: polar(3),
    "r_norm_euclidean-int": lambda: r_norm_euclidean(3),
    "i_invariant-int": lambda: i_invariant(3),
    "classify-int": lambda: classify(3),
    "quotient_norm-f-int": lambda: quotient_norm(3, K),
    "quotient_norm-k-int": lambda: quotient_norm(f, 3),
    "convexity_criterion-int": lambda: convexity_criterion(3),
    "ClosedSet.union-int": lambda: ClosedSet.of((0, 1)).union(3),
    "ClosedSet.intersect-int": lambda: ClosedSet.of((0, 1)).intersect(3),
    "RestrictionCongruence-int": lambda: RestrictionCongruence(3),
    "zariski_laws-int": lambda: zariski_laws(R, 3),
    "zariski_laws-first-int": lambda: zariski_laws(3, R),
    "meet-int": lambda: meet(3, R),
    "join-int": lambda: join(R, 3),
    "related-int": lambda: related(3, f, f),
    "class_of_zero_contains-int": lambda: class_of_zero_contains(3, f),
    "order_witness-int": lambda: order_witness(3, f, K),
    "cutoff-f-int": lambda: cutoff(3, K),
    "cutoff-k-int": lambda: cutoff(f, 3),
    "FractionRestriction-int": lambda: FractionRestriction(3),
    "FractionRestriction.related-single": lambda: FractionRestriction(R).related((f,), (f, f)),
    "FractionRestriction.related-int": lambda: FractionRestriction(R).related((f, 3), (f, f)),
    "nat_mul-str": lambda: SCALAR.nat_mul("x", 1),
    "nat_mul-float": lambda: SCALAR.nat_mul(1.5, F(1)),
    "nat_mul-fraction": lambda: SCALAR.nat_mul(F(3, 2), F(1)),
    "nat_mul-negative": lambda: SCALAR.nat_mul(-1, F(1)),
    "div_by_nat-str": lambda: SCALAR.div_by_nat("2", F(1)),
    "div_by_nat-zero": lambda: SCALAR.div_by_nat(0, F(1)),
    "power_identity_check-none": lambda: SCALAR.power_identity_check(None, F(1), F(2)),
    "power_identity_check-float": lambda: SCALAR.power_identity_check(2.0, F(1), F(2)),
    "as_nat-below": lambda: as_nat(0, 1),
    "as_nat-object": lambda: as_nat(object(), 0),
    "run_suite-unknown": lambda: run_suite("nonsense"),
    "run_suite-float-cases": lambda: run_suite("convex", cases=2.5),
    "run_suite-negative-cases": lambda: run_suite("convex", cases=-3),
}


@pytest.mark.parametrize("call", PROBES.values(), ids=PROBES.keys())
def test_a_malformed_argument_is_a_precondition_error(call):
    with pytest.raises(PreconditionError):
        call()


# entry -> a call of it with one element drawn, the other arguments valid
MODEL_ENTRIES = {
    "kink": lambda x: kink(x, F(1, 2)),
    "valuation_at": lambda x: valuation_at(F(1, 2), x),
    "is_local_unit": lambda x: is_local_unit(x, F(1, 2)),
    "smooth_neighborhood": lambda x: smooth_neighborhood(x, F(1, 2)),
    "circle_section_valid": circle_section_valid,
    "germ": lambda x: germ(x, 0),
    "restrict_to_arc": lambda x: restrict_to_arc(x, 0, F(1, 2)),
    "glue": glue,
    "glue-item": lambda x: glue([restrict_to_arc(S, 0, F(3, 5)), x]),
    "convex_split": convex_split,
    "min_representative": lambda x: min_representative(x, K),
    "i_symmetrize": i_symmetrize,
    "prescribe": lambda x: prescribe(x, PointEval(0), PointEval(1), f, 0, 1),
}


@pytest.mark.parametrize("junk", [5, None])
@pytest.mark.parametrize("name", MODEL_ENTRIES)
def test_a_junk_model_is_a_precondition_error(name, junk):
    with pytest.raises(PreconditionError):
        MODEL_ENTRIES[name](junk)


def test_as_nat_keeps_an_int_and_reads_an_index():
    n = 10**30
    assert as_nat(n, 1) is n
    assert as_nat(0, 0) == 0 and as_nat(True, 1) == 1
    assert SCALAR.nat_mul(3, F(1, 2)) == F(3, 2) and SCALAR.div_by_nat(4, F(2)) == F(1, 2)
    with pytest.raises(PreconditionError, match=r"^expected a natural number >= 1, got 0$"):
        SCALAR.power_identity_check(0, F(1), F(2))
    with pytest.raises(PreconditionError, match=r"^not a natural number: 1\.5$"):
        SCALAR.nat_mul(1.5, F(1))


def test_quad_division_by_zero_stays_arithmetic():
    with pytest.raises(ZeroDivisionError):
        Quad(1) / Quad(0)


# -- the fuzz ---------------------------------------------------------------------

RATS = st.one_of(st.integers(-4, 4),
                 st.fractions(min_value=-4, max_value=4, max_denominator=6),
                 st.sampled_from(["1/2", "-3", 0.5, True]))
NOT_RATS = st.one_of(st.text(alphabet="abxyz /.-", max_size=5),  # never numeric: no digits
                     st.sampled_from(["1/0", None, math.nan, math.inf, -math.inf]),
                     st.builds(object))
JUNK = st.one_of(NOT_RATS, st.tuples(RATS, RATS))
SCALARS = st.one_of(RATS, JUNK)
BAD_PAIRS = st.one_of(st.lists(RATS, min_size=1, max_size=1).map(tuple),
                      st.lists(RATS, min_size=3, max_size=3).map(tuple),
                      st.tuples(NOT_RATS, RATS),
                      st.tuples(RATS, NOT_RATS),
                      st.sampled_from([None, 1, "1/0", math.nan]))
PAIRS = st.one_of(st.tuples(SCALARS, SCALARS), BAD_PAIRS, JUNK)

# entry -> a call of it with one scalar argument drawn, the others valid
SCALAR_ENTRIES = {
    "as_rat": as_rat,
    "fmt_rat": fmt_rat,
    "PAF.constant": PAF.constant,
    "PAF.constant-lo": lambda x: PAF.constant(0, x, 5),
    "PAF.affine": lambda x: PAF.affine(x, 1),
    "PAF.identity-hi": lambda x: PAF.identity(-5, x),
    "PAF-breakpoint": lambda x: PAF((-5, x, 5), ((0, 1), (0, 1))),
    "PAF-coefficient": lambda x: PAF((0, 1), ((0, x),)),
    "PAF.eval": f.eval,
    "PAF.call": f,
    "PAF.scale": f.scale,
    "PAF.clamp": f.clamp,
    "PAF.restrict": lambda x: f.restrict(x, 1),
    "PAF.compose_affine": lambda x: f.compose_affine(x, 0, 0, 1),
    "PAF.compose_affine-hi": lambda x: f.compose_affine(1, 0, 0, x),
    "PAFSemifield": lambda x: PAFSemifield(x, 5).unit,
    "PAFSemifield.scale": lambda x: PAFSemifield().scale(x, f),
    "ClosedSet.point": ClosedSet.point,
    "ClosedSet.contains": K.contains,
    "ClosedSet.within": lambda x: K.within(x, 1),
    "cutoff": lambda x: cutoff(f, K, x),
    "Polygon.square": Polygon.square,
    "Polygon.dilate": SQ.dilate,
    "frac_scale": lambda x: frac_scale(x, FracBody.of(SQ)),
    "PolygonFractionSemifield.scale":
        lambda x: PolygonFractionSemifield().scale(x, FracBody.of(SQ)),
    "Direction": lambda x: Direction(x, 1),
    "Polygon.support": lambda x: SQ.support((x, 1)),
    "Polygon.contains": lambda x: SQ.contains((0, x)),
    "char_eval": lambda x: char_eval((x, 1), SQ, SQ),
    "PointEval": PointEval,
    "prescribe": lambda x: prescribe(PAFSemifield(), PointEval(0), PointEval(1), f, x, 1),
    "SCALAR.scale": lambda x: SCALAR.scale(x, F(1)),
    "SCALAR.scale-element": lambda x: SCALAR.scale(1, x),
    "Quad": Quad,
    "Quad-b": lambda x: Quad(0, x),
    "Quad.add": lambda x: Quad(1) + x,
    "Quad.lt": lambda x: Quad(1) < x,
    "CirclePAF.constant": CirclePAF.constant,
    "CirclePAF-breakpoint": lambda x: CirclePAF((x,), ((0, 1),)),
    "CirclePAF.eval": S.eval,
    "germ": lambda x: germ(S, x),
    "restrict_to_arc": lambda x: restrict_to_arc(S, 0, x),
    "kink": lambda x: kink(f, x),
    "valuation_at": lambda x: valuation_at(x, f - f),
    "is_local_unit": lambda x: is_local_unit(f, x),
    "smooth_neighborhood": lambda x: smooth_neighborhood(f, x),
}

# entry -> a call of it with one pair drawn, the other arguments valid
PAIR_ENTRIES = {
    "as_pair": lambda p: as_pair(p, "a pair"),
    "PAF-piece": lambda p: PAF((0, 1), (p,)),
    "PAF.from_samples": lambda p: PAF.from_samples([(-5, 0), p]),
    "ClosedSet": lambda p: ClosedSet((p,)),
    "ClosedSet.of": lambda p: ClosedSet.of(p, (5, 6)),
    "Polygon": lambda p: Polygon(((0, 0), p)),
    "Polygon.hull": lambda p: Polygon.hull([p]),
    "Polygon.support": SQ.support,
    "Polygon.contains": SQ.contains,
    "char_eval": lambda p: char_eval(p, SQ, SQ),
    "separate": lambda p: separate(PointEval(0), PointEval(1), p),
}


def succeeds_or_raises_char1_error(call, arg):
    try:
        call(arg)
    except Char1Error:
        pass


@pytest.mark.parametrize("call", SCALAR_ENTRIES.values(), ids=SCALAR_ENTRIES.keys())
@settings(max_examples=40, deadline=None)
@given(x=SCALARS)
def test_a_scalar_argument_is_read_or_refused(call, x):
    succeeds_or_raises_char1_error(call, x)


@pytest.mark.parametrize("call", PAIR_ENTRIES.values(), ids=PAIR_ENTRIES.keys())
@settings(max_examples=40, deadline=None)
@given(p=PAIRS)
def test_a_pair_argument_is_read_or_refused(call, p):
    succeeds_or_raises_char1_error(call, p)


@pytest.mark.parametrize("name", SCALAR_ENTRIES)
@settings(max_examples=20, deadline=None)
@given(x=JUNK)
def test_a_junk_scalar_is_a_precondition_error(name, x):
    assume(not (name == "cutoff" and x is None))  # None is cutoff's default slope
    with pytest.raises(PreconditionError):
        SCALAR_ENTRIES[name](x)


@pytest.mark.parametrize("call", PAIR_ENTRIES.values(), ids=PAIR_ENTRIES.keys())
@settings(max_examples=20, deadline=None)
@given(p=BAD_PAIRS)
def test_a_malformed_pair_is_a_precondition_error(call, p):
    with pytest.raises(PreconditionError):
        call(p)

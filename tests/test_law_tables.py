"""Every law of the convex, character, congruence and valuation tables of
``char1.laws``, on arguments drawn by name.

Each table states what its argument names stand for; ``ARGUMENTS`` below
draws each name the same way, from the library generators through a
hypothesis-controlled ``Random``, so a failure shrinks.  A name that
stands for a value built from others (a hull union, a quotient norm, the
element separating two characters) is built from the arguments drawn under
those names."""

import inspect
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from char1 import congruence as cg
from char1 import convex as cx
from char1 import spectrum as sp
from char1 import valuation as vl
from char1.laws import (CHARACTER_LAWS, CONGRUENCE_LAWS, CONVEX_LAWS, VALUATION_LAWS,
                        random_circle_section, random_closed_set, random_convex_paf,
                        random_interior_point, random_kink_trial, random_nonneg_kinks)
from char1.paf import PAF, random_paf


def _distinct(draw, rng, same):
    """A draw of ``draw(rng)`` other than ``same``."""
    while (value := draw(rng)) == same:
        pass
    return value


def _unit(rng):
    return cx.Polygon.square(F(rng.randint(1, 4), rng.randint(1, 3)))


def _point(rng):
    return sp.PointEval(F(rng.randint(0, 12), 12))


def _vanishing_at(x0, rng):
    p = random_paf(rng)
    return p - PAF.constant(p.eval(x0))


def _cut(rng, d):
    """A random PAF vanishing on the set of r."""
    return cg.cutoff(random_paf(rng), d["r"].k)


def _circle_section(rng):
    while (s := random_circle_section(rng)) is None:
        pass
    return s


def _quadratic_point(rng):
    """A point of Q(sqrt 2) in (0, 1), irrational or not."""
    while not 0 < (s0 := vl.Quad(F(rng.randint(-2, 2), rng.randint(1, 3)),
                                 F(rng.randint(0, 2), rng.randint(1, 4)))) < 1:
        pass
    return s0


def _inside_a_cell(rng, d):
    bps = d["p"].breakpoints
    i = rng.randrange(len(bps) - 1)
    return bps[i] + (bps[i + 1] - bps[i]) * F(rng.randint(1, 7), 8)


def _half_gap(rng, d):
    x0, f = d["x0"], d["f"]
    return min([abs(t - x0) for t in f.breakpoints if t != x0] + [x0, 1 - x0]) / 2


# table -> argument name -> (rng, the arguments drawn so far) -> value
ARGUMENTS = {
    "convex": {
        "a": lambda rng, d: cx.random_polygon(rng),
        # now and then a itself, so that cancellativity meets a + c = b + c
        "b": lambda rng, d: d["a"] if rng.random() < 0.2 else cx.random_polygon(rng),
        "c": lambda rng, d: cx.random_polygon(rng),
        "union": lambda rng, d: cx.hull_union(d["a"], d["b"]),
        "ac": lambda rng, d: cx.minkowski(d["a"], d["c"]),
        "bc": lambda rng, d: cx.minkowski(d["b"], d["c"]),
        "inv": lambda rng, d: cx.i_symmetrize(cx.random_polygon(rng)),
        "unit": lambda rng, d: _unit(rng),
        "pole": lambda rng, d: cx.polar(d["unit"]),
    },
    "character": {
        "phi": lambda rng, d: _point(rng),
        "phi1": lambda rng, d: _point(rng),
        "phi2": lambda rng, d: _distinct(_point, rng, d["phi1"]),
        "z": lambda rng, d: sp.separate(d["phi1"], d["phi2"]),
        "psi": lambda rng, d: sp.SupportDir(cx.random_direction(rng), d["unit"]),
        "psi1": lambda rng, d: sp.SupportDir(cx.random_direction(rng), d["unit"]),
        "psi2": lambda rng, d: sp.SupportDir(
            _distinct(cx.random_direction, rng, d["psi1"].psi), d["unit"]),
        "f": lambda rng, d: random_paf(rng),
        "g": lambda rng, d: random_paf(rng),
        "q": lambda rng, d: F(rng.randint(-8, 8), rng.randint(1, 4)),
        "a": lambda rng, d: cx.random_polygon(rng),
        "b": lambda rng, d: cx.random_polygon(rng),
        "unit": lambda rng, d: _unit(rng),
    },
    "congruence": {
        "r": lambda rng, d: cg.RestrictionCongruence(random_closed_set(rng)),
        "r2": lambda rng, d: cg.RestrictionCongruence(random_closed_set(rng)),
        "f": lambda rng, d: random_paf(rng),
        "h": lambda rng, d: random_paf(rng),
        "g": lambda rng, d: d["f"] + _cut(rng, d),
        "rival": lambda rng, d: d["f"] + _cut(rng, d),
        "a": lambda rng, d: -_cut(rng, d).abs(),
        "c": lambda rng, d: _cut(rng, d).abs(),
        "b": lambda rng, d: d["c"].tropical_min(d["a"].oplus(random_paf(rng))),
        "qn": lambda rng, d: cg.quotient_norm(d["f"], d["r"].k),
        "high": lambda rng, d: d["f"].oplus(d["g"]) + _cut(rng, d),
        "w": lambda rng, d: cg.order_witness(d["f"], d["high"], d["r"].k),
        "f0": lambda rng, d: cg.cutoff(random_paf(rng), cg.join(d["r"], d["r2"]).k),
        "fr": lambda rng, d: cg.FractionRestriction(d["r"]),
        "A": lambda rng, d: random_convex_paf(rng),
        "B": lambda rng, d: random_convex_paf(rng),
        "C": lambda rng, d: random_convex_paf(rng),
    },
    "valuation": {
        "x0": lambda rng, d: random_interior_point(rng),
        "f": lambda rng, d: _vanishing_at(d["x0"], rng),
        "g": lambda rng, d: _vanishing_at(d["x0"], rng),
        "vf": lambda rng, d: vl.valuation_at(d["x0"], d["f"]),
        "vg": lambda rng, d: vl.valuation_at(d["x0"], d["g"]),
        "t": lambda rng, d: F(rng.randint(-6, 6), rng.randint(1, 3)),
        "extra": lambda rng, d: random_convex_paf(rng),
        "h": _half_gap,
        "p": lambda rng, d: random_paf(rng),
        "xs": _inside_a_cell,
        "alpha": lambda rng, d: F(rng.randint(1, 4), 4),
        "beta": lambda rng, d: min(F(rng.randint(0, 4), 8), 1 - d["alpha"]),
        "x_dst": lambda rng, d: random_interior_point(rng),
        "x_src": lambda rng, d: d["alpha"] * d["x_dst"] + d["beta"],
        "s": lambda rng, d: vl.CirclePAF.constant(F(rng.randint(-6, 6), rng.randint(1, 3))),
        "cand": lambda rng, d: _circle_section(rng),
        # a random section when it is valid, else a constant one
        "valid": lambda rng, d: (s if vl.circle_section_valid(s := _circle_section(rng))
                                 else vl.CirclePAF.constant(F(rng.randint(-6, 6)))),
        "kinks": lambda rng, d: random_nonneg_kinks(rng),
        "trials": lambda rng, d: [random_kink_trial(rng) for _ in range(rng.randint(1, 5))],
        "s0": lambda rng, d: _quadratic_point(rng),
        "a": lambda rng, d: F(rng.randint(-5, 5), rng.randint(1, 3)),
        "b": lambda rng, d: F(rng.randint(-5, 5), rng.randint(1, 3)),
        "a2": lambda rng, d: d["a"] + rng.randint(1, 3),
    },
}

TABLES = {"convex": CONVEX_LAWS, "character": CHARACTER_LAWS,
          "congruence": CONGRUENCE_LAWS, "valuation": VALUATION_LAWS}


class Draw(dict):
    """The arguments of one example: each name is drawn on first use, with
    a ``Random`` of its own that hypothesis controls."""

    def __init__(self, data, table):
        super().__init__()
        self.data, self.make = data, ARGUMENTS[table]

    def __missing__(self, name):
        rng = self.data.draw(st.randoms(use_true_random=False), label=name)
        self[name] = value = self.make[name](rng, self)
        return value


# the library generators draw directions and circle sections until one
# fits, so an all-zero draw, hypothesis's smallest, never ends
SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.large_base_example])


def holds(table, name, data):
    law = TABLES[table][name]
    draw = Draw(data, table)
    return law(*[draw[p] for p in inspect.signature(law).parameters]) is True


@pytest.mark.parametrize("name", CONVEX_LAWS)
@SETTINGS
@given(data=st.data())
def test_convex_law(name, data):
    assert holds("convex", name, data)


@pytest.mark.filterwarnings("ignore:norm attainment on the zero element is degenerate")
@pytest.mark.parametrize("name", CHARACTER_LAWS)
@SETTINGS
@given(data=st.data())
def test_character_law(name, data):
    assert holds("character", name, data)


@pytest.mark.parametrize("name", CONGRUENCE_LAWS)
@SETTINGS
@given(data=st.data())
def test_congruence_law(name, data):
    assert holds("congruence", name, data)


@pytest.mark.parametrize("name", VALUATION_LAWS)
@SETTINGS
@given(data=st.data())
def test_valuation_law(name, data):
    assert holds("valuation", name, data)


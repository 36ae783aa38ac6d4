"""The integer-surrogate query kernel against brute-force Fraction references.

The references recompute every quantity the direct way, on the exact
rational vertices: supports as the largest p*x + q*y, facets and the polar
from rational edge normals, gauges from the facet inequalities, and norms
and attaining directions by scanning every candidate ray in order.
"""

import math
import random
import warnings
from fractions import Fraction as F

import pytest

from char1 import convex as cx
from char1.convex import (
    Direction,
    FracBody,
    Polygon,
    PolygonFractionSemifield,
    char_eval,
    facets,
    polar,
    r_norm_body,
    r_norm_frac,
)
from char1.errors import PreconditionError
from char1.paf import PAF
from char1.spectrum import SupportDir, apply_char, attain_norm
from char1.valuation import convexity_criterion

E = Polygon.square()
TRI = Polygon([(0, 0), (2, 0), (0, 1)])


# -- references ----------------------------------------------------------------------


def ref_support(body, psi):
    p, q = F(psi[0]), F(psi[1])
    return max(p * x + q * y for x, y in body.vertices)


def ref_rays(body):
    v = body.vertices
    if len(v) == 1:
        return []
    if len(v) == 2:
        (ax, ay), (bx, by) = v
        return [(by - ay, ax - bx), (ay - by, bx - ax)]
    return [(qy - py, px - qx) for (px, py), (qx, qy) in zip(v, v[1:] + v[:1])]


def ref_facets(e):
    return [(n, n[0] * x + n[1] * y) for n, (x, y) in zip(ref_rays(e), e.vertices)]


def ref_polar(e):
    return Polygon(tuple((nx / c, ny / c) for (nx, ny), c in ref_facets(e)))


def ref_gauge(v, e):
    return max([F(0)] + [(nx * v[0] + ny * v[1]) / c for (nx, ny), c in ref_facets(e)])


def ref_char_eval(psi, x, e):
    if isinstance(x, FracBody):
        return (ref_support(x.pos, psi) - ref_support(x.neg, psi)) / ref_support(e, psi)
    return ref_support(x, psi) / ref_support(e, psi)


def ref_candidates(x, e):
    """Polar vertices of e, then edge normals of pos, then of neg."""
    return ([Direction(*v) for v in ref_polar(e).vertices]
            + [Direction(*n) for n in ref_rays(x.pos) + ref_rays(x.neg)])


def ref_attain(x, e):
    """(index of the first candidate attaining the norm, the norm)."""
    values = [abs(ref_char_eval(psi.as_pair(), x, e)) for psi in ref_candidates(x, e)]
    best = max(values)
    return values.index(best), best


def ref_contains(body, p):
    p = (F(p[0]), F(p[1]))
    v = body.vertices

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    if len(v) == 1:
        return p == v[0]
    if len(v) == 2:
        return cross(v[0], v[1], p) == 0 and min(v[0][0], v[1][0]) <= p[0] <= max(v[0][0], v[1][0]) \
            and min(v[0][1], v[1][1]) <= p[1] <= max(v[0][1], v[1][1])
    return all(cross(v[i], v[(i + 1) % len(v)], p) >= 0 for i in range(len(v)))


# -- random inputs -------------------------------------------------------------------


def random_body(rng, origin=True):
    """A point, a segment, a small polygon or a rational dilation of one,
    with rational vertices; ``origin`` puts the origin in the body."""
    kind = rng.choice(["point", "segment", "polygon", "dilated"])
    count = {"point": 1, "segment": 2, "polygon": rng.randint(3, 8), "dilated": 4}[kind]
    pts = [(F(rng.randint(-9, 9), rng.randint(1, 6)), F(rng.randint(-9, 9), rng.randint(1, 6)))
           for _ in range(count - origin)]
    if origin:
        pts.append((F(0), F(0)))
    body = Polygon(pts)
    if kind == "dilated":
        body = body.dilate(F(rng.randint(1, 9), rng.randint(1, 9)))
    return body


def random_unit(rng):
    """A non-square unit body: a rational quadrilateral around the origin
    plus one more point."""
    a, b, c, d = (F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(4))
    extra = (F(rng.randint(-6, 6), 3), F(rng.randint(-6, 6), 5))
    return Polygon([(a, F(1, 7)), (F(-1, 5), b), (-c, F(0)), (F(0), -d), extra])


def random_psi(rng):
    return (F(rng.randint(-9, 9), rng.randint(1, 5)), F(rng.randint(-9, 9), rng.randint(1, 5)))


def round_unit(rng, n):
    """A unit body with n rational vertices on an ellipse about the origin:
    (a(1 - t^2), 2bt) / (1 + t^2) at t = tan(theta / 2), rounded to a
    rational, for n angles theta each jittered inside its own n-th of the
    turn, so consecutive vertices are less than a half-turn apart."""
    a, b = F(rng.randint(1, 9), rng.randint(1, 4)), F(rng.randint(1, 9), rng.randint(1, 4))
    pts = []
    for k in range(n):
        theta = -math.pi + 2 * math.pi * (k + rng.uniform(0.4, 0.6)) / n
        t = F(math.tan(theta / 2)).limit_denominator(60)
        pts.append((a * (1 - t * t) / (1 + t * t), b * 2 * t / (1 + t * t)))
    return Polygon(pts)


ROUND_UNITS = [round_unit(random.Random(3), 3), round_unit(random.Random(4), 8),
               round_unit(random.Random(5), 19).dilate(F(7, 3)), round_unit(random.Random(6), 48)]
UNITS = [E, Polygon.square(F(3, 2)), random_unit(random.Random(1)), random_unit(random.Random(2)),
         *ROUND_UNITS]


# -- tests ---------------------------------------------------------------------------


def test_support_matches_reference():
    rng = random.Random(11)
    for _ in range(400):
        body = random_body(rng, origin=rng.random() < 0.5)
        psi = random_psi(rng)
        assert body.support(psi) == ref_support(body, psi)
        ints = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert body.support(ints) == ref_support(body, ints)


def test_contains_matches_reference():
    rng = random.Random(16)
    hits = 0
    for _ in range(400):
        body = random_body(rng, origin=rng.random() < 0.5)
        for p in [random_psi(rng), (0, 0), body.vertices[0],
                  ((body.vertices[0][0] + body.vertices[-1][0]) / 2,
                   (body.vertices[0][1] + body.vertices[-1][1]) / 2)]:
            assert body.contains(p) == ref_contains(body, p)
            hits += ref_contains(body, p)
        assert body.contains_origin() == ref_contains(body, (0, 0))
    assert 400 < hits < 1600


def test_round_units_have_3_to_48_vertices():
    assert [len(e.vertices) for e in ROUND_UNITS] == [3, 8, 19, 48]
    for e in ROUND_UNITS:
        assert facets(e)  # full-dimensional, the origin strictly inside


def test_unit_facets_polar_and_gauges_match_reference():
    rng = random.Random(12)
    for e in UNITS:
        assert polar(e) == ref_polar(e)
        for _ in range(60):
            a = random_body(rng, origin=rng.random() < 0.5)
            assert r_norm_body(a, e) == max(ref_gauge(v, e) for v in a.vertices)
            v = random_psi(rng)
            assert r_norm_body(Polygon((v,)), e) == ref_gauge(v, e)


def test_char_eval_matches_reference():
    rng = random.Random(13)
    for e in UNITS:
        for _ in range(100):
            psi = random_psi(rng)
            if psi == (0, 0):
                continue
            a = random_body(rng, origin=rng.random() < 0.5)
            x = FracBody(random_body(rng), random_body(rng))
            assert char_eval(psi, a, e) == ref_char_eval(psi, a, e)
            assert char_eval(psi, x, e) == ref_char_eval(psi, x, e)
            d = Direction(*psi)
            assert char_eval(d, x, e) == ref_char_eval(d.as_pair(), x, e)


def test_r_norm_frac_and_attain_norm_match_reference():
    rng = random.Random(14)
    winners = set()
    for e in UNITS:
        for _ in range(80):
            x = FracBody(random_body(rng), random_body(rng))
            cands = ref_candidates(x, e)
            first, best = ref_attain(x, e)
            assert r_norm_frac(x, e) == best
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                phi = attain_norm(x, e)
            assert phi == SupportDir(cands[first], e)
            if best:
                npolar = len(polar(e).vertices)
                winners.add("polar" if first < npolar
                            else "pos" if first < npolar + len(ref_rays(x.pos)) else "neg")
    assert winners == {"polar", "pos", "neg"}


def test_attain_norm_takes_the_first_tying_candidate():
    # every direction attains |l_E / l_E| = 1: the first polar vertex wins
    assert attain_norm(E, E).psi == Direction(-1, 0)
    # the polar vertices stay below the norm 3/2; the first edge normal of
    # pos, (1, -1), and an edge normal of neg, (-1, -1), both reach it
    x = FracBody(Polygon([(-2, -2), (0, 0), (-2, 0)]),
                 Polygon([(-2, 1), (1, -2), (0, 0)]))
    values = [abs(ref_char_eval(psi.as_pair(), x, E)) for psi in ref_candidates(x, E)]
    assert [i for i, v in enumerate(values) if v == F(3, 2)] == [4, 7]
    assert attain_norm(x, E).psi == Direction(1, -1)
    # only an edge normal of neg reaches the norm 5/3
    x = FracBody(Polygon([(-1, -2), (1, 1), (0, 0)]),
                 Polygon([(0, 0), (2, -1), (1, 0)]))
    assert r_norm_frac(x, E) == F(5, 3)
    assert attain_norm(x, E).psi == Direction(-1, -2)


def _big_paf(rng, slopes):
    ts = sorted(rng.sample(range(1, 10**6), len(slopes) - 1))
    ts = [F(0)] + [F(t, 10**6) for t in ts] + [F(1)]
    samples = [(ts[0], F(rng.randint(-9, 9)))]
    for (u, v), a in zip(zip(ts, ts[1:]), slopes):
        samples.append((v, samples[-1][1] + a * (v - u)))
    return PAF.from_samples(samples)


def test_convexity_criterion_on_large_pafs():
    rng = random.Random(15)
    for n in (128, 200):
        slopes = sorted({F(rng.randint(-10**4, 10**4), 1000) for _ in range(n + 20)})[:n]
        convex = _big_paf(rng, slopes)
        assert len(convex.breakpoints) == n + 1
        assert convexity_criterion(convex)
        for i in (0, n // 2, n - 2):
            bent = slopes[:i] + [slopes[i + 1], slopes[i]] + slopes[i + 2:]
            f = _big_paf(rng, bent)
            assert not convexity_criterion(f)
        shuffled = slopes[:]
        rng.shuffle(shuffled)
        f = _big_paf(rng, shuffled)
        assert convexity_criterion(f) == (shuffled == slopes)  # the slopes are distinct


def test_default_unit_is_one_shared_square():
    from char1 import cli
    from char1.convex import DEFAULT_UNIT, PolygonFractionSemifield

    assert DEFAULT_UNIT == E
    body = FracBody(TRI, Polygon([(0, 0), (-1, F(1, 2))]))
    assert attain_norm(body) == attain_norm(body, Polygon.square())
    assert attain_norm(TRI) == attain_norm(TRI, Polygon.square())
    assert attain_norm(body).unit is attain_norm(TRI).unit is DEFAULT_UNIT
    assert cli._unit_body({}) is cli._unit_body({}) is DEFAULT_UNIT
    assert PolygonFractionSemifield().unit.pos is DEFAULT_UNIT
    assert PolygonFractionSemifield().r_norm(body) == r_norm_frac(body, Polygon.square())


BAD_UNITS = [
    Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),  # origin on the boundary
    Polygon([(1, 1), (2, 1), (2, 2)]),  # origin outside
    Polygon([(-1, 0), (1, 0)]),  # not full-dimensional
    Polygon([(0, 0)]),
]

ENTRY_POINTS = {
    "gauge": lambda e: r_norm_body(Polygon(((F(1), F(1)),)), e),
    "r_norm_body": lambda e: r_norm_body(TRI, e),
    "polar": polar,
    "char_eval": lambda e: char_eval(Direction(1, 0), TRI, e),
    "r_norm_frac": lambda e: r_norm_frac(FracBody.of(TRI), e),
    "attain_norm": lambda e: attain_norm(TRI, e),
    "apply_char": lambda e: apply_char(SupportDir(Direction(1, 0), e), TRI),
    "semifield": PolygonFractionSemifield,
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_bad_unit_bodies_always_raise(name):
    call = ENTRY_POINTS[name]
    call(E)  # fills the cache of a good unit first
    assert facets(E) is facets(E)
    for bad in BAD_UNITS:
        for _ in range(2):
            with pytest.raises(PreconditionError):
                call(bad)


def test_no_norm_or_character_path_takes_a_hull_of_the_unit(monkeypatch):
    e = round_unit(random.Random(7), 40)
    a = Polygon([(F(1, 2), F(-3)), (F(-5, 3), F(2, 7)), (F(0), F(0))])
    b = Polygon([(F(4), F(1, 3)), (F(-1), F(-2, 5)), (F(0), F(0)), (F(2, 3), F(3))])
    x = FracBody(a, b)
    psi = (F(3), F(-2, 7))
    first, best = ref_attain(x, e)
    expected = {
        "r_norm_body": max(ref_gauge(v, e) for v in a.vertices),
        "r_norm_frac": best,
        "char_eval": ref_char_eval(psi, x, e),
        "attain_norm": SupportDir(ref_candidates(x, e)[first], e),
        "polar": ref_polar(e),
    }

    def no_hull(ipts):
        raise AssertionError("a hull was taken")

    monkeypatch.setattr(cx, "_int_hull", no_hull)
    assert len(e.vertices) == 40
    assert r_norm_body(a, e) == expected["r_norm_body"]
    assert r_norm_frac(x, e) == expected["r_norm_frac"]
    assert char_eval(psi, x, e) == expected["char_eval"]
    assert char_eval(Direction(*psi), a, e) == ref_char_eval(psi, a, e)
    assert attain_norm(x, e) == expected["attain_norm"]
    assert PolygonFractionSemifield(e).r_norm(x) == expected["r_norm_frac"]
    assert polar(e) == expected["polar"]

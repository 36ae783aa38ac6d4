import math
import random
import re
from fractions import Fraction as F

import pytest

from char1 import convex as cx
from char1 import laws
from char1.convex import (
    Direction,
    FracBody,
    Polygon,
    PolygonFractionSemifield,
    char_eval,
    frac_equal,
    frac_oplus,
    hull_union,
    i_invariant,
    i_symmetrize,
    merged_fan,
    minkowski,
    normal_fan_rays,
    polar,
    r_norm_body,
    r_norm_euclidean,
    r_norm_frac,
    random_direction,
    random_polygon,
)
from char1.errors import PreconditionError
from char1.laws import support_mismatch
from char1.paf import PAFSemifield

SEG_X = Polygon([(0, 0), (1, 0)])
SEG_Y = Polygon([(0, 0), (0, 1)])
SQUARE01 = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
TRI = Polygon([(0, 0), (2, 0), (0, 1)])
ORIGIN = Polygon([(0, 0)])
E = Polygon.square()


def test_hull_union_examples():
    assert hull_union(SEG_X, SEG_Y).vertices == ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
    assert hull_union(TRI, TRI) == TRI
    assert hull_union(ORIGIN, TRI) == TRI


def test_minkowski_examples():
    assert minkowski(SEG_X, SEG_Y) == SQUARE01
    assert minkowski(TRI, ORIGIN) == TRI
    assert minkowski(TRI, TRI) == TRI.dilate(2)


def test_hull_drops_interior_and_collinear_points():
    p = Polygon([(0, 0), (2, 0), (1, 0), (1, 1), (F(1, 2), F(1, 4))])
    assert p.vertices == ((F(0), F(0)), (F(2), F(0)), (F(1), F(1)))


def test_support_examples():
    assert SQUARE01.support((F(1), F(1))) == 2
    assert ORIGIN.support((F(3), F(-2))) == 0
    assert SEG_X.support((F(0), F(1))) == 0


def _random_body(rng, max_points=5, lim=5):
    """A random hull of 1 to max_points rational points, not always
    holding the origin."""
    return Polygon([(F(rng.randint(-lim, lim), rng.randint(1, 3)),
                     F(rng.randint(-lim, lim), rng.randint(1, 3)))
                    for _ in range(rng.randint(1, max_points))])


def _angle_from_straight_down(ray):
    """A float reference for the order of merged_fan: the CCW angle from
    straight down, in (0, 2*pi]."""
    angle = (math.atan2(ray[1], ray[0]) + math.pi / 2) % (2 * math.pi)
    return angle or 2 * math.pi


def test_merged_fan_rays_are_sorted_primitive_and_less_than_a_half_turn_apart():
    rng = random.Random(3)
    for _ in range(300):
        bodies = [_random_body(rng) for _ in range(rng.randint(0, 4))]
        fan = merged_fan(*bodies)
        assert fan == sorted(set(fan), key=_angle_from_straight_down)
        assert all(math.gcd(p, q) == 1 for p, q in fan)
        assert {(1, 0), (0, 1), (-1, 0), (0, -1)} <= set(fan)
        for body in bodies:
            assert set(normal_fan_rays(body)) <= set(fan)
        for (p1, q1), (p2, q2) in zip(fan, fan[1:] + fan[:1]):
            assert p1 * q2 - q1 * p2 > 0  # strictly between 0 and a half-turn


@pytest.mark.parametrize("body, normals", [
    (ORIGIN, []),
    (Polygon([(0, 0), (3, 6)]), [(2, -1), (-2, 1)]),
    (Polygon.square(2), [(0, -1), (1, 0), (0, 1), (-1, 0)]),
    (Polygon([(0, 0), (6, 0), (0, 9)]), [(0, -1), (3, 2), (-1, 0)]),
    (Polygon([(0, 0), (F(4, 3), 0), (F(4, 3), F(8, 5))]), [(0, -1), (1, 0), (-6, 5)]),
], ids=["point", "segment", "square", "long-edged triangle", "rational triangle"])
def test_normal_fan_rays_are_primitive_in_walk_order(body, normals):
    # edge i of the walk from the lexicographic minimum has normal i
    assert normal_fan_rays(body) == normals


def test_a_polar_unit_has_normals_no_wider_than_the_unit():
    # the round unit of the big-inputs CI job, at 256 vertices: polar(E)
    # carries the lcm of its vertex denominators, which a non-primitive
    # edge normal of polar(E) would carry too
    n, r = 256, 9 * 10 ** 19
    e = Polygon([(int(r * math.cos(2 * math.pi * k / n)), int(r * math.sin(2 * math.pi * k / n)))
                 for k in range(n)])
    width = max(abs(c) for v in e._iverts for c in v).bit_length()
    p = polar(e)
    assert max(abs(c) for normal, _ in cx.facets(p) for c in normal).bit_length() <= width
    assert polar(p) == e


def test_support_check_catches_a_hull_union_that_agrees_on_the_merged_fan():
    a, b = Polygon(((1, 0),)), Polygon(((0, 1),))
    wrong = Polygon([(1, 0), (0, 1), (1, 1)])
    total = minkowski(a, b)
    for ray in merged_fan(a, b, wrong, total):
        assert wrong.support(ray) == max(a.support(ray), b.support(ray))
    assert support_mismatch(a, b, wrong, total) == ("support of hull-union", (1, 1))


def test_support_check_catches_a_minkowski_sum_missing_a_vertex():
    rng = random.Random(5)
    caught = 0
    for _ in range(100):
        a, b = _random_body(rng, max_points=4), _random_body(rng, max_points=4)
        total = minkowski(a, b)
        if total.dim == 0:
            continue
        for i in range(len(total.vertices)):
            dropped = Polygon(total.vertices[:i] + total.vertices[i + 1:])
            label, ray = support_mismatch(a, b, hull_union(a, b), dropped)
            assert label == "support of minkowski sum"
            assert dropped.support(ray) != a.support(ray) + b.support(ray)
            caught += 1
    assert caught > 200


def test_support_check_passes_correct_pairs_of_every_dimension():
    rng = random.Random(6)
    dims = set()
    for _ in range(300):
        a, b = _random_body(rng, max_points=3), _random_body(rng, max_points=3)
        assert support_mismatch(a, b, hull_union(a, b), minkowski(a, b)) is None
        dims.add((a.dim, b.dim))
    assert dims == {(i, j) for i in range(3) for j in range(3)}


def test_convex_suite_shows_the_pair_and_ray_of_a_wrong_sum(monkeypatch):
    real = cx.minkowski

    def drop_last_vertex(a, b):
        total = real(a, b)
        return Polygon(total.vertices[:-1]) if total.dim else total

    monkeypatch.setattr(cx, "minkowski", drop_last_vertex)
    report = laws.run_convex_suite(seed=1, cases=5)
    assert report.failed > 0
    assert re.fullmatch(r"support of minkowski sum: Polygon\(.*\), Polygon\(.*\), \(-?\d+, -?\d+\)",
                        report.first_counterexample)


def test_gauge_and_rnorm_examples():
    assert r_norm_body(TRI, E) == 2
    assert r_norm_body(E, E) == 1
    assert r_norm_body(ORIGIN, E) == 0
    assert r_norm_body(Polygon(((F(2), F(0)),)), E) == 2
    assert r_norm_body(Polygon(((F(0), F(0)),)), E) == 0


def test_gauge_rejects_degenerate_unit():
    with pytest.raises(PreconditionError):
        r_norm_body(Polygon(((F(1), F(1)),)), SEG_X)
    shifted = Polygon([(1, 1), (2, 1), (2, 2), (1, 2)])
    with pytest.raises(PreconditionError):
        r_norm_body(Polygon(((F(1), F(1)),)), shifted)


def test_polar_examples():
    cross = polar(E)
    assert cross.vertices == ((F(-1), F(0)), (F(0), F(-1)), (F(1), F(0)), (F(0), F(1)))
    assert polar(cross) == E


def test_bipolar_on_random_units():
    rng = random.Random(9)
    count = 0
    while count < 30:
        e = random_polygon(rng, max_extra=4, lim=3)
        if _facets(e) is None:
            continue
        count += 1
        assert polar(polar(e)) == e


def _facets(e):
    """The facets of e, or None if e is not a unit body."""
    from char1.convex import facets

    try:
        return facets(e)
    except PreconditionError:
        return None


def test_char_eval_examples():
    assert char_eval(Direction(1, 0), SQUARE01, E) == 1
    assert char_eval(Direction(1, 0), E, E) == 1
    assert char_eval(Direction(1, 0), ORIGIN, E) == 0
    for psi, x in [((0, 0), TRI), ((F(0), F(0, 3)), FracBody.of(TRI))]:
        with pytest.raises(PreconditionError, match="^direction must be nonzero$"):
            char_eval(psi, x, E)


def test_polygon_vertices_take_whatever_fraction_takes():
    from decimal import Decimal

    body = Polygon((("1/2", 0.25), (Decimal("-1.5"), 2), (F(1, 3), "-7")))
    assert body == Polygon([(F(1, 2), F(1, 4)), (F(-3, 2), F(2)), (F(1, 3), F(-7))])


def test_direction_canonicalization():
    assert Direction(F(1, 2), F(3, 2)) == Direction(1, 3)
    assert Direction(2, 4) == Direction(1, 2)
    assert Direction(-2, 0) == Direction(-1, 0)
    assert Direction(1, 2) != Direction(-1, -2)
    with pytest.raises(PreconditionError):
        Direction(0, 0)


@pytest.mark.parametrize("call", [
    lambda: Polygon.square().support((0.5, 1)),
    lambda: Direction(0.5, 1),
    lambda: Polygon.square().contains(("1", 0)),
    lambda: Polygon.square().support((1, 2, 3)),
    lambda: Polygon.square().contains(5),
    lambda: Polygon(((1,),)),
    lambda: Polygon((("a", "b"),)),
    lambda: Polygon(((0, 0), (1, 2, 3))),
    lambda: Polygon(((None, 0),)),
    lambda: Polygon((("1/0", 0),)),
    lambda: Polygon(((float("inf"), 0),)),
    lambda: Polygon(((0, 0), 5)),
], ids=["support-float", "direction-float", "contains-str", "support-triple", "contains-int",
        "vertex-single", "vertex-str", "vertex-triple", "vertex-none", "vertex-zero-den",
        "vertex-inf", "vertex-int"])
def test_non_rational_coordinates_are_a_precondition_error(call):
    with pytest.raises(PreconditionError, match="a point must be a pair of ints or Fractions"):
        call()


def test_frac_equal_cancellation():
    c = TRI
    x = FracBody.of(SQUARE01)
    y = FracBody(minkowski(SQUARE01, c), c)
    assert frac_equal(x, y)
    assert frac_equal(frac_oplus(x, x), x)


def test_frac_oplus_segments_example():
    a1, a2 = FracBody.of(SEG_X), FracBody.of(SEG_Y)
    out = frac_oplus(a1, a2)
    assert frac_equal(out, FracBody.of(hull_union(SEG_X, SEG_Y)))
    rng = random.Random(21)
    for _ in range(100):
        psi = random_direction(rng).as_pair()
        lhs = out.pos.support(psi) - out.neg.support(psi)
        assert lhs == max(SEG_X.support(psi), SEG_Y.support(psi))


def test_fracbody_requires_origin():
    with pytest.raises(PreconditionError):
        FracBody(Polygon([(1, 1), (2, 2)]), ORIGIN)


def test_i_invariance_examples():
    assert i_invariant(E)
    assert not i_invariant(TRI)
    sym = i_symmetrize(SEG_X)
    assert sym.vertices == ((F(-1), F(0)), (F(0), F(-1)), (F(1), F(0)), (F(0), F(1)))
    assert i_invariant(sym)
    assert i_symmetrize(E) == E


def test_r_norm_frac_agrees_with_body_norm():
    rng = random.Random(33)
    for _ in range(60):
        a = random_polygon(rng)
        assert r_norm_frac(FracBody.of(a), E) == r_norm_body(a, E)


def test_r_norm_frac_symmetry_and_zero():
    ops = PolygonFractionSemifield()
    rng = random.Random(37)
    for _ in range(60):
        x = ops.random(rng)
        assert ops.r_norm(x) == ops.r_norm(ops.neg(x))
        assert ops.r_norm(ops.minus(x, x)) == 0


def test_r_norm_frac_is_least_bound():
    # r is the least t with -tE <= X <= tE: check both containments at r
    # and their failure just below r
    ops = PolygonFractionSemifield()
    rng = random.Random(39)
    for _ in range(40):
        x = ops.random(rng)
        r = ops.r_norm(x)
        scaled_unit = FracBody.of(E.dilate(r)) if r > 0 else ops.zero
        assert ops.leq(x, scaled_unit) and ops.leq(ops.neg(x), scaled_unit)
        if r > 0:
            smaller = FracBody.of(E.dilate(r * F(99, 100)))
            assert not (ops.leq(x, smaller) and ops.leq(ops.neg(x), smaller))


def test_euclidean_mode_matches_vertex_norms():
    rng = random.Random(41)
    for _ in range(60):
        a = random_polygon(rng)
        brute = max(math.hypot(float(x), float(y)) for x, y in a.vertices)
        assert abs(r_norm_euclidean(a) - brute) <= 1e-9


def test_euclidean_mode_is_correctly_rounded():
    # exact oracle: the midpoints between r and its float neighbours
    # bracket the largest vertex norm, compared through squares
    rng = random.Random(43)
    bodies = [ORIGIN, Polygon(((F(10 ** 300), F(-10 ** 300)),))]
    for bits in (3, 20, 53, 60, 64, 90):
        for _ in range(40):
            bodies.append(Polygon([
                (F(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** rng.choice((1, bits)))),
                 F(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** rng.choice((1, bits)))))
                for _ in range(rng.randint(1, 4))]))
    for a in bodies:
        top = max(x * x + y * y for x, y in a.vertices)
        r = r_norm_euclidean(a)
        lo = (F(math.nextafter(r, -math.inf)) + F(r)) / 2
        hi = (F(r) + F(math.nextafter(r, math.inf))) / 2
        assert lo <= 0 or lo * lo <= top, a
        assert top <= hi * hi, a


def test_euclidean_mode_rejects_a_norm_beyond_the_float_range():
    with pytest.raises(PreconditionError):
        r_norm_euclidean(Polygon(((F(10 ** 309), 0),)))


def test_gauge_equals_polar_support():
    rng = random.Random(51)
    units = [E, Polygon([(-1, -1), (3, -1), (0, 2)])]
    for e in units:
        pole = polar(e)
        for _ in range(200):
            v = (F(rng.randint(-9, 9), rng.randint(1, 4)),
                 F(rng.randint(-9, 9), rng.randint(1, 4)))
            assert r_norm_body(Polygon((v,)), e) == pole.support(v)


def test_r_norm_frac_dominates_every_direction():
    rng = random.Random(53)
    for _ in range(60):
        x = FracBody(random_polygon(rng), random_polygon(rng))
        r = r_norm_frac(x, E)
        for _ in range(40):
            psi = random_direction(rng).as_pair()
            ratio = abs(x.pos.support(psi) - x.neg.support(psi)) / E.support(psi)
            assert ratio <= r


def test_fast_paths_match_naive_hulls():
    rng = random.Random(57)
    for _ in range(100):
        a, b = random_polygon(rng), random_polygon(rng)
        sums = [(x1 + x2, y1 + y2) for x1, y1 in a.vertices for x2, y2 in b.vertices]
        assert minkowski(a, b).vertices == Polygon(tuple(sums)).vertices
        assert hull_union(a, b).vertices == Polygon(a.vertices + b.vertices).vertices


def test_polygon_json_roundtrip():
    rng = random.Random(43)
    for _ in range(30):
        a = random_polygon(rng)
        assert Polygon.from_json(a.to_json()) == a


# -- the stored integer form -------------------------------------------------------


def rational_polygon(rng, n):
    return Polygon(tuple((F(rng.randint(-9, 9), rng.randint(1, 6)),
                          F(rng.randint(-9, 9), rng.randint(1, 6))) for _ in range(n)))


def assert_canonical_ints(a):
    assert a._den > 0 and math.gcd(a._den, *(c for v in a._iverts for c in v)) == 1


def test_stored_form_is_reduced():
    half = Polygon(((F(1, 2), 0),))
    whole = minkowski(half, half)
    assert (whole._den, whole._iverts) == (1, ((1, 0),))
    small = Polygon(((0, 0), (F(1, 2), 0), (0, F(1, 2))))
    assert minkowski(small, small)._den == 1
    assert hull_union(SEG_X.dilate(F(2, 3)), SEG_Y.dilate(F(4, 3)))._den == 3


def test_equal_bodies_have_equal_ints_and_hash():
    rng = random.Random(61)
    small = Polygon(((0, 0), (F(1, 2), 0), (0, F(1, 2))))
    pairs = [(minkowski(small, small), Polygon([(0, 0), (1, 0), (0, 1)])),
             (Polygon.square(F(2, 3)).dilate(F(3, 2)), E)]
    for _ in range(100):
        a, q = rational_polygon(rng, rng.randint(1, 6)), F(rng.randint(1, 9), rng.randint(1, 9))
        pairs.append((a.dilate(q).dilate(1 / q), a))
        pairs.append((hull_union(a, a.dilate(q)).dilate(q), hull_union(a.dilate(q), a.dilate(q * q))))
    for a, b in pairs:
        assert_canonical_ints(a)
        assert (a._den, a._iverts) == (b._den, b._iverts)
        assert a == b and hash(a) == hash(b)


def test_vertices_are_built_on_first_read():
    a = minkowski(TRI, Polygon(((F(1, 3), F(1, 5)),)))
    assert "vertices" not in a.__dict__
    verts = a.vertices
    assert verts == ((F(1, 3), F(1, 5)), (F(7, 3), F(1, 5)), (F(1, 3), F(6, 5)))
    assert a.vertices is verts and a.__dict__["vertices"] is verts
    assert "vertices" not in Polygon(((1, 2), (3, 4))).__dict__


def test_rotations_match_the_fraction_hull():
    rng = random.Random(63)
    for _ in range(200):
        a = rational_polygon(rng, rng.randint(1, 7))
        b = a.rotate90()
        assert b == Polygon(tuple((-y, x) for x, y in a.vertices))
        c, d = b.rotate90(), b.rotate90().rotate90()
        assert i_symmetrize(a) == Polygon(a.vertices + b.vertices + c.vertices + d.vertices)
        assert_canonical_ints(b)
        assert_canonical_ints(i_symmetrize(a))


def test_direction_fields_are_primitive_integer_fractions():
    rng = random.Random(67)
    for _ in range(300):
        p, q = F(rng.randint(-9, 9), rng.randint(1, 8)), F(rng.randint(-9, 9), rng.randint(1, 8))
        if p == 0 and q == 0:
            continue
        d = Direction(p, q)
        assert type(d.p) is F and type(d.q) is F
        assert d.p.denominator == 1 and d.q.denominator == 1
        assert math.gcd(d.p.numerator, d.q.numerator) == 1
        m = math.lcm(p.denominator, q.denominator)
        g = math.gcd(int(p * m), int(q * m))
        assert (d.p, d.q) == (p * m / g, q * m / g)


def test_euclidean_mode_is_pinned_on_rational_bodies():
    bodies = [Polygon(((F(1, 3), F(-2, 7)), (F(5, 2), F(1, 9)), (F(-3, 4), F(4, 5)))),
              Polygon(((0, 0), (F(7, 3), F(1, 3)))),
              Polygon(((F(-1, 10), F(-1, 10)),)),
              minkowski(Polygon.square(F(2, 3)),
                        Polygon(((F(-5, 6), 0), (F(1, 6), F(11, 7)), (0, F(-1, 9))))),
              i_symmetrize(Polygon(((0, 0), (F(13, 5), F(2, 11)))))]
    assert [repr(r_norm_euclidean(a)) for a in bodies] == [
        "2.5024679176789353", "2.3570226039551585", "0.1414213562373095",
        "2.3882032449582313", "2.6063495259154457"]


def _random_polygon_from_fractions(rng, max_extra=3, lim=4):
    """The construction from Fraction pairs through ``Polygon.__post_init__``
    that ``random_polygon`` replaces; it draws from ``rng`` in the same order."""
    pts = [(F(0), F(0))]
    for _ in range(rng.randint(0, max_extra)):
        pts.append((F(rng.randint(-lim, lim)), F(rng.randint(-lim, lim))))
    return Polygon(tuple(pts))


def test_random_polygon_matches_the_fraction_construction():
    for seed in range(500):
        rng = random.Random(seed)
        max_extra, lim = rng.randint(0, 6), rng.randint(1, 5)
        twin = random.Random()
        twin.setstate(rng.getstate())
        for _ in range(3):
            got = random_polygon(rng, max_extra, lim)
            want = _random_polygon_from_fractions(twin, max_extra, lim)
            assert (got._den, got._iverts) == (want._den, want._iverts)
            assert got == want and got.vertices == want.vertices
        assert rng.getstate() == twin.getstate()


# -- results emitted in stored form --------------------------------------------------


def test_frac_walk_results_pass_the_decoder():
    """The fraction operations emit through ``_frac`` without ``FracBody``'s checks;
    each result is one that the decoder accepts, as the same value."""
    rng = random.Random(71)
    shapes = [ORIGIN, SEG_X, SEG_Y, Polygon([(0, 0), (-3, 2)]), TRI, E]
    ops = PolygonFractionSemifield()
    for _ in range(200):
        x, y = (FracBody(rng.choice(shapes) if rng.random() < 0.3 else random_polygon(rng),
                         random_polygon(rng, max_extra=rng.randint(0, 3)))
                for _ in "xy")
        q = rng.choice([0, F(rng.randint(-9, 9), rng.randint(1, 5))])
        for r in (x.oplus(y), x + y, -x, x.scale(q), y.scale(-abs(q) - 1), ops.zero, ops.unit):
            assert r.__class__ is FracBody
            assert FracBody(r.pos, r.neg) == r


def test_origin_and_zero_dilation_decode_nothing(monkeypatch):
    calls = []
    decode = Polygon.__post_init__
    monkeypatch.setattr(Polygon, "__post_init__",
                        lambda self, vertices: calls.append(1) or decode(self, vertices))
    origin = cx._ORIGIN
    assert TRI.dilate(0) is origin and FracBody.of(TRI).neg is origin
    assert (origin._den, origin._iverts) == (1, ((0, 0),))
    assert calls == []
    assert Polygon(((0, 0),)) == origin and calls == [1]


@pytest.mark.parametrize("ops", [PolygonFractionSemifield(),
                                 PolygonFractionSemifield(Polygon.square(F(2, 3))),
                                 PAFSemifield(), PAFSemifield(-1, F(1, 2))],
                         ids=["convex", "convex-unit", "paf", "paf-domain"])
def test_zero_and_unit_are_built_once(ops):
    assert ops.zero is ops.zero and ops.unit is ops.unit
    assert ops.eq(ops.plus(ops.unit, ops.zero), ops.unit)
    assert ops.r_norm(ops.unit) == 1 and ops.r_norm(ops.zero) == 0


def test_rescale_matches_the_scaled_copies():
    rng = random.Random(73)
    for _ in range(200):
        a, b = rational_polygon(rng, rng.randint(1, 5)), rational_polygon(rng, rng.randint(1, 5))
        if rng.random() < 0.3:
            b = a.rotate90()  # the same denominator: both factors 1
        den, ia, ib = cx._rescale(a, b)
        assert den == math.lcm(a._den, b._den)
        for body, got in ((a, ia), (b, ib)):
            s = den // body._den
            assert list(got) == [(x * s, y * s) for x, y in body._iverts]
            assert (got is body._iverts) == (s == 1)

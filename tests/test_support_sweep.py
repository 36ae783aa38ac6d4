"""The linear-time support queries against the code they replaced.

Each oracle here is the earlier implementation, kept verbatim in spirit:
``scan_norm_ray`` runs a full support scan of all three bodies for every
candidate ray, the convexity criterion bisects for each breakpoint through
``kink``, ``gcd_polar`` stores the polar over the lcm of the facet
constants and reduces it by one wide gcd, and ``sorted_fan`` sorts the
merged fan's rays with a comparison sort on ``_not_after``.
"""

import functools
import math
import random
from fractions import Fraction as F

import pytest

from char1 import convex as cx
from char1.convex import (FracBody, Polygon, facets, merged_fan, norm_ray, normal_fan_rays,
                          polar, r_norm_frac)
from char1.paf import PAF
from char1.valuation import convexity_criterion, kink

# -- oracles ---------------------------------------------------------------------------


def scan_norm_ray(x, e):
    a, b = x.pos, x.neg
    rays = [*(n for n, _ in facets(e)), *normal_fan_rays(a), *normal_fan_rays(b)]
    rays = dict.fromkeys((p // g, q // g) for p, q in rays for g in [math.gcd(p, q)])
    best_ray, top, s_top = next(iter(rays)), 0, 1
    for p, q in rays:
        diff = abs(a._isupport(p, q) * b._den - b._isupport(p, q) * a._den)
        s = e._isupport(p, q)
        if diff * s_top > top * s:
            best_ray, top, s_top = (p, q), diff, s
    return best_ray, F(top * e._den, s_top * a._den * b._den)


def gcd_polar(e):
    fs = facets(e)
    den = math.lcm(*(c for _, c in fs))
    return cx._store_hull([(nx * e._den * (den // c), ny * e._den * (den // c))
                           for (nx, ny), c in fs], den)


def sorted_fan(*bodies):
    rays = {(p // g, q // g) for body in bodies for p, q in normal_fan_rays(body)
            for g in [math.gcd(p, q)]}
    rays.update(((1, 0), (0, 1), (-1, 0), (0, -1)))
    return sorted(rays, key=functools.cmp_to_key(lambda e, f: -1 if cx._not_after(e, f) else 1))


def kink_criterion(f):
    return all(kink(f, x) >= 0 for x in f.breakpoints[1:-1])


# -- data ------------------------------------------------------------------------------


def regular_unit(n, r=10**6):
    """n vertices near a circle of radius r about the origin."""
    return Polygon.hull([(round(r * math.cos(2 * math.pi * k / n)),
                          round(r * math.sin(2 * math.pi * k / n))) for k in range(n)])


UNITS = {
    "square": Polygon.square(),
    "triangle": Polygon.hull([(-1, -1), (2, 0), (0, 3)]),
    "pentagon": Polygon.hull([(F(1), F(0)), (F(1, 3), F(1)), (F(-1), F(1, 2)),
                              (F(-1, 2), F(-1)), (F(1, 2), F(-2, 3))]),
    "64-gon": regular_unit(64),
    "64-gon-rational": regular_unit(64, 9).dilate(F(3, 7)),
}


def random_body(rng, lim=4, max_den=3):
    """A body holding the origin: the hull of the origin and 0 to 6 points
    (a point, a segment or a polygon), sometimes collinear ones, with
    denominators up to max_den."""
    kind = rng.choice(["point", "segment", "collinear", "polygon", "polygon"])
    if kind == "point":
        return Polygon.origin()
    if kind == "segment":
        pts = [(F(rng.randint(-lim, lim), rng.randint(1, max_den)),
                F(rng.randint(-lim, lim), rng.randint(1, max_den)))]
    elif kind == "collinear":
        d = (rng.randint(-lim, lim), rng.randint(-lim, lim))
        pts = [(F(d[0] * t, 2), F(d[1] * t, 2)) for t in rng.sample(range(-4, 5), 3)]
    else:
        pts = [(F(rng.randint(-lim, lim), rng.randint(1, max_den)),
                F(rng.randint(-lim, lim), rng.randint(1, max_den)))
               for _ in range(rng.randint(2, 6))]
    return Polygon.hull([(F(0), F(0)), *pts])


def round_body(rng, n, r):
    """n points near a circle about a random centre, and the origin."""
    c = (rng.randint(-r // 2, r // 2), rng.randint(-r // 2, r // 2))
    return Polygon.hull([(0, 0)] + [(c[0] + round(r * math.cos(t)), c[1] + round(r * math.sin(t)))
                                    for t in sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))])


# -- the sweep -------------------------------------------------------------------------


def ties(x, e):
    """How many candidate rays reach the norm."""
    a, b = x.pos, x.neg
    rays = [*(n for n, _ in facets(e)), *normal_fan_rays(a), *normal_fan_rays(b)]
    rays = dict.fromkeys((p // g, q // g) for p, q in rays for g in [math.gcd(p, q)])
    _, best = scan_norm_ray(x, e)
    return sum(abs(cx.char_eval(r, x, e)) == best for r in rays)


@pytest.mark.parametrize("unit", UNITS, ids=UNITS)
def test_norm_ray_equals_the_per_ray_scan(unit):
    e = UNITS[unit]
    rng = random.Random(1800 + len(unit))
    tied = 0
    for _ in range(300):
        x = FracBody(random_body(rng), random_body(rng))
        assert norm_ray(x, e) == scan_norm_ray(x, e)
        tied += ties(x, e) > 1
    assert tied > 30  # the first-candidate rule is exercised, not only the maximum


@pytest.mark.parametrize("n", [3, 8, 32, 64])
def test_norm_ray_equals_the_per_ray_scan_on_large_bodies(n):
    rng = random.Random(n)
    for e in (UNITS["square"], UNITS["64-gon"], regular_unit(n, 10**20)):
        for _ in range(5):
            x = FracBody(round_body(rng, n, 10**6), round_body(rng, n, 10**6).dilate(F(2, 3)))
            assert norm_ray(x, e) == scan_norm_ray(x, e)
            assert norm_ray(x, e)[1] == r_norm_frac(x, e)


def test_constructed_ties_go_to_the_first_candidate():
    e = UNITS["square"]
    # every direction reaches |l_E / l_E| = 1: the first facet of E wins
    assert norm_ray(FracBody.of(e), e) == ((-1, 0), 1)
    # pos's first edge normal (1, -1) and an edge normal of neg both reach 3/2
    x = FracBody(Polygon.hull([(-2, -2), (0, 0), (-2, 0)]),
                 Polygon.hull([(-2, 1), (1, -2), (0, 0)]))
    assert norm_ray(x, e) == scan_norm_ray(x, e) == ((1, -1), F(3, 2))
    # a body, its negative and their difference, zero, on every unit
    a = Polygon.hull([(0, 0), (3, 1), (-1, 2)])
    for x in (FracBody(a, Polygon.origin()), FracBody(Polygon.origin(), a), FracBody(a, a)):
        for e in UNITS.values():
            assert norm_ray(x, e) == scan_norm_ray(x, e)
    # the zero element: nothing beats 0, so the first facet normal is returned
    for e in UNITS.values():
        (p, q), _ = facets(e)[0]
        g = math.gcd(p, q)
        assert norm_ray(FracBody(a, a), e) == ((p // g, q // g), 0)


def test_supports_equal_the_scan_at_every_ray():
    rng = random.Random(1806)
    for _ in range(200):
        bodies = [random_body(rng) for _ in range(3)]
        if rng.random() < 0.3:
            bodies.append(rng.choice(list(UNITS.values())))
        fan = merged_fan(*bodies)
        for body in bodies:
            assert cx._supports(body, fan) == [body._isupport(p, q) for p, q in fan]
    bodies = [round_body(rng, 64, 10**6) for _ in range(2)]
    fan = merged_fan(*bodies)
    for body in (*bodies, UNITS["64-gon"]):
        assert cx._supports(body, fan) == [body._isupport(p, q) for p, q in fan]


# -- the merged fan ----------------------------------------------------------------------


def ci_unit():
    """The unit body of the CI step "norms on a big unit body": 1,024
    vertices with 20-digit coordinates."""
    n, r = 1024, 9 * 10**19
    return Polygon.hull([(int(r * math.cos(2 * math.pi * k / n)),
                          int(r * math.sin(2 * math.pi * k / n))) for k in range(n)])


# bodies whose normal run starts in each angle class of ``_not_after``
STARTS = {0: Polygon.hull([(0, 0), (2, 1), (0, 2)]),  # first edge up and right
          1: Polygon.hull([(0, 0), (2, -1), (1, 2)]),  # first edge down and right
          2: Polygon.hull([(0, 0), (2, 0), (1, 2)])}  # first edge to the right
DEGENERATE = [Polygon.origin(), Polygon(((F(1, 2), F(-3)),)),
              Polygon(((-1, 2), (3, 2))), Polygon(((0, 0), (5, 0))),  # horizontal segments
              Polygon(((2, -1), (2, 3))), Polygon(((0, 0), (0, F(-1, 3)))),  # vertical ones
              Polygon(((0, 0), (2, 3)))]


def test_the_start_bodies_start_in_each_angle_class():
    for half, body in STARTS.items():
        assert cx._half(normal_fan_rays(body)[0]) == half


def test_merged_fan_equals_the_sort_on_small_and_degenerate_bodies():
    shapes = [*STARTS.values(), *DEGENERATE, *UNITS.values()]
    assert merged_fan() == sorted_fan() == [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for a in shapes:
        assert merged_fan(a) == sorted_fan(a)
        for b in shapes:
            assert merged_fan(a, b) == sorted_fan(a, b)
    rng = random.Random(2001)
    for _ in range(2000):
        bodies = [rng.choice(shapes) if rng.random() < 0.3 else random_body(rng)
                  for _ in range(rng.randint(1, 5))]
        assert merged_fan(*bodies) == sorted_fan(*bodies)


def test_merged_fan_emits_a_shared_normal_once():
    sq, tri = Polygon.square(), STARTS[2]
    # the square's normals are the axis rays; a dilate and a translate share all of them
    for bodies in [(sq,), (sq, sq), (sq, sq.dilate(3), Polygon.square(F(1, 7))),
                   (tri, tri.dilate(F(2, 3)), sq), (tri, Polygon.hull([(5, 5), (7, 5), (6, 7)]))]:
        fan = merged_fan(*bodies)
        assert fan == sorted_fan(*bodies) and len(set(fan)) == len(fan)
    assert merged_fan(sq, sq) == [(1, 0), (0, 1), (-1, 0), (0, -1)]


@pytest.mark.parametrize("n", [8, 32, 64])
def test_merged_fan_equals_the_sort_on_large_bodies(n):
    rng = random.Random(2002 + n)
    for _ in range(5):
        a, b = round_body(rng, n, 10**6), round_body(rng, n, 10**6).dilate(F(2, 3))
        for bodies in [(a,), (UNITS["64-gon"], a, b), (a, b, a.dilate(5), UNITS["square"]),
                       (regular_unit(n, 10**20), a, b, *STARTS.values())]:
            assert merged_fan(*bodies) == sorted_fan(*bodies)


def test_merged_fan_equals_the_sort_on_the_ci_unit():
    e = ci_unit()
    assert len(e._iverts) == 1024
    x = Polygon.hull([(0, 0), (3, 1), (-1, 2)])
    for bodies in [(e,), (e, x, Polygon.origin()), (e, e.dilate(F(1, 3)), UNITS["64-gon"])]:
        assert merged_fan(*bodies) == sorted_fan(*bodies)


# -- the convexity criterion -------------------------------------------------------------


def paf_with_slopes(rng, slopes):
    ts = sorted(rng.sample(range(1, 10**6), len(slopes) - 1))
    ts = [F(0)] + [F(t, 10**6) for t in ts] + [F(1)]
    samples = [(ts[0], F(rng.randint(-9, 9)))]
    for (u, v), a in zip(zip(ts, ts[1:]), slopes):
        samples.append((v, samples[-1][1] + a * (v - u)))
    return PAF.from_samples(samples)


@pytest.mark.parametrize("n", [2, 3, 5, 16, 128, 512])
def test_convexity_criterion_equals_the_kink_criterion(n):
    rng = random.Random(1807 + n)
    slopes = sorted({F(rng.randint(-10**4, 10**4), 1000) for _ in range(2 * n)})
    slopes = sorted(rng.sample(slopes, n - 1))
    convex = paf_with_slopes(rng, slopes)
    assert len(convex.breakpoints) == n
    assert convexity_criterion(convex) is kink_criterion(convex) is True
    cases = [convex, -convex, convex - convex]
    if n > 2:
        i = rng.randrange(n - 2)
        cases.append(paf_with_slopes(rng, slopes[:i] + [slopes[i + 1], slopes[i]] + slopes[i + 2:]))
        for _ in range(3):
            rng.shuffle(slopes)
            cases.append(paf_with_slopes(rng, slopes))
    for f in cases:
        assert convexity_criterion(f) == kink_criterion(f)
    if n > 2:
        assert not all(convexity_criterion(f) for f in cases)


# -- the polar ---------------------------------------------------------------------------


def random_unit(rng):
    return Polygon.hull([(F(round(rng.uniform(1, 9) * 10**6 * math.cos(t)), rng.randint(1, 9)),
                          F(round(rng.uniform(1, 9) * 10**6 * math.sin(t)), rng.randint(1, 9)))
                         for t in (2 * math.pi * (k + rng.uniform(0.3, 0.7)) / 7
                                   for k in range(7))])


def test_polar_equals_the_gcd_reduced_store():
    rng = random.Random(1808)
    units = [*UNITS.values(), *(random_unit(rng) for _ in range(40))]
    for e in units:
        p, ref = polar(e), gcd_polar(e)
        assert (p._den, p._iverts) == (ref._den, ref._iverts)
        assert p == ref and hash(p) == hash(ref)
        assert p.to_json() == ref.to_json()
        assert p.vertices == tuple((F(x, p._den), F(y, p._den)) for x, y in p._iverts)

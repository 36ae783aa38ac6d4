"""Convex polygons in the plane under hull-of-union and Minkowski sum.

Vertices are exact rational points; hulls use the monotone chain with
exact orientation predicates, so degenerate bodies (points, segments) are
first-class.  The semiring of origin-containing bodies has hull-of-union
as its tropical sum and Minkowski sum as its addition; formal differences
of support functions make it a semifield (``FracBody``).

The unit body E is a caller-chosen full-dimensional polytope with the
origin strictly interior (default: the square [-1,1]^2).  Its gauge plays
the role the euclidean norm plays for the round unit ball; an optional
float mode gives the euclidean norm correctly rounded to a float and is
flagged as approximate wherever it appears.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property

from .errors import PreconditionError
from .scalars import (Value, as_items, as_pair, as_rat, build, check_model, fmt_rat, parse_list,
                      parse_object, parse_pair)
from .semifield import CharOneSemifield

Point = tuple[Fraction, Fraction]


def _holds_origin(iv) -> bool:
    """Does the body with the canonical integer vertex list iv contain (0, 0)?"""
    if len(iv) == 1:
        return iv[0] == (0, 0)
    if len(iv) == 2:
        (ax, ay), (bx, by) = iv
        return ax * by == ay * bx and min(ax, bx) <= 0 <= max(ax, bx) \
            and min(ay, by) <= 0 <= max(ay, by)
    px, py = iv[-1]
    for qx, qy in iv:  # the origin lies left of or on every edge (p, q)
        if px * qy < py * qx:
            return False
        px, py = qx, qy
    return True


def _int_hull(ipts) -> list:
    """Monotone chain over integer pairs: canonical CCW from the
    lexicographic minimum, collinear interior points dropped."""
    pts = sorted(set(ipts))
    if len(pts) == 1:
        return pts

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2 and hull[0] == hull[1]:
        hull = hull[:1]
    return hull


def _store_hull(hull, den: int, vertices=None) -> Polygon:
    """A Polygon, made without ``__post_init__``, with the canonical integer
    vertex list hull, CCW from the lexicographic minimum without collinear
    points, over the denominator den; both are divided by their gcd, so
    that (``_den``, ``_iverts``) is canonical.  Given ``vertices``, the same
    points as reduced ``Fraction`` pairs with den the lcm of their
    denominators, the pair is already reduced and they are cached as
    ``vertices``."""
    g = math.gcd(den, *(c for v in hull for c in v)) if den > 1 and vertices is None else 1
    if g > 1:
        den, hull = den // g, [(x // g, y // g) for x, y in hull]
    p = object.__new__(Polygon)
    p.__dict__.update(_den=den, _iverts=tuple(hull))
    if vertices is not None:
        p.__dict__["vertices"] = vertices
    return p


def _from_int_hull(ipts, den: int) -> Polygon:
    """The hull of integer points over one denominator."""
    return _store_hull(_int_hull(ipts), den)


class Polygon(Value):
    """A convex polytope of dimension 0, 1 or 2.

    The stored form is (``_den``, ``_iverts``): the canonical CCW vertex
    list (from the lexicographic minimum, no collinear interior points) as
    integer pairs over one positive denominator, reduced by their common
    gcd.  The hull runs on these integers and only selects input points, so
    the vertices stay exact.  Equality and hashing compare the integers;
    the ``Fraction`` tuple ``vertices`` is built on first access and
    cached."""

    vertices: tuple[Point, ...]

    def __post_init__(self, vertices):
        pts = [as_pair(v, "a point") for v in as_items(vertices, "vertices")]
        if not pts:
            raise PreconditionError("a polygon needs at least one vertex")
        den = math.lcm(*(c.denominator for v in pts for c in v))
        return vars(_store_hull(_int_hull([(x.numerator * (den // x.denominator),
                                            y.numerator * (den // y.denominator))
                                           for x, y in pts]), den))

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        den = self._den
        return tuple((Fraction(x, den), Fraction(y, den)) for x, y in self._iverts)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._den == other._den and self._iverts == other._iverts

    def __hash__(self):
        return hash((self._den, self._iverts))

    @classmethod
    def hull(cls, points) -> "Polygon":
        return cls(points)

    @classmethod
    def origin(cls) -> "Polygon":
        return _ORIGIN

    @classmethod
    def square(cls, half_width=1) -> "Polygon":
        h = as_rat(half_width)
        return cls(((-h, -h), (h, -h), (h, h), (-h, h)))

    @property
    def dim(self) -> int:
        return min(len(self._iverts) - 1, 2)

    def contains(self, p: Point) -> bool:
        x, y, m = _int_pair(p)
        return _holds_origin([(vx * m - x * self._den, vy * m - y * self._den)
                              for vx, vy in self._iverts])

    def contains_origin(self) -> bool:
        return _holds_origin(self._iverts)

    def dilate(self, q) -> "Polygon":
        """Scale by the rational q >= 0 about the origin."""
        q = as_rat(q)
        if q < 0:
            raise PreconditionError("dilation factor must be nonnegative")
        if q == 0:
            return Polygon.origin()
        # positive scaling preserves the canonical vertex order
        return _store_hull([(x * q.numerator, y * q.numerator) for x, y in self._iverts],
                           self._den * q.denominator)

    def rotate90(self) -> "Polygon":
        """Multiplication by i: (x, y) -> (-y, x)."""
        return _from_int_hull([(-y, x) for x, y in self._iverts], self._den)

    def support(self, psi) -> Fraction:
        """max over the body of the linear form psi = (p, q)."""
        p, q, m = _int_pair(psi)
        return Fraction(self._isupport(p, q), m * self._den)

    def _isupport(self, p: int, q: int) -> int:
        """Support of the integer surrogate at the integer form (p, q)."""
        return max(p * x + q * y for x, y in self._iverts)

    def to_json(self) -> dict:
        return {"vertices": [[fmt_rat(x), fmt_rat(y)] for x, y in self.vertices]}

    @classmethod
    def from_json(cls, data) -> "Polygon":
        [vertices] = parse_object(data, "a polygon", "vertices")
        return build(cls, tuple(parse_pair(v, "a vertex")
                                for v in parse_list(vertices, "vertices")))


# Shared bodies, built once from integers.  The default unit body
# E = [-1, 1]^2 is one object, so that its facets are checked and built once
# for every caller that takes the default; the four axis segments
# [0, +-e1], [0, +-e2] are the probes of ``spectrum.separate``.
_ORIGIN = _store_hull([(0, 0)], 1)
DEFAULT_UNIT = Polygon.square()
_AXIS_PROBES = tuple(_from_int_hull([(0, 0), v], 1) for v in ((1, 0), (-1, 0), (0, 1), (0, -1)))


def _int_pair(v) -> tuple[int, int, int]:
    """(x, y, m) with v = (x / m, y / m), all integers and m > 0: the exact
    reader of the query forms (``support``, ``contains``, ``Direction``,
    ``char_eval``).  It converts nothing, so only ``int``s and ``Fraction``s
    pass, where a value argument takes anything ``scalars.as_rat`` reads."""
    try:
        a, b = v
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    except (AttributeError, TypeError, ValueError):
        raise PreconditionError("a point must be a pair of ints or Fractions") from None
    return an * bd, bn * ad, ad * bd


def _rescale(a: Polygon, b: Polygon):
    """Integer vertex lists of both bodies over one common denominator: a
    body whose factor is 1 gives its stored tuple as it is."""
    if a.__class__ is not Polygon or b.__class__ is not Polygon:
        raise PreconditionError(f"expected two Polygons, got {type(a).__name__} "
                                f"and {type(b).__name__}")
    g = math.gcd(a._den, b._den)
    den = a._den // g * b._den
    sa, sb = den // a._den, den // b._den
    ia = a._iverts if sa == 1 else [(x * sa, y * sa) for x, y in a._iverts]
    ib = b._iverts if sb == 1 else [(x * sb, y * sb) for x, y in b._iverts]
    return den, ia, ib


def _edges(iv) -> list:
    """The edge vectors of a canonical integer vertex list, in walk order:
    none for a point, out and back for a segment."""
    if len(iv) == 1:
        return []
    return [(qx - px, qy - py) for (px, py), (qx, qy) in zip(iv, iv[1:] + iv[:1])]


def _half(e) -> int:
    """The angle class of an edge vector, CCW from straight down: dx > 0,
    then dx < 0 or straight up, then straight down.  Each class spans less
    than a half-turn, so the cross product orders the vectors inside it."""
    dx, dy = e
    return 0 if dx > 0 else 1 if dx < 0 or dy > 0 else 2


def _not_after(e, f) -> bool:
    """Does the edge vector e come no later than f by angle?"""
    he, hf = _half(e), _half(f)
    return he < hf or he == hf and e[0] * f[1] - e[1] * f[0] >= 0


def minkowski(a: Polygon, b: Polygon) -> Polygon:
    """Exact Minkowski sum by merging the edge sequences of both bodies.

    Both vertex lists run CCW from their lexicographic minimum, so their
    edges are already sorted by angle from straight down; the merged
    sequence walked from the sum of the two start vertices traces the
    sum's boundary.  The walk is canonical as it goes: a point between two
    edges of the same direction is dropped, and so is the closing point
    back at the start.  O(m + n) on the cached integer surrogates, for
    points and segments as for polygons.
    """
    den, ia, ib = _rescale(a, b)
    ea, eb = _edges(ia)[::-1], _edges(ib)[::-1]  # taken from the end
    x, y = ia[0][0] + ib[0][0], ia[0][1] + ib[0][1]
    walk, px, py = [(x, y)], 0, 0
    for _ in range(len(ea) + len(eb)):
        dx, dy = (ea if not eb or ea and _not_after(ea[-1], eb[-1]) else eb).pop()
        if px * dy == py * dx and px * dx + py * dy > 0:  # no turn at the last point
            walk.pop()
        x, y, px, py = x + dx, y + dy, dx, dy
        walk.append((x, y))
    return _store_hull(walk[:-1] or walk, den)  # a point plus a point has no edges


def hull_union(a: Polygon, b: Polygon) -> Polygon:
    """Convex hull of the union: the tropical sum of the body semiring."""
    den, ia, ib = _rescale(a, b)
    return _from_int_hull([*ia, *ib], den)


class Direction(Value):
    """A nonzero linear form, canonicalized to a primitive integer vector
    so that positively proportional forms define the same character."""

    p: Fraction
    q: Fraction

    def __post_init__(self, p, q):
        x, y, _ = _int_pair((p, q))
        if x == 0 and y == 0:
            raise PreconditionError("direction must be nonzero")
        g = math.gcd(x, y)
        return {"p": Fraction(x // g), "q": Fraction(y // g)}

    def as_pair(self) -> Point:
        return (self.p, self.q)

    def to_json(self) -> list:
        return [fmt_rat(self.p), fmt_rat(self.q)]

    @classmethod
    def from_json(cls, data) -> "Direction":
        return build(cls, *parse_pair(data, "a direction"))


# -- gauges, polars, norms ----------------------------------------------------


def normal_fan_rays(p: Polygon) -> list[tuple[int, int]]:
    """Outward edge normals of the integer surrogate, positive multiples of
    the true ones; candidate directions where support-function ratios
    attain their extrema (a ratio of linears over a pointed cone is a
    mediant, so it is maximized on a ray)."""
    return [(dy, -dx) for dx, dy in _edges(p._iverts)]


def merged_fan(*bodies: Polygon) -> list[tuple[int, int]]:
    """The bodies' normal-fan rays and the four axis rays as primitive
    integer vectors, once each, in the angle order of ``_not_after``:
    cyclically consecutive rays are under a half-turn apart.  Each body's
    normals already run in cyclic angle order, so its run is rotated to
    start at its one descent and merged into the fan: linear in the number
    of rays, past one bisection per body."""
    fan = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for body in bodies:
        run = [(p // g, q // g) for p, q in normal_fan_rays(body) for g in [math.gcd(p, q)]]
        if not run:
            continue
        # the rays at or after run[0] come first, then the ones before it
        first = run[0]
        k = bisect_left(run, True, 1, key=lambda r: not _not_after(first, r))
        run = run[k:] + run[:k]
        merged, i, j = [], 0, 0
        while i < len(fan) and j < len(run):
            r, s = fan[i], run[j]
            if r == s:
                merged.append(r)
                i, j = i + 1, j + 1
            elif _not_after(r, s):
                merged.append(r)
                i += 1
            else:
                merged.append(s)
                j += 1
        fan = merged + fan[i:] + run[j:]
    return fan


def _supports(p: Polygon, fan) -> list[int]:
    """The support of p's integer surrogate at each ray of ``merged_fan``,
    in one turn.  The supporting vertex only moves forward as the ray
    turns, and from one ray to the next (under a half-turn) the forms rise
    along the walk up to it, so it is found by stepping while they rise.
    The walk starts at the lexicographic minimum, which supports (-1, 0),
    and the fan's first ray lies past straight down and no later than
    (1, 0), so the forms rise from there to its support too."""
    iv, n, j = p._iverts, len(p._iverts), 0
    out = []
    for r0, r1 in fan:
        x, y = iv[j]
        h = r0 * x + r1 * y
        while True:
            k = (j + 1) % n
            x, y = iv[k]
            h2 = r0 * x + r1 * y
            if h2 <= h:
                break
            j, h = k, h2
        out.append(h)
    return out


def facets(e: Polygon) -> list[tuple[tuple[int, int], int]]:
    """Outward facets (n, c) of a unit body's integer surrogate: with d the
    common denominator of E's vertices, E = {x : <n, x> <= c / d}.  Checked
    (full-dimensional, the origin strictly inside) and cached on the body; a
    bad body caches nothing.  Facet (n, c) is the polar vertex n * d / c, and
    the list starts at the lexicographically least, in the polar's order."""
    check_model(e, Polygon)
    fs = e.__dict__.get("_facets")
    if fs is None:
        if e.dim != 2:
            raise PreconditionError("unit body must be full-dimensional")
        fs = [(n, n[0] * x + n[1] * y) for n, (x, y) in zip(normal_fan_rays(e), e._iverts)]
        if any(c <= 0 for _, c in fs):
            raise PreconditionError("unit body must contain the origin strictly inside")
        i = min(range(len(fs)), key=lambda k: [Fraction(m, fs[k][1]) for m in fs[k][0]])
        fs = fs[i:] + fs[:i]
        e.__dict__["_facets"] = fs
    return fs


def r_norm_body(a: Polygon, e: Polygon) -> Fraction:
    """Spectral norm of a body: the largest vertex gauge; zero only for {0}.
    The gauge of v, the least t >= 0 with v in t*E, is the largest
    <n, v> / (c / d) over the facets of E; it is r_norm_body of the point
    body {v}."""
    check_model(a, Polygon)
    best, c_best = 0, 1
    for n, c in facets(e):
        top = a._isupport(*n)
        if top * c_best > best * c:
            best, c_best = top, c
    return Fraction(best * e._den, c_best * a._den)


def polar(e: Polygon) -> Polygon:
    """The polar body, facet <n, x> <= c / d becoming vertex n * d / c: the
    facets run in its canonical vertex order, so no hull is taken.  Each
    vertex is reduced on its own, and the lcm of their denominators is the
    reduced common one, so no gcd is taken over the scaled coordinates."""
    fs, d = facets(e), e._den  # facets checks e before its fields are read
    verts = tuple((Fraction(nx * d, c), Fraction(ny * d, c)) for (nx, ny), c in fs)
    den = math.lcm(*(q.denominator for v in verts for q in v))
    return _store_hull([(x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
                        for x, y in verts], den, vertices=verts)


def r_norm_euclidean(a: Polygon) -> float:
    """Euclidean-unit norm, float mode: the largest vertex norm, correctly
    rounded.  |v| * 2^k, past 55 bits, is floored in integers with a sticky
    bit for inexactness and rounded once by an int/int division."""
    check_model(a, Polygon)
    n2 = max(x * x + y * y for x, y in a._iverts)
    den = a._den
    k = max(0, 56 + den.bit_length() - n2.bit_length() // 2)
    root = math.isqrt(n2 << 2 * k)
    m, rest = divmod(root, den)  # m = floor(|v| * 2^k)
    sticky = rest != 0 or root * root != n2 << 2 * k
    try:
        return (2 * m + sticky) / (1 << (k + 1))
    except OverflowError:
        raise PreconditionError("the euclidean norm exceeds the float range") from None


# -- characters over the body semiring ----------------------------------------


def char_eval(psi, x, e: Polygon) -> Fraction:
    """The normalized support-direction character: l_X(psi) / l_E(psi).

    Fraction pairs evaluate to (l_A - l_B) / l_E.  The denominator is
    positive because the origin is strictly interior to E.
    """
    check_model(x, Polygon, FracBody)
    facets(e)
    p, q, _ = _int_pair(psi.as_pair() if isinstance(psi, Direction) else psi)
    if p == 0 and q == 0:
        raise PreconditionError("direction must be nonzero")
    denom = e._isupport(p, q)
    if isinstance(x, FracBody):
        a, b = x.pos, x.neg
        return Fraction((a._isupport(p, q) * b._den - b._isupport(p, q) * a._den) * e._den,
                        a._den * b._den * denom)
    return Fraction(x._isupport(p, q) * e._den, x._den * denom)


# -- the fraction semifield ----------------------------------------------------


class FracBody(Value):
    """A formal difference of origin-containing bodies: l_pos - l_neg."""

    pos: Polygon
    neg: Polygon

    def __post_init__(self, pos, neg):
        for side in (pos, neg):
            check_model(side, Polygon)
            if not side.contains_origin():
                raise PreconditionError("fraction bodies must contain the origin")
        return {"pos": pos, "neg": neg}

    @classmethod
    def of(cls, body: Polygon) -> "FracBody":
        return cls(body, Polygon.origin())

    def __add__(self, other: "FracBody") -> "FracBody":
        check_model(other, FracBody)
        return _frac(minkowski(self.pos, other.pos), minkowski(self.neg, other.neg))

    def __neg__(self) -> "FracBody":
        return _frac(self.neg, self.pos)

    def scale(self, q) -> "FracBody":
        q = as_rat(q)
        a, b = (self.pos, self.neg) if q >= 0 else (self.neg, self.pos)
        return _frac(a.dilate(abs(q)), b.dilate(abs(q)))


def _frac(pos: Polygon, neg: Polygon) -> FracBody:
    """A FracBody made without ``__post_init__``: the path by which the
    fraction operations and the semifield table emit one, as ``paf._store``
    is for PAFs.  ``FracBody(pos, neg)`` stays the decoder of outside data.
    The sides hold the origin by construction: Minkowski sums, hulls of
    unions and dilations by q >= 0 of origin-containing bodies contain it."""
    x = object.__new__(FracBody)
    x.__dict__.update(pos=pos, neg=neg)
    return x


def frac_equal(x: FracBody, y: FracBody) -> bool:
    """Cancellative equality: A - B = A' - B' iff A + B' = A' + B."""
    check_model(x, FracBody)
    check_model(y, FracBody)
    return minkowski(x.pos, y.neg) == minkowski(y.pos, x.neg)


def frac_oplus(x: FracBody, y: FracBody) -> FracBody:
    """Tropical sum of differences: hull((A1+B2) u (A2+B1)) - (B1+B2)."""
    check_model(x, FracBody)
    check_model(y, FracBody)
    return _frac(hull_union(minkowski(x.pos, y.neg), minkowski(y.pos, x.neg)),
                 minkowski(x.neg, y.neg))


FracBody.oplus = frac_oplus


def norm_ray(x: FracBody, e: Polygon) -> tuple[tuple[int, int], Fraction]:
    """The first candidate ray where |l_A - l_B| / l_E peaks, and the peak.

    The ratio is piecewise a ratio of linear forms over the common
    refinement of the three normal fans, so its maximum sits on one of the
    candidate rays: E's facet normals (the polar's vertices), then the
    edge normals of A, then those of B, each as a primitive integer vector
    and taken once, in that order.  ``merged_fan`` merges the rays and one
    sweep of it gives every body's support at every ray, so the search is
    linear in |E| + |A| + |B|, past one bisection per body.
    """
    check_model(x, FracBody)
    a, b = x.pos, x.neg
    rays = [*(n for n, _ in facets(e)), *normal_fan_rays(a), *normal_fan_rays(b)]
    rays = dict.fromkeys((p // g, q // g) for p, q in rays for g in [math.gcd(p, q)])
    fan = merged_fan(e, a, b)
    at = {r: (abs(ha * b._den - hb * a._den), he)
          for r, ha, hb, he in zip(fan, _supports(a, fan), _supports(b, fan), _supports(e, fan))}
    best_ray, top, s_top = next(iter(rays)), 0, 1
    for ray in rays:
        diff, s = at[ray]
        if diff * s_top > top * s:
            best_ray, top, s_top = ray, diff, s
    return best_ray, Fraction(top * e._den, s_top * a._den * b._den)


def r_norm_frac(x: FracBody, e: Polygon) -> Fraction:
    """Least t >= 0 with -tE <= A - B <= tE, i.e. A <= B + tE and B <= A + tE."""
    return norm_ray(x, e)[1]


# -- the square-symmetry example ------------------------------------------------


def i_invariant(a: Polygon) -> bool:
    """Is the body fixed by multiplication by i (exact 90-degree rotation)?"""
    check_model(a, Polygon)
    return a.rotate90() == a


def i_symmetrize(a: Polygon) -> Polygon:
    """Hull of the four rotations: the least i-invariant body containing a."""
    check_model(a, Polygon)
    return _from_int_hull([v for x, y in a._iverts
                           for v in ((x, y), (-y, x), (-x, -y), (y, -x))], a._den)


# -- semifield adapter -----------------------------------------------------------


class PolygonFractionSemifield(CharOneSemifield):
    """Fractions of origin-containing convex bodies, unit = a chosen polytope."""

    name = "convex-fraction"

    def __init__(self, unit_body: Polygon | None = None):
        unit_body = unit_body if unit_body is not None else DEFAULT_UNIT
        facets(unit_body)  # also checks that the origin is strictly inside
        self.zero = _frac(_ORIGIN, _ORIGIN)
        self.unit = _frac(unit_body, _ORIGIN)

    def eq(self, x, y):
        return frac_equal(x, y)

    def r_norm(self, x):
        return r_norm_frac(x, self.unit.pos)

    def random(self, rng):
        # triangles and degenerate bodies keep the law suites inside their
        # time budget; the convex suite exercises richer shapes
        return _frac(random_polygon(rng, max_extra=2), random_polygon(rng, max_extra=2))


def random_polygon(rng, max_extra=3, lim=4) -> Polygon:
    """A small random origin-containing body (possibly a point or segment).

    Integer coordinates keep the law suites fast; rational coordinates
    still arise downstream through the Frobenius dilations.
    """
    pts = [(0, 0)]
    for _ in range(rng.randint(0, max_extra)):
        pts.append((rng.randint(-lim, lim), rng.randint(-lim, lim)))
    return _from_int_hull(pts, 1)


def random_direction(rng) -> Direction:
    while True:
        p, q = rng.randint(-5, 5), rng.randint(-5, 5)
        if p or q:
            return Direction(Fraction(p), Fraction(q))

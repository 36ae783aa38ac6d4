"""Kink valuations on piecewise-affine functions and the circle scheme.

The valuation of a function vanishing at an interior point is its kink
there: right slope minus left slope.  It is additive, superadditive under
the tropical sum, and nonnegative exactly on convex functions, which
turns convexity into a pointwise criterion.  Valuations at the two
domain endpoints are set to zero.

The circle model glues piecewise-affine data on R/Z with every kink
nonnegative; kinks telescope to zero around the circle, so a globally
valid section is constant.  Breakpoints may be quadratic irrationals from
Q(sqrt 2): a section with rational coefficients that is continuous across
an irrational breakpoint cannot kink there at all, which is the exactness
device behind the rationally-defined subsheaf.
"""

from __future__ import annotations

import bisect
import json
import math
from fractions import Fraction

from .errors import PreconditionError, SchemaError
from .paf import PAF, _triple
from .scalars import (Value, as_items, as_pair, as_rat, build, check_model, fmt_rat, parse_list,
                      parse_object, parse_pieces, parse_rat)


# -- the quadratic field Q(sqrt 2) ----------------------------------------------


def _sign(p: int, q: int) -> int:
    """The sign of p + q*sqrt 2 for integers p, q: the term of larger
    square decides when the signs are mixed (p^2 = 2 q^2 only at zero)."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0 or (p > 0) == (q > 0) or 2 * q * q > p * p:
        return 1 if q > 0 else -1
    return 1 if p > 0 else -1


def _quad(p: int, q: int, d: int) -> "Quad":
    """The Quad (p + q*sqrt 2)/d for d > 0, reduced by gcd(p, q, d)."""
    g = math.gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    z = object.__new__(Quad)
    z.p, z.q, z.d = p, q, d
    return z


def _parts(v) -> tuple[int, int, int]:
    """The triple (p, q, d) of a Quad or of a rational."""
    cls = v.__class__
    if cls is Quad:
        return v.p, v.q, v.d
    if cls is not int and cls is not Fraction:  # skips the ABC instance check
        v = as_rat(v)
    return v.numerator, 0, v.denominator


class Quad:
    """An exact element a + b*sqrt(2) of Q(sqrt 2), stored only as the
    integers (p, q, d) with value (p + q*sqrt 2)/d, d > 0 and
    gcd(p, q, d) = 1.  Equal values have equal triples; ordering is one
    integer sign test.  Treat it as immutable."""

    __slots__ = ("p", "q", "d")

    def __init__(self, a, b=0):
        self.p, self.q, self.d = _triple(as_rat(a), as_rat(b))

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.d)

    @staticmethod
    def _coerce(v) -> "Quad":
        return v if v.__class__ is Quad else _quad(*_parts(v))

    def _plus(self, p: int, q: int, d: int) -> "Quad":
        if d == self.d:
            return _quad(self.p + p, self.q + q, d)
        return _quad(self.p * d + p * self.d, self.q * d + q * self.d, self.d * d)

    def __add__(self, other):
        return self._plus(*_parts(other))

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self.p, -self.q, self.d)

    def __sub__(self, other):
        p, q, d = _parts(other)
        return self._plus(-p, -q, d)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        p, q, d = _parts(other)
        return _quad(self.p * p + 2 * self.q * q, self.p * q + self.q * p, self.d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p, q, d = _parts(other)
        n = p * p - 2 * q * q  # the norm, nonzero unless p = q = 0
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        if n < 0:
            n, d = -n, -d
        return _quad((self.p * p - 2 * self.q * q) * d, (self.q * p - self.p * q) * d, self.d * n)

    def _cmp(self, other) -> int:
        p, q, d = _parts(other)
        if d == self.d:
            return _sign(self.p - p, self.q - q)
        return _sign(self.p * d - p * self.d, self.q * d - q * self.d)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (Quad, Fraction, int)):
            return _parts(other) == (self.p, self.q, self.d)
        return NotImplemented

    def __hash__(self):
        return hash(Fraction(self.p, self.d)) if self.q == 0 else hash((self.p, self.q, self.d))

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def floor(self) -> int:
        """Exact: floor(p + q*sqrt 2) = p + floor(q*sqrt 2), and q*sqrt 2 is
        irrational for q != 0, so isqrt(2 q^2) never lands on it."""
        r = math.isqrt(2 * self.q * self.q)
        return (self.p + (r if self.q >= 0 else -r - 1)) // self.d

    def __repr__(self):
        return f"Quad({self.a}, {self.b})"

    def __str__(self):
        """The wire form: "p/q" when rational, else the JSON object."""
        return fmt_rat(self.a) if self.is_rational else json.dumps(self.to_json())

    def to_json(self):
        if self.is_rational:
            return fmt_rat(self.a)
        return {"a": fmt_rat(self.a), "b": fmt_rat(self.b)}

    @classmethod
    def from_json(cls, data) -> "Quad":
        if isinstance(data, str):
            return cls(parse_rat(data))
        if isinstance(data, dict) and all(isinstance(data.get(k), str) for k in "ab"):
            return cls(parse_rat(data["a"]), parse_rat(data["b"]))
        raise SchemaError('a quadratic scalar must be a "p/q" string or '
                          'an object {"a": "p/q", "b": "p/q"}')


SQRT2 = Quad(0, 1)
_Q0 = Quad(0)
_Q1 = Quad(1)
_QUAD_KINDS = "Quads, ints or Fractions"  # what Quad._coerce reads, for as_pair


# -- kinks and valuations on the interval ------------------------------------------


def kink(f: PAF, x) -> Fraction:
    """Right slope minus left slope at an interior point (0 off breakpoints)."""
    check_model(f, PAF)
    x = as_rat(x)
    if not f.lo < x < f.hi:
        raise PreconditionError("kinks are defined at interior points")
    i = f._cell_index(x)
    if f._bps[i] != (x.numerator, x.denominator):
        return Fraction(0)
    (n0, _, d0), (n1, _, d1) = f._pcs[i - 1], f._pcs[i]
    return Fraction(n1 * d0 - n0 * d1, d0 * d1)


def _shifted_valuation(f: PAF, x: Fraction) -> Fraction:
    """The valuation of f - f(x)*E at x: zero at the domain endpoints by
    convention, else the kink of f (subtracting a constant changes no
    slope; kink raises off the domain)."""
    return Fraction(0) if x == f.lo or x == f.hi else kink(f, x)


def valuation_at(x, f: PAF) -> Fraction:
    """The kink valuation of f at x; requires f(x) = 0.

    Nonnegative whenever f is convex.  It is also the valuation extended
    to differences of convex functions: for f = g - h with g, h convex it
    equals kink(g, x) - kink(h, x), the kink of f itself; independence of
    the decomposition and rational homogeneity are exercised by the
    suites.
    """
    check_model(f, PAF)
    x = as_rat(x)
    if f.eval(x) != 0:
        raise PreconditionError("valuations apply to functions vanishing at the point")
    return _shifted_valuation(f, x)


def convexity_criterion(f: PAF) -> bool:
    """Membership test for the convex sub-semiring via valuations: f is
    convex iff the extended valuation of f - f(x)*E is nonnegative at
    every interior breakpoint x.  Subtracting a constant changes no slope,
    so that valuation is the kink of f at x: this is ``PAF.is_convex``."""
    check_model(f, PAF)
    return f.is_convex()


def is_local_unit(f: PAF, x) -> bool:
    """Additively invertible in the localized semiring: no kink at x.

    A formal difference a - b lies in the localization at x exactly when
    its denominator b is a local unit, i.e. b - b(x)*E does not kink at x.
    Endpoints carry the zero valuation, so everything is local there.
    """
    check_model(f, PAF)
    return _shifted_valuation(f, as_rat(x)) == 0


def smooth_neighborhood(f: PAF, x0) -> tuple[Fraction, Fraction]:
    """The explicit open interval around x0 on which f has no kink.

    Requires kink(f, x0) = 0 (endpoints count as kink-free).  Canonical
    form gives every interior breakpoint a nonzero kink, so the interval
    is the cell of x0.
    """
    check_model(f, PAF)
    x0 = as_rat(x0)
    if not f.lo <= x0 <= f.hi:
        raise PreconditionError(f"{x0} outside domain [{f.lo}, {f.hi}]")
    if f.lo < x0 < f.hi and kink(f, x0) != 0:
        raise PreconditionError("the function kinks at the point itself")
    i = f._cell_index(x0)
    return f.breakpoints[i], f.breakpoints[i + 1]


# -- circle sections -------------------------------------------------------------


def _piece_value(piece: tuple[Quad, Quad], t: Quad) -> Quad:
    return piece[0] * t + piece[1]


def _shift_piece(piece: tuple[Quad, Quad], k: int) -> tuple[Quad, Quad]:
    """Re-anchor a piece from lifted coordinates t+k to t."""
    a, b = piece
    return (a, a * k + b)


def _lookup(bps, pcs, t: Quad) -> tuple[Quad, int, tuple[Quad, Quad]]:
    """Place the circle point t in piecewise data: its lift into
    [bps[0], bps[0] + 1), the index i of the piece governing it there, and
    that piece re-anchored at t.

    A circle section has one piece per breakpoint, its last arc wrapping
    to bps[0] + 1; an arc has one breakpoint more than pieces and covers t
    exactly when the lift is at most its last breakpoint.
    """
    k = (t - bps[0]).floor()
    lifted = t - k
    i = bisect.bisect_right(bps, lifted, 0, len(pcs)) - 1
    return lifted, i, _shift_piece(pcs[i], -k)


def _read_section(breakpoints, pieces) -> tuple[list, list]:
    """Circle or arc data as Quads: the breakpoints and (slope, intercept) pieces."""
    return ([Quad._coerce(t) for t in as_items(breakpoints, "breakpoints")],
            [as_pair(pc, "a piece", Quad._coerce, _QUAD_KINDS)
             for pc in as_items(pieces, "pieces")])


def _check_junctions(bps, pcs) -> None:
    """Check that the breakpoints strictly increase and that each piece meets
    the next one at the breakpoint between them."""
    if any(not u < v for u, v in zip(bps, bps[1:])):
        raise PreconditionError("breakpoints must be strictly increasing")
    for i in range(1, len(pcs)):
        if _piece_value(pcs[i - 1], bps[i]) != _piece_value(pcs[i], bps[i]):
            raise PreconditionError(f"discontinuity at {bps[i]}")


class CirclePAF(Value):
    """A continuous piecewise-affine function on R/Z.

    Breakpoints are ascending in [0, 1); arc i carries (slope, intercept)
    on [bp[i], bp[i+1]], the last arc wrapping to bp[0] + 1 (its piece is
    anchored at its own left endpoint, so points below bp[0] evaluate
    through the t+1 lift).
    """

    breakpoints: tuple[Quad, ...]
    pieces: tuple[tuple[Quad, Quad], ...]

    def __post_init__(self, breakpoints, pieces):
        bps, pcs = _read_section(breakpoints, pieces)
        if not bps:
            raise PreconditionError("a circle section needs a breakpoint")
        if len(pcs) != len(bps):
            raise PreconditionError("need exactly one arc per breakpoint")
        if not (_Q0 <= bps[0] and bps[-1] < _Q1):
            raise PreconditionError("breakpoints must lie in [0, 1)")
        _check_junctions(bps, pcs)
        if _piece_value(pcs[-1], bps[0] + 1) != _piece_value(pcs[0], bps[0]):
            raise PreconditionError("discontinuity across the wrap")
        # canonical form: keep each junction where the piece changes, the wrap
        # included; if none changes, continuity across the wrap forced slope 0
        keep = [i for i, pc in enumerate(pcs)
                if pc != (pcs[i - 1] if i else _shift_piece(pcs[-1], 1))]
        if not keep:
            return {"breakpoints": (_Q0,), "pieces": (pcs[0],)}
        return {"breakpoints": tuple(bps[i] for i in keep), "pieces": tuple(pcs[i] for i in keep)}

    @classmethod
    def constant(cls, c) -> "CirclePAF":
        return cls((_Q0,), ((_Q0, Quad._coerce(c)),))

    @classmethod
    def from_kinks(cls, start_value, first_slope, kinks) -> "CirclePAF":
        """Integrate prescribed kinks into a section.

        ``kinks`` maps breakpoints to slope jumps; the jump listed at the
        smallest breakpoint is ignored (the wrap determines it), and the
        constructor raises unless the data closes up around the circle.
        """
        pts = sorted((as_pair(tk, "a kink", Quad._coerce, _QUAD_KINDS)
                      for tk in as_items(kinks, "kinks")), key=lambda p: p[0])
        if not pts:
            return cls.constant(start_value)
        slope, value = Quad._coerce(first_slope), Quad._coerce(start_value)
        pieces = []
        for i, (t, k) in enumerate(pts):
            if i > 0:
                slope = slope + k
                value = _piece_value(pieces[-1], t)
            pieces.append((slope, value - slope * t))
        return cls(tuple(t for t, _ in pts), tuple(pieces))

    def piece_at(self, t) -> tuple[Quad, Quad]:
        """The governing (slope, intercept) at t, in t's own coordinates:
        evaluation at t itself is a*t + b, for any lift t of the point."""
        return _lookup(self.breakpoints, self.pieces, Quad._coerce(t))[2]

    def eval(self, t) -> Quad:
        t = Quad._coerce(t)
        return _piece_value(self.piece_at(t), t)

    def kinks(self) -> list[tuple[Quad, Quad]]:
        """All (breakpoint, right slope - left slope) pairs, wrap included."""
        return [(bp, self.pieces[i][0] - self.pieces[i - 1][0])
                for i, bp in enumerate(self.breakpoints)]

    def is_constant(self) -> bool:
        return len(self.pieces) == 1 and self.pieces[0][0] == _Q0

    def to_json(self) -> dict:
        return {
            "cyclic": True,
            "breakpoints": [t.to_json() for t in self.breakpoints],
            "pieces": [{"a": a.to_json(), "b": b.to_json()} for a, b in self.pieces],
        }

    @classmethod
    def from_json(cls, data) -> "CirclePAF":
        # A list still reaches .get and escapes as AttributeError: the cli
        # benchmark's test keeps {"s": ["x"]} as its example of a crash.
        if not isinstance(data, (dict, list)) or not data.get("cyclic"):
            raise SchemaError('circle sections carry "cyclic": true')
        bps, pcs = parse_object(data, "a circle section", "breakpoints", "pieces")
        bps = tuple(Quad.from_json(t) for t in parse_list(bps, "breakpoints"))
        return build(cls, bps, parse_pieces(pcs, Quad.from_json))


def circle_section_valid(s: CirclePAF) -> bool:
    """Globally valid: continuous (by construction) with every kink >= 0."""
    check_model(s, CirclePAF)
    return all(k >= _Q0 for _, k in s.kinks())


# -- arc sections: restriction, gluing, germs -------------------------------------


class ArcSection(Value):
    """Piecewise-affine data over one circular arc [lo, hi] in lifted
    coordinates (hi may pass 1; the arc is shorter than the full circle)."""

    breakpoints: tuple[Quad, ...]
    pieces: tuple[tuple[Quad, Quad], ...]

    def __post_init__(self, breakpoints, pieces):
        bps, pcs = _read_section(breakpoints, pieces)
        if len(bps) < 2 or len(pcs) != len(bps) - 1:
            raise PreconditionError("arc data must span an interval")
        if bps[-1] - bps[0] >= _Q1:
            raise PreconditionError("an arc must be shorter than the circle")
        _check_junctions(bps, pcs)
        return {"breakpoints": tuple(bps), "pieces": tuple(pcs)}

    @property
    def hi(self) -> Quad:
        return self.breakpoints[-1]

    def piece_at(self, t) -> tuple[Quad, Quad]:
        """(slope, intercept) at circle point t, in t's own coordinates."""
        t = Quad._coerce(t)
        lifted, _, piece = _lookup(self.breakpoints, self.pieces, t)
        if lifted > self.hi:
            raise PreconditionError(f"{t} is outside the arc")
        return piece


def restrict_to_arc(s: CirclePAF, lo, hi) -> ArcSection:
    """The restriction of a circle section to the lifted arc [lo, hi]."""
    check_model(s, CirclePAF)
    lo, hi = Quad._coerce(lo), Quad._coerce(hi)
    if not (_Q0 <= lo < _Q1):
        raise PreconditionError("anchor the arc start in [0, 1)")
    if not lo < hi or hi - lo >= _Q1:
        raise PreconditionError("an arc must be shorter than the circle")
    # the breakpoints lie in [0, 1), so their lifts by 0, then by 1, ascend
    lifts = [bp + k for k in (0, 1) for bp in s.breakpoints]
    cuts = [lo, *(t for t in lifts if lo < t < hi), hi]
    # each cell's piece starts at its left cut
    return ArcSection(tuple(cuts), tuple(s.piece_at(u) for u in cuts[:-1]))


def glue(sections) -> CirclePAF:
    """Glue arc sections covering the circle into one global section.

    Pairs must agree exactly wherever their arcs overlap; a gap or a
    disagreement is an error.
    """
    sections = as_items(sections, "sections")
    for sec in sections:
        check_model(sec, ArcSection)
    if not sections:
        raise PreconditionError("nothing to glue")
    cuts = sorted({t - t.floor() for sec in sections for t in sec.breakpoints})
    pcs = []
    for u in cuts:
        # every arc end is a cut, so an arc covering u covers the cell right of u
        covering = []
        for sec in sections:
            lifted, _, piece = _lookup(sec.breakpoints, sec.pieces, u)
            if lifted < sec.hi:
                covering.append(piece)
        if not covering:
            raise PreconditionError(f"the arcs do not cover the circle near {u}")
        if any(piece != covering[0] for piece in covering[1:]):
            raise PreconditionError(f"sections disagree near {u}")
        pcs.append(covering[0])
    return CirclePAF(tuple(cuts), tuple(pcs))


def germ(s: CirclePAF, x) -> tuple[tuple[Quad, Quad], tuple[Quad, Quad]]:
    """Stalk data at a point: the (left, right) canonical local pieces."""
    check_model(s, CirclePAF)
    x = Quad._coerce(x)
    x = x - x.floor()
    lifted, i, right = _lookup(s.breakpoints, s.pieces, x)
    if s.breakpoints[i] != lifted:
        return right, right
    left = s.pieces[i - 1]
    return (_shift_piece(left, 1) if i == 0 else left), right

"""Piecewise-affine functions on a closed rational interval under (max, +).

A PAF is stored in canonical form: strictly increasing breakpoints from
``lo`` to ``hi``, one exact (slope, intercept) pair per cell, adjacent
cells never carrying the same pair.  Equality is structural equality of
canonical forms, which makes the algebraic laws decidable exactly.

Norm procedures scan breakpoints only: an affine piece attains its
extrema at the cell endpoints, so the pointwise max/min of a PAF over the
domain is the max/min over its breakpoints.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import PreconditionError, SchemaError
from .scalars import build, fmt_rat, parse_list, parse_object, parse_pieces, parse_rat
from .semifield import CharOneSemifield

Piece = tuple[Fraction, Fraction]


def _as_rat(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class PAF:
    """A continuous piecewise-affine function on [lo, hi]."""

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        bps = tuple(_as_rat(t) for t in self.breakpoints)
        pcs = tuple((_as_rat(a), _as_rat(b)) for a, b in self.pieces)
        if len(bps) < 2:
            raise PreconditionError("a PAF needs at least two breakpoints")
        if len(pcs) != len(bps) - 1:
            raise PreconditionError("piece count must be breakpoint count - 1")
        if any(u >= v for u, v in zip(bps, bps[1:])):
            raise PreconditionError("breakpoints must be strictly increasing")
        for i in range(1, len(pcs)):
            t = bps[i]
            a0, b0 = pcs[i - 1]
            a1, b1 = pcs[i]
            if a0 * t + b0 != a1 * t + b1:
                raise PreconditionError(f"discontinuity at breakpoint {t}")
        merged_bps, merged_pcs = [bps[0]], []
        for v, pc in zip(bps[1:], pcs):
            _emit(merged_bps, merged_pcs, v, pc)
        object.__setattr__(self, "breakpoints", tuple(merged_bps))
        object.__setattr__(self, "pieces", tuple(merged_pcs))

    # -- constructors: continuous by construction, so each checks only the
    # order of its breakpoints; from_samples merges collinear cells by _emit

    @classmethod
    def constant(cls, c, lo=0, hi=1) -> "PAF":
        return cls.affine(0, c, lo, hi)

    @classmethod
    def affine(cls, a, b, lo=0, hi=1) -> "PAF":
        """The function t -> a*t + b."""
        lo, hi = _as_rat(lo), _as_rat(hi)
        if lo >= hi:
            raise PreconditionError("breakpoints must be strictly increasing")
        return _unchecked((lo, hi), ((_as_rat(a), _as_rat(b)),))

    @classmethod
    def identity(cls, lo=0, hi=1) -> "PAF":
        return cls.affine(1, 0, lo, hi)

    @classmethod
    def from_samples(cls, samples) -> "PAF":
        """Piecewise-linear interpolation of sorted (t, value) pairs: with
        t = x/y and value p/q, each chord is two reductions over
        D = q0*q1*(x1*y0 - x0*y1), whose sign checks the order."""
        pts = [(_as_rat(t), _as_rat(v)) for t, v in samples]
        if len(pts) < 2:
            raise PreconditionError("need at least two sample points")
        bps, pcs = [pts[0][0]], []
        ints = [(t.numerator, t.denominator, v.numerator, v.denominator) for t, v in pts]
        for (x0, y0, p0, q0), (x1, y1, p1, q1), (t, _) in zip(ints, ints[1:], pts[1:]):
            dt = x1 * y0 - x0 * y1
            if dt <= 0:
                raise PreconditionError("sample points must be strictly increasing")
            den = q0 * q1 * dt
            _emit(bps, pcs, t, (Fraction((p1 * q0 - p0 * q1) * y0 * y1, den),
                                Fraction(p0 * q1 * x1 * y0 - p1 * q0 * x0 * y1, den)))
        return _unchecked(bps, pcs)

    # -- basic queries -----------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return self.breakpoints[0]

    @property
    def hi(self) -> Fraction:
        return self.breakpoints[-1]

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return (self.lo, self.hi)

    def _cell_index(self, t: Fraction) -> int:
        # rightmost cell whose left endpoint is <= t; t == hi lands in the last
        i = bisect.bisect_right(self.breakpoints, t) - 1
        return min(i, len(self.pieces) - 1)

    def eval(self, t) -> Fraction:
        t = _as_rat(t)
        if not self.lo <= t <= self.hi:
            raise PreconditionError(f"{t} outside domain [{self.lo}, {self.hi}]")
        a, b = self.pieces[self._cell_index(t)]
        return a * t + b

    __call__ = eval

    def _values(self) -> list[tuple[int, int]]:
        """f at each breakpoint as integers (num, den), den > 0: with the
        piece (n*t + m)/d and t = x/y, f(t) = (n*x + m*y) / (d*y)."""
        ints = _integer_pieces(self.pieces)
        ints.append(ints[-1])  # the last breakpoint closes the last piece
        return [(n * t.numerator + m * t.denominator, d * t.denominator)
                for (n, m, d), t in zip(ints, self.breakpoints)]

    def min_value(self) -> Fraction:
        return -_first_max([(-num, den) for num, den in self._values()])[1]

    def max_value(self) -> Fraction:
        return _first_max(self._values())[1]

    # -- semifield arithmetic ------------------------------------------------

    def _check_domain(self, other: "PAF"):
        if self.domain != other.domain:
            raise PreconditionError(
                f"domain mismatch: [{self.lo}, {self.hi}] vs [{other.lo}, {other.hi}]"
            )

    def _merged_cells(self, other: "PAF"):
        """Yield (v, i, j) for each cell [u, v] of the merged grid, in order,
        where pieces i of self and j of other hold on the cell: a
        two-pointer walk over both breakpoint tuples, which share their
        first and last entries, comparing breakpoints by integer
        cross-multiplication."""
        xs, ys = self.breakpoints, other.breakpoints
        xk, yk = ([(t.numerator, t.denominator) for t in ts] for ts in (xs, ys))
        i = j = 1
        while i < len(xs):
            (p, q), (r, s) = xk[i], yk[j]
            c = p * s - r * q  # the sign of x - y for x = p/q, y = r/s
            yield (xs[i] if c <= 0 else ys[j]), i - 1, j - 1
            i, j = i + (c <= 0), j + (c >= 0)  # step past the smaller, or past both

    def _envelope(self, other: "PAF", sign: int) -> "PAF":
        """The upper envelope of sign*self and sign*other, times sign: the
        pointwise max for sign 1, the pointwise min for sign -1, with
        crossing points inserted exactly.

        Only the sign of D = sign*(self - other) is needed at each grid
        point, and D is continuous, so the sign at v read from the cell
        that ends there is also the sign where the next cell starts: one
        integer sign test per grid point (du, dv are D scaled by positive
        integers), and a division only where D changes sign.
        """
        self._check_domain(other)
        ps, qs = self.pieces, other.pieces
        fs, gs = _integer_pieces(ps), _integer_pieces(qs)
        bps, pcs = [self.lo], []
        du = sign * _gap(fs[0], gs[0], self.lo)
        for v, i, j in self._merged_cells(other):
            dv = sign * _gap(fs[i], gs[j], v)
            if du >= 0 and dv >= 0:
                _emit(bps, pcs, v, ps[i])
            elif du <= 0 and dv <= 0:
                _emit(bps, pcs, v, qs[j])
            else:  # a strict sign change forces different slopes
                (a1, b1), (a2, b2) = ps[i], qs[j]
                first, second = (ps[i], qs[j]) if du > 0 else (qs[j], ps[i])
                _emit(bps, pcs, (b2 - b1) / (a1 - a2), first)
                _emit(bps, pcs, v, second)
            du = dv
        return _unchecked(bps, pcs)

    def oplus(self, other: "PAF") -> "PAF":
        """Pointwise max, with crossing points inserted exactly."""
        return self._envelope(other, 1)

    def __add__(self, other: "PAF") -> "PAF":
        self._check_domain(other)
        ps, qs = self.pieces, other.pieces
        bps, pcs = [self.lo], []
        for v, i, j in self._merged_cells(other):
            (a1, b1), (a2, b2) = ps[i], qs[j]
            _emit(bps, pcs, v, (a1 + a2, b1 + b2))
        return _unchecked(bps, pcs)

    def __neg__(self) -> "PAF":
        # negation preserves canonical form
        return _unchecked(self.breakpoints, [(-a, -b) for a, b in self.pieces])

    def __sub__(self, other: "PAF") -> "PAF":
        return self + (-other)

    def scale(self, q) -> "PAF":
        """Pointwise multiplication by the rational q."""
        q = _as_rat(q)
        if q == 0:
            return PAF.constant(0, self.lo, self.hi)
        return _unchecked(self.breakpoints, [(q * a, q * b) for a, b in self.pieces])

    def tropical_min(self, other: "PAF") -> "PAF":
        """Pointwise min, the dual of oplus, with crossing points inserted exactly."""
        return self._envelope(other, -1)

    def abs(self) -> "PAF":
        return self.oplus(-self)

    # -- norms and shape -----------------------------------------------------

    def r_norm(self) -> Fraction:
        """Spectral norm against the constant unit: max |f| over breakpoints."""
        return self._peak()[1]

    def _peak(self) -> tuple[int, Fraction]:
        """(i, |f(t_i)|) for the first breakpoint t_i where |f| is largest."""
        return _first_max([(abs(num), den) for num, den in self._values()])

    def weighted_norms(self) -> tuple[Fraction, Fraction]:
        """(gauge, lipschitz) in the anchored model on [0, 1] with unit t -> t.

        gauge is the least c with -c*t <= f(t) <= c*t, i.e. max |f(t)|/t over
        breakpoints t > 0; lipschitz is the largest |slope|.  gauge never
        exceeds lipschitz, but only gauge contracts under max-differences
        (tests carry an explicit counterexample for the other).
        """
        if self.domain != (Fraction(0), Fraction(1)):
            raise PreconditionError("weighted norms are defined on [0, 1]")
        vals = self._values()
        if vals[0][0] != 0:
            raise PreconditionError("weighted norms require f(0) = 0")
        # |f(t)|/t = |num|*y / (den*x) at t = x/y > 0, every breakpoint after 0
        gauge = _first_max([(abs(num) * t.denominator, den * t.numerator)
                            for (num, den), t in zip(vals[1:], self.breakpoints[1:])])[1]
        lipschitz = max(abs(a) for a, _ in self.pieces)
        return gauge, lipschitz

    def is_convex(self) -> bool:
        slopes = [a for a, _ in self.pieces]
        return all(s <= t for s, t in zip(slopes, slopes[1:]))

    def clamp(self, c) -> "PAF":
        """max(min(f, c), -c): the minimal-norm function agreeing with f on {|f| <= c}."""
        c = _as_rat(c)
        if c < 0:
            raise PreconditionError("clamp bound must be nonnegative")
        cap = PAF.constant(c, self.lo, self.hi)
        return self.tropical_min(cap).oplus(-cap)

    # -- reparametrization ---------------------------------------------------

    def restrict(self, a, b) -> "PAF":
        """The same function on [a, b]: the cells that meet it, cut at a and b."""
        a, b = _as_rat(a), _as_rat(b)
        if not (self.lo <= a < b <= self.hi):
            raise PreconditionError(f"[{a}, {b}] is not a subinterval of the domain")
        i, j = self._cell_index(a), bisect.bisect_left(self.breakpoints, b)
        return _unchecked((a, *self.breakpoints[i + 1:j], b), self.pieces[i:j])

    def compose_affine(self, alpha, beta, lo, hi) -> "PAF":
        """The pullback t -> f(alpha*t + beta) on [lo, hi]."""
        alpha, beta = _as_rat(alpha), _as_rat(beta)
        lo, hi = _as_rat(lo), _as_rat(hi)
        if lo >= hi:
            raise PreconditionError("empty target interval")
        ends = (alpha * lo + beta, alpha * hi + beta)
        if not (self.lo <= min(ends) and max(ends) <= self.hi):
            raise PreconditionError("reparametrization leaves the domain")
        if alpha == 0:
            return PAF.constant(self.eval(beta), lo, hi)
        inner = sorted((t - beta) / alpha for t in self.breakpoints
                       if lo < (t - beta) / alpha < hi)
        return PAF.from_samples([(t, self.eval(alpha * t + beta)) for t in [lo, *inner, hi]])

    # -- wire format ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "domain": [fmt_rat(self.lo), fmt_rat(self.hi)],
            "breakpoints": [fmt_rat(t) for t in self.breakpoints],
            "pieces": [{"a": fmt_rat(a), "b": fmt_rat(b)} for a, b in self.pieces],
        }

    @classmethod
    def from_json(cls, data) -> "PAF":
        bps, pcs, domain = parse_object(data, "a PAF", "breakpoints", "pieces", "domain")
        bps = tuple(parse_rat(t) for t in parse_list(bps, "breakpoints"))
        pcs = parse_pieces(pcs, parse_rat)
        domain = tuple(parse_rat(t) for t in parse_list(domain, "domain"))
        if len(bps) < 2 or domain != (bps[0], bps[-1]):
            raise SchemaError("PAF domain must match first/last breakpoints")
        return build(cls, bps, pcs)


def _emit(bps: list, pcs: list, v: Fraction, pc: Piece) -> None:
    """Close a cell at v with the piece pc, merging it into the previous
    cell when the two pieces are equal: the one step by which
    ``__post_init__`` and every operation that can make equal neighbours
    reach canonical form."""
    if pcs and pcs[-1] == pc:
        bps[-1] = v
    else:
        bps.append(v)
        pcs.append(pc)


def _first_max(pairs) -> tuple[int, Fraction]:
    """(i, num/den) for the first integer pair (num, den), den > 0, whose
    ratio is largest: cross-multiplied, and a strict > keeps the first."""
    best, (top, bottom) = 0, pairs[0]
    for i, (num, den) in enumerate(pairs):
        if num * bottom > top * den:
            best, top, bottom = i, num, den
    return best, Fraction(top, bottom)


def _integer_pieces(pcs) -> list[tuple[int, int, int]]:
    """Each piece (a, b) as integers (n, m, d) with a = n/d, b = m/d, d > 0."""
    out = []
    for a, b in pcs:
        da, db = a.denominator, b.denominator
        out.append((a.numerator * db, b.numerator * da, da * db))
    return out


def _gap(p, q, t: Fraction) -> int:
    """p(t) - q(t) for integer pieces p, q, times a positive integer."""
    (n1, m1, d1), (n2, m2, d2) = p, q
    x, y = t.numerator, t.denominator
    return (n1 * x + m1 * y) * d2 - (n2 * x + m2 * y) * d1


def _unchecked(bps, pcs) -> PAF:
    """A PAF from breakpoints and pieces already canonical and continuous."""
    f = object.__new__(PAF)
    object.__setattr__(f, "breakpoints", tuple(bps))
    object.__setattr__(f, "pieces", tuple(pcs))
    return f


def convex_split(f: PAF) -> tuple[PAF, PAF]:
    """Write f = g - h with g, h convex; h absorbs the downward kinks."""
    slopes, bps = [a for a, _ in f.pieces], f.breakpoints
    h_slopes = accumulate((max(Fraction(0), s - t) for s, t in zip(slopes, slopes[1:])),
                          initial=Fraction(0))
    rises = (s * (v - u) for u, v, s in zip(bps, bps[1:], h_slopes))
    h = PAF.from_samples(zip(bps, accumulate(rises, initial=Fraction(0))))  # h(lo) = 0
    return f + h, h


class PAFSemifield(CharOneSemifield):
    """The semifield of PAFs on a fixed domain, unit E = constant 1."""

    name = "paf"

    def __init__(self, lo=0, hi=1):
        self._lo, self._hi = _as_rat(lo), _as_rat(hi)

    def oplus(self, x, y):
        return x.oplus(y)

    def plus(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def scale(self, q, x):
        return x.scale(q)

    @property
    def zero(self):
        return PAF.constant(0, self._lo, self._hi)

    @property
    def unit(self):
        return PAF.constant(1, self._lo, self._hi)

    def r_norm(self, x):
        return x.r_norm()

    def random(self, rng, max_cuts=3):
        return random_paf(rng, self._lo, self._hi, max_cuts=max_cuts)


def random_paf(rng, lo=0, hi=1, max_cuts=3, value_lim=8, den=6) -> PAF:
    """A random PAF from a small rational grid; exactness-friendly sizes."""
    lo, hi = _as_rat(lo), _as_rat(hi)
    grid_den = rng.randint(2, den)
    k = rng.randint(0, min(max_cuts, 2 * grid_den - 1))
    cuts = sorted(rng.sample(range(1, 2 * grid_den), k))
    ts = [lo] + [lo + (hi - lo) * Fraction(c, 2 * grid_den) for c in cuts] + [hi]
    vals = [Fraction(rng.randint(-value_lim, value_lim), rng.randint(1, 4)) for _ in ts]
    return PAF.from_samples(list(zip(ts, vals)))

"""Piecewise-affine functions on a closed rational interval under (max, +).

A PAF is stored in canonical form, as integers only: ``_bps`` holds one
reduced pair (x, y), y > 0, per breakpoint t = x/y, strictly increasing
from ``lo`` to ``hi``; ``_pcs`` holds one reduced triple (n, m, d), d > 0,
per cell, the piece t -> (n*t + m)/d, and adjacent cells never carry the
same triple.  No denominator is shared.  Equal functions have equal
integers, which makes the algebraic laws decidable exactly.  The views
``breakpoints`` and ``pieces`` build the ``Fraction`` items read, and keep none.

Norm procedures scan breakpoints only: an affine piece attains its
extrema at the cell endpoints, so the pointwise max/min of a PAF over the
domain is the max/min over its breakpoints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate
from math import gcd

from .errors import PreconditionError, SchemaError
from .scalars import (Value, as_items, as_pair, as_rat, build, check_model, first_max, fmt_rat,
                      parse_list, parse_object, parse_pieces, parse_rat)
from .semifield import CharOneSemifield

Piece = tuple[Fraction, Fraction]


class PAF(Value):
    """A continuous piecewise-affine function on [lo, hi]."""

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[Piece, ...]

    def __post_init__(self, breakpoints, pieces):
        """The one decoder of outside breakpoints and (slope, intercept) pairs:
        checked in integers, equal neighbours merged, stored as the integer form."""
        ts = [as_rat(t) for t in as_items(breakpoints, "breakpoints")]
        pcs = [_triple(*as_pair(pc, "a piece")) for pc in as_items(pieces, "pieces")]
        if len(ts) < 2:
            raise PreconditionError("a PAF needs at least two breakpoints")
        if len(pcs) != len(ts) - 1:
            raise PreconditionError("piece count must be breakpoint count - 1")
        bps = [(t.numerator, t.denominator) for t in ts]
        if any(x * v >= u * y for (x, y), (u, v) in zip(bps, bps[1:])):
            raise PreconditionError("breakpoints must be strictly increasing")
        merged_bps, merged_pcs = [bps[0]], []
        for i, (v, pc) in enumerate(zip(bps[1:], pcs)):
            if i and _gap(pcs[i - 1], pc, bps[i]):
                raise PreconditionError(f"discontinuity at breakpoint {ts[i]}")
            _emit(merged_bps, merged_pcs, v, pc)
        return {"_bps": tuple(merged_bps), "_pcs": tuple(merged_pcs)}

    def __getattr__(self, name):
        # only the two views reach here: the stored fields are plain attributes
        if name == "breakpoints":
            return _View(self._bps, _rat)
        if name == "pieces":
            return _View(self._pcs, _piece)
        raise AttributeError(name)

    def __eq__(self, other):
        if other.__class__ is not PAF:
            return NotImplemented
        return self._pcs == other._pcs and self._bps == other._bps

    def __hash__(self):
        return hash((self._bps, self._pcs))

    # -- constructors: continuous by construction, so each checks only the
    # order of its breakpoints; from_samples merges collinear cells by _emit

    @classmethod
    def constant(cls, c, lo=0, hi=1) -> "PAF":
        return cls.affine(0, c, lo, hi)

    @classmethod
    def affine(cls, a, b, lo=0, hi=1) -> "PAF":
        """The function t -> a*t + b."""
        lo, hi = as_rat(lo), as_rat(hi)
        if lo >= hi:
            raise PreconditionError("breakpoints must be strictly increasing")
        return _store(((lo.numerator, lo.denominator), (hi.numerator, hi.denominator)),
                      (_triple(as_rat(a), as_rat(b)),))

    @classmethod
    def from_samples(cls, samples) -> "PAF":
        """Piecewise-linear interpolation of sorted (t, value) pairs: with
        t = x/y and value p/q, each chord is one reduction of a triple over
        D = q0*q1*(x1*y0 - x0*y1), whose sign checks the order."""
        pts = [as_pair(s, "a sample") for s in as_items(samples, "samples")]
        if len(pts) < 2:
            raise PreconditionError("need at least two sample points")
        ints = [(t.numerator, t.denominator, v.numerator, v.denominator) for t, v in pts]
        bps, pcs = [ints[0][:2]], []
        for (x0, y0, p0, q0), (x1, y1, p1, q1) in zip(ints, ints[1:]):
            d = q0 * q1 * (x1 * y0 - x0 * y1)
            if d <= 0:
                raise PreconditionError("sample points must be strictly increasing")
            n, m = (p1 * q0 - p0 * q1) * y0 * y1, p0 * q1 * x1 * y0 - p1 * q0 * x0 * y1
            g = gcd(d, n, m)
            _emit(bps, pcs, (x1, y1), (n // g, m // g, d // g))
        return _store(bps, pcs)

    # -- basic queries -----------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return _rat(self._bps[0])

    @property
    def hi(self) -> Fraction:
        return _rat(self._bps[-1])

    def _cell_index(self, t: Fraction) -> int:
        # rightmost cell whose left endpoint is <= t; t == hi lands in the last
        return min(bisect_right(self._bps, 0, key=_minus(t)), len(self._pcs)) - 1

    def eval(self, t) -> Fraction:
        t = as_rat(t)
        (x0, y0), (x1, y1), x, y = self._bps[0], self._bps[-1], t.numerator, t.denominator
        if x * y0 < x0 * y or x * y1 > x1 * y:
            raise PreconditionError(f"{t} outside domain [{self.lo}, {self.hi}]")
        n, m, d = self._pcs[self._cell_index(t)]
        return Fraction(n * x + m * y, d * y)

    __call__ = eval

    def _values(self, windows=None) -> list[tuple[int, int]]:
        """f as integers (num, den), den > 0, at the points of each window
        [a, b] of ``windows`` in turn: a, the breakpoints strictly inside,
        then b.  By default the one window is the domain, whose points are
        the breakpoints.  With the piece (n*t + m)/d and t = x/y,
        f(t) = (n*x + m*y) / (d*y)."""
        bps, pcs = self._bps, self._pcs
        if windows is None:
            pts, cells = bps, pcs + pcs[-1:]  # the last breakpoint closes the last piece
        else:
            pts, cells = [], []
            for a, b in windows:
                # piece i holds at a, piece k at breakpoint k, and piece j - 1 at b
                i = self._cell_index(a)
                j = max(i + 1, bisect_left(bps, 0, key=_minus(b)))
                pts += [(a.numerator, a.denominator), *bps[i + 1:j], (b.numerator, b.denominator)]
                cells += [*pcs[i:j], pcs[j - 1]]
        return [(n * x + m * y, d * y) for (n, m, d), (x, y) in zip(cells, pts)]

    def min_value(self) -> Fraction:
        _, (num, den) = first_max([(-num, den) for num, den in self._values()])
        return Fraction(-num, den)

    def max_value(self) -> Fraction:
        _, (num, den) = first_max(self._values())
        return Fraction(num, den)

    # -- semifield arithmetic ------------------------------------------------

    def _check_domain(self, other: "PAF"):
        check_model(other, PAF)
        if self._bps[0] != other._bps[0] or self._bps[-1] != other._bps[-1]:
            raise PreconditionError(
                f"domain mismatch: [{self.lo}, {self.hi}] vs [{other.lo}, {other.hi}]"
            )

    def _merged_cells(self, other: "PAF"):
        """Yield (v, i, j) for each cell [u, v] of the merged grid, in order,
        with v a breakpoint pair and pieces i of self and j of other holding
        on the cell: a two-pointer walk over both breakpoint tuples (which
        share their ends), comparing by cross-multiplication."""
        xs, ys = self._bps, other._bps
        i = j = 1
        while i < len(xs):
            (p, q), (r, s) = xs[i], ys[j]
            c = p * s - r * q  # the sign of x - y for x = p/q, y = r/s
            yield (xs[i] if c <= 0 else ys[j]), i - 1, j - 1
            i, j = i + (c <= 0), j + (c >= 0)  # step past the smaller, or past both

    def _envelope(self, other: "PAF", sign: int) -> "PAF":
        """The pointwise max (sign 1) or min (sign -1), crossings inserted
        exactly.  D = sign*(self - other) is continuous, so its sign at v,
        read from the cell that ends there, holds where the next cell
        starts: one integer sign test per grid point (du, dv are D times
        positive integers), and a reduction only where D changes sign."""
        self._check_domain(other)
        ps, qs = self._pcs, other._pcs
        bps, pcs = [self._bps[0]], []
        du = sign * _gap(ps[0], qs[0], bps[0])
        for v, i, j in self._merged_cells(other):
            p, q = ps[i], qs[j]
            dv = sign * _gap(p, q, v)
            if du >= 0 and dv >= 0:
                _emit(bps, pcs, v, p)
            elif du <= 0 and dv <= 0:
                _emit(bps, pcs, v, q)
            else:  # a strict sign change forces different slopes: p = q at x/y
                (n1, m1, d1), (n2, m2, d2) = p, q
                x, y = m2 * d1 - m1 * d2, n1 * d2 - n2 * d1
                g = gcd(x, y) if y > 0 else -gcd(x, y)
                _emit(bps, pcs, (x // g, y // g), p if du > 0 else q)
                _emit(bps, pcs, v, q if du > 0 else p)
            du = dv
        return _store(bps, pcs)

    def oplus(self, other: "PAF") -> "PAF":
        """Pointwise max, with crossing points inserted exactly."""
        return self._envelope(other, 1)

    def __add__(self, other: "PAF") -> "PAF":
        """Piecewise sums over the lcm d1*d2/e, e = gcd(d1, d2): both input
        triples are reduced, so gcd(n, m, lcm) divides e, and the reduction
        is a gcd with the small e."""
        self._check_domain(other)
        ps, qs = self._pcs, other._pcs
        bps, pcs = [self._bps[0]], []
        for v, i, j in self._merged_cells(other):
            (n1, m1, d1), (n2, m2, d2) = ps[i], qs[j]
            e = gcd(d1, d2)
            e1, e2 = d1 // e, d2 // e
            n, m = n1 * e2 + n2 * e1, m1 * e2 + m2 * e1
            g = gcd(e, n, m)
            _emit(bps, pcs, v, (n // g, m // g, d1 * e2 // g))
        return _store(bps, pcs)

    def __neg__(self) -> "PAF":
        # negation preserves canonical form
        return _store(self._bps, [(-n, -m, d) for n, m, d in self._pcs])

    def __sub__(self, other: "PAF") -> "PAF":
        check_model(other, PAF)
        return self + (-other)

    def scale(self, q) -> "PAF":
        """Pointwise multiplication by the rational q = r/s: with
        gcd(n, m, d) = gcd(r, s) = 1, the triple (r*n, r*m, s*d) has the gcd
        gcd(r, d) * gcd(s, n, m), so no gcd is taken on the product."""
        q = as_rat(q)
        r, s = q.numerator, q.denominator
        if r == 0:
            return _store((self._bps[0], self._bps[-1]), ((0, 0, 1),))
        pcs = []
        for n, m, d in self._pcs:
            g, h = gcd(r, d), gcd(s, n, m)
            pcs.append((r // g * (n // h), r // g * (m // h), s // h * (d // g)))
        return _store(self._bps, pcs)

    def tropical_min(self, other: "PAF") -> "PAF":
        """Pointwise min, the dual of oplus, with crossing points inserted exactly."""
        return self._envelope(other, -1)

    def abs(self) -> "PAF":
        return self.oplus(-self)

    # -- norms and shape -----------------------------------------------------

    def r_norm(self) -> Fraction:
        """Spectral norm against the constant unit: max |f| over breakpoints."""
        return self._peak()[1]

    def _peak(self, windows=None) -> tuple[int, Fraction]:
        """(i, |f(t_i)|) for the first point t_i of ``_values(windows)``
        where |f| is largest: on the domain, t_i is breakpoint i."""
        i, (num, den) = first_max([(abs(num), den) for num, den in self._values(windows)])
        return i, Fraction(num, den)

    def lipschitz(self) -> Fraction:
        """The largest |slope|."""
        _, (n, d) = first_max([(abs(n), d) for n, _, d in self._pcs])
        return Fraction(n, d)

    def is_convex(self) -> bool:
        pcs = self._pcs
        return all(n0 * d1 <= n1 * d0 for (n0, _, d0), (n1, _, d1) in zip(pcs, pcs[1:]))

    def clamp(self, c) -> "PAF":
        """max(min(f, c), -c): the minimal-norm function agreeing with f on {|f| <= c}."""
        c = as_rat(c)
        if c < 0:
            raise PreconditionError("clamp bound must be nonnegative")
        cap = PAF.constant(c, self.lo, self.hi)
        return self.tropical_min(cap).oplus(-cap)

    # -- reparametrization ---------------------------------------------------

    def restrict(self, a, b) -> "PAF":
        """The same function on [a, b]: the cells that meet it, cut at a and b."""
        a, b = as_rat(a), as_rat(b)
        if not (self.lo <= a < b <= self.hi):
            raise PreconditionError(f"[{a}, {b}] is not a subinterval of the domain")
        i, j = self._cell_index(a), bisect_left(self._bps, 0, key=_minus(b))
        return _store(((a.numerator, a.denominator), *self._bps[i + 1:j],
                       (b.numerator, b.denominator)), self._pcs[i:j])

    def compose_affine(self, alpha, beta, lo, hi) -> "PAF":
        """The pullback t -> f(alpha*t + beta) on [lo, hi]."""
        alpha, beta = as_rat(alpha), as_rat(beta)
        lo, hi = as_rat(lo), as_rat(hi)
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


class _View(Sequence):
    """A read-only sequence over a stored integer tuple: each item read is
    built by ``make`` and not kept.  It equals the tuple of its items and
    prints as that tuple."""

    __slots__ = ("_items", "_make")

    def __init__(self, items: tuple, make):
        self._items, self._make = items, make

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        if i.__class__ is slice:
            return tuple(map(self._make, self._items[i]))
        return self._make(self._items[i])

    def __iter__(self):
        return map(self._make, self._items)

    def __eq__(self, other):
        return tuple(self) == tuple(other) if isinstance(other, (tuple, _View)) else NotImplemented

    def __repr__(self):
        return repr(tuple(self))


def _rat(p) -> Fraction:
    return Fraction(p[0], p[1])


def _piece(p) -> Piece:
    return Fraction(p[0], p[2]), Fraction(p[1], p[2])


def _triple(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """(a*d, b*d, d) with d = lcm(a.den, b.den), reduced already: the piece
    t -> a*t + b here, and the Quad a + b*sqrt 2 in ``valuation``."""
    da, db = a.denominator, b.denominator
    d = da // gcd(da, db) * db
    return a.numerator * (d // da), b.numerator * (d // db), d


def _store(bps, pcs) -> PAF:
    """A PAF, made without ``__post_init__``, holding the canonical integer
    form: the path by which every constructor and walk emits one."""
    f = object.__new__(PAF)
    f.__dict__.update(_bps=tuple(bps), _pcs=tuple(pcs))
    return f


def _emit(bps: list, pcs: list, v, pc) -> None:
    """Close a cell at the breakpoint pair v with the piece triple pc,
    merging it into the previous cell when the two triples are equal: the
    one step by which ``__post_init__`` and every operation that can make
    equal neighbours reach canonical form."""
    if pcs and pcs[-1] == pc:
        bps[-1] = v
    else:
        bps.append(v)
        pcs.append(pc)


def _minus(t: Fraction):
    """A bisect key on breakpoint pairs (x, y), searched for 0: x/y - t times y*t.den."""
    return lambda p: p[0] * t.denominator - t.numerator * p[1]


def _gap(p, q, t) -> int:
    """p(t) - q(t) for piece triples p, q at the breakpoint pair t, times d1*d2*y > 0."""
    (n1, m1, d1), (n2, m2, d2), (x, y) = p, q, t
    return (n1 * x + m1 * y) * d2 - (n2 * x + m2 * y) * d1


def convex_split(f: PAF) -> tuple[PAF, PAF]:
    """Write f = g - h with g, h convex; h absorbs the downward kinks."""
    check_model(f, PAF)
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
        self.zero = PAF.constant(0, lo, hi)
        self.unit = PAF.constant(1, lo, hi)

    def r_norm(self, x):
        check_model(x, PAF)
        return x.r_norm()

    def random(self, rng):
        return random_paf(rng, self.zero.lo, self.zero.hi)


def random_paf(rng, lo=0, hi=1, max_cuts=3, value_lim=8) -> PAF:
    """A random PAF from a small rational grid; exactness-friendly sizes."""
    lo, hi = as_rat(lo), as_rat(hi)
    grid_den = rng.randint(2, 6)
    k = rng.randint(0, min(max_cuts, 2 * grid_den - 1))
    cuts = sorted(rng.sample(range(1, 2 * grid_den), k))
    ts = [lo] + [lo + (hi - lo) * Fraction(c, 2 * grid_den) for c in cuts] + [hi]
    vals = [Fraction(rng.randint(-value_lim, value_lim), rng.randint(1, 4)) for _ in ts]
    return PAF.from_samples(list(zip(ts, vals)))

"""Restriction congruences on the piecewise-affine semifield.

Two functions are congruent when they agree on a fixed closed subset K1
of the domain; the class of zero is exactly the functions vanishing on
K1.  Restriction to a closed set is the only first-class congruence here:
single-point restrictions stand in for the maximal congruences, and the
quotient through one of them is evaluation at the point.

The quotient norm has a constructive minimal representative: clamping a
function to its maximum modulus over K1 keeps it congruent and realizes
the infimum of the norm over the class exactly.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from operator import itemgetter

from .errors import PreconditionError
from .paf import PAF
from .scalars import (Value, as_items, as_pair, as_rat, build, check_model, fmt_rat, parse_list,
                      parse_object, parse_pair)

Interval = tuple[Fraction, Fraction]


class ClosedSet(Value):
    """A finite union of disjoint closed intervals (points allowed)."""

    intervals: tuple[Interval, ...]

    def __post_init__(self, intervals):
        ivs = sorted(as_pair(iv, "an interval") for iv in as_items(intervals, "intervals"))
        if any(a > b for a, b in ivs):
            raise PreconditionError("intervals must satisfy a <= b")
        merged: list[list[Fraction]] = []
        for a, b in ivs:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return {"intervals": tuple((a, b) for a, b in merged)}

    @classmethod
    def of(cls, *intervals) -> "ClosedSet":
        return cls(intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, t) -> bool:
        t = as_rat(t)
        i = bisect.bisect_right(self.intervals, t, key=itemgetter(0))
        return i > 0 and t <= self.intervals[i - 1][1]

    def union(self, other: "ClosedSet") -> "ClosedSet":
        check_model(other, ClosedSet)
        return ClosedSet(self.intervals + other.intervals)

    def intersect(self, other: "ClosedSet") -> "ClosedSet":
        check_model(other, ClosedSet)
        pairs = ((max(a, c), min(b, d)) for a, b in self.intervals for c, d in other.intervals)
        return ClosedSet(tuple((lo, hi) for lo, hi in pairs if lo <= hi))

    def within(self, lo, hi) -> bool:
        ivs = self.intervals  # sorted and disjoint: the outer ends decide
        return not ivs or (as_rat(lo) <= ivs[0][0] and ivs[-1][1] <= as_rat(hi))

    def to_json(self) -> dict:
        return {"intervals": [[fmt_rat(a), fmt_rat(b)] for a, b in self.intervals]}

    @classmethod
    def from_json(cls, data) -> "ClosedSet":
        [intervals] = parse_object(data, "a closed set", "intervals")
        return build(cls, tuple(parse_pair(iv, "an interval")
                                for iv in parse_list(intervals, "intervals")))


class RestrictionCongruence(Value):
    """Agreement on a closed subset of the domain.

    The empty set is allowed: it is the trivial congruence relating
    everything, read as ``r.k.is_empty``.  Its Zariski closed set V(r),
    the point characters factoring through the quotient, is exactly ``k``.
    """

    k: ClosedSet

    def __post_init__(self, k):
        check_model(k, ClosedSet)
        return {"k": k}


def related(r: RestrictionCongruence, f: PAF, g: PAF) -> bool:
    """Does f agree with g on the restriction set?

    pi(f) = pi(g) in the quotient exactly when the class of f - g has norm
    0, so the relation is the zero set of the quotient norm.  The trivial
    congruence relates everything, on any domains.
    """
    check_model(r, RestrictionCongruence)
    return r.k.is_empty or quotient_norm(f, r.k, g) == 0


def class_of_zero_contains(r: RestrictionCongruence, f: PAF) -> bool:
    check_model(r, RestrictionCongruence)
    return r.k.is_empty or quotient_norm(f, r.k) == 0


def quotient_norm(f: PAF, k: ClosedSet, g: PAF | None = None) -> Fraction:
    """Largest |f| over the closed set: the norm of the class of f.  Given
    g, the norm of the class of f - g, formed once on the whole domain.
    One integer scan reads |h| at the ends of each interval of K and at the
    breakpoints strictly inside (``PAF._peak``), and builds one Fraction."""
    check_model(f, PAF)
    check_model(k, ClosedSet)
    if k.is_empty:
        raise PreconditionError("quotient norm needs a nonempty restriction set")
    if g is not None:
        f._check_domain(g)
    if not k.within(f.lo, f.hi):
        raise PreconditionError("restriction set leaves the function's domain")
    return (f if g is None else f - g)._peak(k.intervals)[1]


def min_representative(f: PAF, k: ClosedSet) -> PAF:
    """The congruent function of least norm: clamp at the quotient norm."""
    check_model(f, PAF)
    return f.clamp(quotient_norm(f, k))


def join(r1: RestrictionCongruence, r2: RestrictionCongruence) -> RestrictionCongruence:
    """Smallest congruence above both: agreement on the intersection."""
    check_model(r1, RestrictionCongruence)
    check_model(r2, RestrictionCongruence)
    return RestrictionCongruence(r1.k.intersect(r2.k))


def meet(r1: RestrictionCongruence, r2: RestrictionCongruence) -> RestrictionCongruence:
    """Largest congruence below both: agreement on the union."""
    check_model(r1, RestrictionCongruence)
    check_model(r2, RestrictionCongruence)
    return RestrictionCongruence(r1.k.union(r2.k))


def zariski_laws(r1: RestrictionCongruence, r2: RestrictionCongruence) -> bool:
    """V(r) = r.k turns meet into union and join into intersection, exactly.

    Checked pointwise with ``contains``: every set involved is a union of
    closed intervals ending at one of the collected ends, so membership is
    constant between two consecutive ends, and probing each end and each
    midpoint decides both equalities.
    """
    km, kj = meet(r1, r2).k, join(r1, r2).k  # meet checks both congruences
    k1, k2 = r1.k, r2.k
    ends = sorted({t for k in (k1, k2, km, kj) for iv in k.intervals for t in iv})
    probes = ends + [(u + v) / 2 for u, v in zip(ends, ends[1:])]
    for t in probes:
        in1, in2 = k1.contains(t), k2.contains(t)
        if km.contains(t) != (in1 or in2) or kj.contains(t) != (in1 and in2):
            return False
    return True


# -- quotient order and decomposition witnesses ---------------------------------


def order_witness(f: PAF, g: PAF, k: ClosedSet) -> PAF | None:
    """If pi(f) <= pi(g), an H in the class of zero with f <= g + H.

    H = pos_part(f - g) works: it vanishes on K1 exactly when f <= g
    there, and dominates f - g everywhere.  Returns None when the classes
    are not ordered.
    """
    check_model(f, PAF)
    h = (f - g).oplus(PAF.constant(0, f.lo, f.hi))
    return h if class_of_zero_contains(RestrictionCongruence(k), h) else None


def _bump(k: ClosedSet, lo: Fraction, hi: Fraction, slope, cap) -> PAF:
    """t -> min(cap, slope * d(t, K)) on [lo, hi], interpolated on the hull of
    [lo, hi] and its kinks, then restricted: the ends of K's intervals, the
    points at distance reach = cap/slope from them, the midpoints of gaps
    shorter than 2*reach, and lo and hi where the bump is flat."""
    if slope == 0:
        return PAF.constant(0, lo, hi)
    reach, ivs = cap / slope, k.intervals
    kinks = [(lo, cap)] if lo < ivs[0][0] - reach else []
    for n, (a, b) in enumerate(ivs):
        c = ivs[n - 1][1] if n else a - 2 * reach  # the previous end, or a virtual one
        half = (a - c) / 2
        kinks += ([(c + reach, cap), (a - reach, cap)] if reach < half
                  else [(c + half, slope * half)])
        kinks += [(a, 0), (b, 0)] if a < b else [(a, 0)]
    kinks.append((ivs[-1][1] + reach, cap))
    if hi > kinks[-1][0]:
        kinks.append((hi, cap))
    return PAF.from_samples(kinks).restrict(lo, hi)


def cutoff(f: PAF, k: ClosedSet, slope=None) -> PAF:
    """A congruent-to-zero surrogate for f: agrees with f away from K1,
    vanishes on K1.

    f clamped pointwise into [-bump, bump], where the bump is 0 on K1,
    rises with slope ``slope * big`` away from it and levels off at
    big = max(1, r(f)), so f is kept wherever the bump has levelled off.
    The slope must be nonnegative, so that the bump is.
    """
    check_model(f, PAF)
    check_model(k, ClosedSet)
    if slope is not None and as_rat(slope) < 0:
        raise PreconditionError("cutoff slope must be nonnegative")
    if k.is_empty:
        return f
    big = max(Fraction(1), f.r_norm())
    steep = _default_slope(f, big) if slope is None else as_rat(slope)
    bump = _bump(k, f.lo, f.hi, steep * big, big)
    return f.tropical_min(bump).oplus(-bump)


def _default_slope(f: PAF, big: Fraction | None = None) -> Fraction:
    """max(1, lip(f) / big) for the bump's level big = max(1, r(f)), if not given."""
    if big is None:
        big = max(Fraction(1), f.r_norm())
    return max(Fraction(1), f.lipschitz() / big)


def split_vanishing(f: PAF, r1: RestrictionCongruence,
                    r2: RestrictionCongruence) -> tuple[PAF, PAF]:
    """Split f (vanishing on K1 n K2) as f1 + f2 with fi vanishing on Ki.

    f1 is the cutoff of f along K1 with a slope steep enough that the bump
    saturates before reaching K2: components of K1 and K2 either overlap
    (where f vanishes, so a Lipschitz bound controls the ramp) or sit at a
    positive gap.
    """
    if not class_of_zero_contains(join(r1, r2), f):
        raise PreconditionError("function must vanish on the intersection")
    if r1.k.is_empty:
        return f, PAF.constant(0, f.lo, f.hi)
    # the positive gaps between K1 and K2: of two disjoint intervals, exactly
    # one of c - b and a - d is positive
    gaps = [max(c - b, a - d) for a, b in r1.k.intervals for c, d in r2.k.intervals
            if c > b or a > d]
    f1 = cutoff(f, r1.k, slope=max([_default_slope(f)] + [1 / gap for gap in gaps]))
    return f1, f - f1


# -- extension to fraction pairs over the convex sub-semiring --------------------


def _as_paf(f) -> PAF:
    """A member of a fraction pair, for ``as_pair``."""
    check_model(f, PAF)
    return f


class FractionRestriction(Value):
    """The extension of a congruence to fractions: the unique congruence
    on difference pairs restricting to ``base`` on the convex functions."""

    base: RestrictionCongruence

    def __post_init__(self, base):
        check_model(base, RestrictionCongruence)
        return {"base": base}

    def related(self, x: tuple[PAF, PAF], y: tuple[PAF, PAF]) -> bool:
        (a, b), (a2, b2) = (as_pair(v, "a fraction pair", _as_paf, "PAFs") for v in (x, y))
        if not all(g.is_convex() for g in (a, b, a2, b2)):
            raise PreconditionError("fraction pairs live over convex functions")
        return related(self.base, a + b2, a2 + b)

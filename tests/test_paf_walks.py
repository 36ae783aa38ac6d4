"""The integer PAF walks against the Fraction code they replaced.

Each oracle below is the earlier implementation, kept verbatim in spirit:
the two-pointer merge comparing ``Fraction``s, interpolation through the
checked constructor ``PAF(bps, pcs)``, the distance function as a min of
max-envelopes, the cutoff bump as that distance scaled and clamped,
the quotient norm read off ``Fraction`` values and as the largest
``r_norm`` of the restrictions to the intervals of K, the relation as the
zero set of the quotient norm of the full difference f - g, and the
restriction as the pullback by the identity.
"""

import random
from fractions import Fraction as F

import pytest

from char1 import congruence as cg
from char1.congruence import ClosedSet, RestrictionCongruence
from char1.errors import PreconditionError
from char1.laws import random_closed_set
from char1.paf import PAF, random_paf

# -- the Fraction oracles ------------------------------------------------------------


def fraction_merge(f, g):
    """(v, i, j) per cell of the merged grid, comparing breakpoints as Fractions."""
    xs, ys = f.breakpoints, g.breakpoints
    out, i, j = [], 1, 1
    while i < len(xs):
        x, y = xs[i], ys[j]
        if x < y:
            out.append((x, i - 1, j - 1))
            i += 1
        elif y < x:
            out.append((y, i - 1, j - 1))
            j += 1
        else:
            out.append((x, i - 1, j - 1))
            i, j = i + 1, j + 1
    return out


def checked_interpolation(samples):
    """Interpolation through the checked constructor, continuity re-checked."""
    pts = [(F(t), F(v)) for t, v in samples]
    pcs = []
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        a = (v1 - v0) / (t1 - t0)
        pcs.append((a, v0 - a * t0))
    return PAF(tuple(t for t, _ in pts), tuple(pcs))


def envelope_dist(k, lo, hi):
    """d(t, K) on [lo, hi] as the min over K's intervals of max(a - t, t - b, 0)."""
    lo, hi = F(lo), F(hi)
    out = None
    for a, b in k.intervals:
        part = (PAF.affine(-1, a, lo, hi).oplus(PAF.affine(1, -b, lo, hi))
                .oplus(PAF.constant(0, lo, hi)))
        out = part if out is None else out.tropical_min(part)
    return out


def envelope_cutoff(f, k, slope=None):
    if k.is_empty:
        return f
    big = max(F(1), f.r_norm())
    steep = slope if slope is not None else cg._default_slope(f)
    bump = envelope_dist(k, f.lo, f.hi).scale(steep * big).clamp(big)
    return f.tropical_min(bump).oplus(-bump)


def fraction_quotient_norm(f, k):
    best = F(0)
    for a, b in k.intervals:
        pts = [a, b] + [t for t in f.breakpoints if a < t < b]
        best = max(best, max(abs(f.eval(t)) for t in pts))
    return best


def restrict_quotient_norm(f, k, g=None):
    """The largest |f - g| over K, each interval read through restrictions."""
    def peak(a, b):
        if a == b:
            return abs(f(a) - (0 if g is None else g(a)))
        h = f.restrict(a, b)
        return (h if g is None else h - g.restrict(a, b)).r_norm()

    return max(peak(a, b) for a, b in k.intervals)


# -- inputs --------------------------------------------------------------------------


def wide_paf(rng, n, bits=100, lo=F(0), hi=F(1)):
    """n breakpoints over [lo, hi] with denominators of about ``bits`` bits."""
    den = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    cuts = sorted({rng.randrange(1, den) for _ in range(n - 2)})
    ts = [lo] + [lo + (hi - lo) * F(c, den) for c in cuts] + [hi]
    return PAF.from_samples([(t, F(rng.randint(-99, 99), rng.randint(1, 9))) for t in ts])


def coarsened(rng, f, keep):
    """f resampled at a random share of its breakpoints, ends kept: a PAF
    sharing breakpoints with f."""
    inner = [t for t in f.breakpoints[1:-1] if rng.random() < keep]
    return PAF.from_samples([(t, F(rng.randint(-9, 9))) for t in [f.lo, *inner, f.hi]])


# -- the merged grid -----------------------------------------------------------------


def check_merge(f, g):
    # the walk yields each grid point as its stored pair (x, y), t = x/y
    cells = [(F(*v), i, j) for v, i, j in f._merged_cells(g)]
    assert cells == fraction_merge(f, g)
    assert [v for v, _, _ in cells] == sorted(set(f.breakpoints) | set(g.breakpoints))[1:]
    u = f.lo
    for v, i, j in cells:  # pieces i of f and j of g hold on [u, v]
        assert f.breakpoints[i] <= u < v <= f.breakpoints[i + 1]
        assert g.breakpoints[j] <= u < v <= g.breakpoints[j + 1]
        u = v


def test_merged_grid_on_small_pafs():
    rng = random.Random(1601)
    for _ in range(300):
        check_merge(random_paf(rng, max_cuts=rng.randint(0, 9)), random_paf(rng))
    f = random_paf(rng, max_cuts=9)
    check_merge(f, f)
    check_merge(f, PAF.constant(1))
    check_merge(PAF.constant(1), f)


def test_merged_grid_with_shared_breakpoints_and_100_bit_denominators():
    rng = random.Random(1602)
    for n in (2, 3, 17, 128):
        f = wide_paf(rng, n)
        check_merge(f, wide_paf(rng, n))
        for keep in (0.0, 0.3, 1.0):
            g = coarsened(rng, f, keep)
            check_merge(f, g)
            check_merge(g, f)
    # equal values with different stored numerators are impossible for
    # reduced Fractions, so shared points must come out once
    f = wide_paf(rng, 40, lo=F(-3, 7), hi=F(5, 2))
    g = coarsened(rng, f, 0.5)
    assert len(list(f._merged_cells(g))) == len(f.pieces)


# -- interpolation and the one-piece constructors ------------------------------------


def random_samples(rng, n, bits=8):
    ts = sorted({F(rng.getrandbits(bits), rng.randint(1, 1 << bits)) for _ in range(n)})
    return [(t, F(rng.randint(-50, 50), rng.randint(1, 7))) for t in ts]


def collinear_samples(rng):
    """Samples of a function with few pieces, taken at many points, so that
    runs of collinear samples must merge into one piece."""
    f = random_paf(rng, max_cuts=3)
    ts = sorted(set(f.breakpoints) | {F(rng.randint(0, 60), 60) for _ in range(8)})
    return [(t, f.eval(t)) for t in ts], f


def test_from_samples_equals_the_checked_constructor():
    rng = random.Random(1603)
    for _ in range(300):
        samples = random_samples(rng, rng.randint(2, 12), bits=rng.choice([3, 8, 100]))
        if len(samples) >= 2:
            assert PAF.from_samples(samples) == checked_interpolation(samples)
    for _ in range(100):
        samples, f = collinear_samples(rng)
        assert PAF.from_samples(samples) == checked_interpolation(samples) == f
    ints = [(0, 1), (1, 3), (2, 5), (5, -4)]  # ints in, Fractions out
    f = PAF.from_samples(ints)
    assert f == checked_interpolation(ints)
    assert all(type(t) is F for t in f.breakpoints)
    assert all(type(a) is F and type(b) is F for a, b in f.pieces)


@pytest.mark.parametrize("samples, message", [
    ([(0, 1)], "need at least two sample points"),
    ([], "need at least two sample points"),
    ([(0, 1), (0, 2)], "sample points must be strictly increasing"),
    ([(0, 1), (F(1, 2), 2), (F(1, 3), 0)], "sample points must be strictly increasing"),
])
def test_from_samples_rejects_what_it_rejected(samples, message):
    with pytest.raises(PreconditionError, match=message):
        PAF.from_samples(samples)


def test_one_piece_constructors_equal_the_checked_constructor():
    for lo, hi in ((0, 1), (F(-7, 3), F(1, 9)), (-2, 5)):
        for a, b in ((0, 0), (F(3, 4), F(-1, 2)), (-5, 7)):
            assert PAF.affine(a, b, lo, hi) == PAF((lo, hi), ((a, b),))
            assert PAF.constant(b, lo, hi) == PAF((lo, hi), ((0, b),))
    assert PAF.identity(F(1, 2), 3) == PAF((F(1, 2), 3), ((1, 0),))
    for lo, hi in ((1, 1), (2, 1)):
        for make in (lambda: PAF.constant(1, lo, hi), lambda: PAF.affine(1, 1, lo, hi),
                     lambda: PAF((lo, hi), ((0, 1),))):
            with pytest.raises(PreconditionError, match="strictly increasing"):
                make()


def test_the_checked_constructor_still_checks_continuity():
    with pytest.raises(PreconditionError, match="discontinuity at breakpoint 1/2"):
        PAF((0, F(1, 2), 1), ((0, 0), (0, 1)))


# -- restriction ---------------------------------------------------------------------


def test_restrict_equals_the_pullback_by_the_identity():
    rng = random.Random(1604)
    for _ in range(200):
        f = random_paf(rng, max_cuts=rng.randint(0, 9))
        grid = sorted(set(f.breakpoints) | {F(rng.randint(0, 24), 24) for _ in range(4)})
        a, b = sorted(rng.sample(grid, 2))
        assert f.restrict(a, b) == f.compose_affine(1, 0, a, b)
    f = wide_paf(rng, 64)
    a, b = f.breakpoints[5], f.breakpoints[40]
    assert f.restrict(a, b) == f.compose_affine(1, 0, a, b)
    assert f.restrict(f.lo, f.hi) == f


# -- bump and cutoff ----------------------------------------------------------------

EDGE_SETS = [
    ClosedSet.point(F(1, 2)),
    ClosedSet.point(0),
    ClosedSet.point(1),
    ClosedSet.of((0, 1)),
    ClosedSet.of((0, F(1, 4)), (F(3, 4), 1)),  # intervals at lo and hi
    ClosedSet.of((F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))),  # touching: one interval
    ClosedSet.of((F(1, 8), F(1, 8)), (F(3, 8), F(3, 8)), (F(5, 8), F(7, 8))),
    ClosedSet.of((F(-3), F(-2))),  # left of the domain
    ClosedSet.of((F(5, 4), 2)),  # right of the domain
    ClosedSet.of((F(-1), F(1, 4))),  # overhanging lo
    ClosedSet.of((F(3, 4), F(9, 4))),  # overhanging hi
    ClosedSet.of((F(-2), F(-1)), (F(1, 3), F(1, 2)), (3, 4)),  # around the domain
]


def test_cutoff_equals_the_envelope_walks_on_the_edge_cases():
    rng = random.Random(1606)
    fs = [PAF.constant(0), PAF.constant(5), PAF.identity(), random_paf(rng, max_cuts=9),
          random_paf(rng, value_lim=1)]
    # slope 0; a bump that levels off inside every gap; one whose ramps
    # meet exactly at the midpoint of a gap of 1/4 (reach 1/8); one that
    # never levels off
    for k in EDGE_SETS + [ClosedSet.empty()]:
        for f in fs:
            for slope in (None, 0, F(1, 2), 8, 64):
                assert cg.cutoff(f, k, slope) == envelope_cutoff(f, k, slope), (f, k, slope)


def test_cutoff_equals_the_envelope_walks_on_random_inputs():
    rng = random.Random(1607)
    for _ in range(300):
        lo = F(rng.randint(-3, 0), rng.randint(1, 3))
        hi = lo + F(rng.randint(1, 4), rng.randint(1, 3))
        f = random_paf(rng, lo, hi, max_cuts=rng.randint(0, 9))
        k = random_closed_set(rng, lo=lo - rng.randint(0, 1), hi=hi + rng.randint(0, 1),
                              max_parts=4)
        slope = rng.choice([None, None, 0, F(rng.randint(1, 40), rng.randint(1, 5))])
        assert cg.cutoff(f, k, slope) == envelope_cutoff(f, k, slope), (f, k, slope)


def test_cutoff_on_a_large_paf():
    rng = random.Random(1608)
    f = wide_paf(rng, 128, bits=30)
    k = ClosedSet.of((F(1, 10), F(1, 5)), (F(1, 2), F(1, 2)), (F(3, 5), F(9, 10)))
    for slope in (None, 3, 1000):
        assert cg.cutoff(f, k, slope) == envelope_cutoff(f, k, slope)


# -- quotient norm and the relation --------------------------------------------------


def test_quotient_norm_and_related_equal_the_full_difference():
    rng = random.Random(1609)
    for n in [None] * 300 + [16, 128, 512]:
        if n is None:
            f, g = random_paf(rng), random_paf(rng)
            k = random_closed_set(rng, max_parts=4)
        else:
            f, g = wide_paf(rng, n, bits=20), wide_paf(rng, n, bits=20)
            k = random_closed_set(rng, max_parts=4)
        if rng.random() < 0.5:  # a congruent pair, so that both answers occur
            g = f + cg.cutoff(g, k)
        assert cg.quotient_norm(f, k) == fraction_quotient_norm(f, k)
        assert cg.quotient_norm(f, k, g) == fraction_quotient_norm(f - g, k)
        r = RestrictionCongruence(k)
        assert cg.related(r, f, g) == (fraction_quotient_norm(f - g, k) == 0)


def closed_sets_on(rng, f):
    """Closed sets meeting f's domain in every way a window can: random
    ones, points (at breakpoints, between them and at both ends), and
    intervals with ends on breakpoints or at the domain ends."""
    ts, lo, hi = f.breakpoints, f.lo, f.hi
    inner = [(ts[i] + ts[i + 1]) / 2 for i in rng.sample(range(len(ts) - 1), min(3, len(ts) - 1))]
    on = sorted(rng.sample(ts, min(4, len(ts))))
    yield random_closed_set(rng, lo, hi, max_parts=4)
    yield ClosedSet.of(*((t, t) for t in [lo, hi, *on[:2], *inner]))
    yield ClosedSet.point(lo)
    yield ClosedSet.point(hi)
    yield ClosedSet.of((lo, hi))
    yield ClosedSet.of((lo, on[1]), (on[-1], hi))
    yield ClosedSet.of((on[0], on[-1]))
    yield ClosedSet.of((lo, inner[0]), (on[-1], on[-1]))
    yield ClosedSet.of(*((min(u, v), max(u, v)) for u, v in zip(inner, on)))


def test_quotient_norm_equals_the_restriction_oracle():
    rng = random.Random(2003)
    pafs = [(random_paf(rng, max_cuts=rng.randint(0, 9)), random_paf(rng)) for _ in range(150)]
    pafs += [(wide_paf(rng, n, bits=20), wide_paf(rng, n, bits=20))
             for n in (2, 3, 16, 16, 128, 512)]
    lo, hi = F(-3, 7), F(5, 2)
    pafs += [(wide_paf(rng, 64, lo=lo, hi=hi), wide_paf(rng, 9, lo=lo, hi=hi))]
    calls = 0
    for f, g in pafs:
        for k in closed_sets_on(rng, f):
            assert cg.quotient_norm(f, k) == restrict_quotient_norm(f, k)
            assert cg.quotient_norm(f, k, g) == restrict_quotient_norm(f, k, g)
            assert cg.quotient_norm(f, k, f) == 0
            calls += 3
    assert calls > 4000


def test_related_keeps_its_errors():
    r = RestrictionCongruence(ClosedSet.of((F(1, 2), 2)))
    with pytest.raises(PreconditionError, match="restriction set leaves"):
        cg.related(r, PAF.identity(), PAF.constant(0))
    r = RestrictionCongruence(ClosedSet.point(F(1, 2)))
    with pytest.raises(PreconditionError, match="domain mismatch"):
        cg.related(r, PAF.identity(), PAF.constant(0, 0, 2))
    with pytest.raises(PreconditionError, match="nonempty restriction set"):
        cg.quotient_norm(PAF.identity(), ClosedSet.empty(), PAF.identity())


# -- the integer breakpoint scan -----------------------------------------------------


def test_min_max_and_lipschitz_equal_the_values_at_breakpoints():
    rng = random.Random(1610)
    pafs = [random_paf(rng, max_cuts=rng.randint(0, 9)) for _ in range(200)]
    pafs += [wide_paf(rng, 64), -wide_paf(rng, 64), PAF.constant(0), PAF.constant(-3)]
    for f in pafs:
        values = [f.eval(t) for t in f.breakpoints]
        assert (f.min_value(), f.max_value()) == (min(values), max(values))
        assert f.lipschitz() == max(abs(a) for a, _ in f.pieces)

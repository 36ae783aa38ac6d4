"""The build kernel (PAF oplus, tropical_min, +, scale, clamp and the
Minkowski sum) against brute-force references.

The PAF references never call the operation under test: they evaluate the
inputs pointwise on the merged breakpoint grid, refined by every point
where the difference crosses zero or where the function crosses a clamp
level (found by linear interpolation on each cell).  The result is affine
between consecutive refined points, so an output that is in canonical
form and agrees with the reference at every refined point and at every
one of its own breakpoints is the right function.  The Minkowski
reference is the hull of all pairwise vertex sums.
"""

import math
import random
from fractions import Fraction as F

from char1.convex import (
    FracBody,
    Polygon,
    frac_equal,
    frac_oplus,
    minkowski,
    random_polygon,
)
from char1.paf import PAF, random_paf

HAT = PAF.from_samples([(0, F(1, 2)), (F(1, 2), 0), (1, F(1, 2))])  # |t - 1/2|


# -- references ----------------------------------------------------------------------


def crossings(ts, value, level):
    """Points strictly inside a cell of the grid ts where value(t) crosses level."""
    out = []
    for u, v in zip(ts, ts[1:]):
        du, dv = value(u) - level, value(v) - level
        if du * dv < 0:
            out.append(u + (v - u) * du / (du - dv))
    return out


def merged_grid(*fs):
    return sorted(set().union(*(f.breakpoints for f in fs)))


def assert_canonical(h, lo, hi):
    bps, pcs = h.breakpoints, h.pieces
    assert all(type(t) is F for t in bps)
    assert all(type(a) is F and type(b) is F for a, b in pcs)
    assert (bps[0], bps[-1]) == (lo, hi)
    assert len(pcs) == len(bps) - 1
    assert all(u < v for u, v in zip(bps, bps[1:]))
    assert all(p != q for p, q in zip(pcs, pcs[1:]))
    for t, (a0, b0), (a1, b1) in zip(bps[1:], pcs, pcs[1:]):
        assert a0 * t + b0 == a1 * t + b1


def assert_matches(h, value, refined, lo, hi):
    """h is canonical and equals value at every refined point and breakpoint."""
    assert_canonical(h, lo, hi)
    for t in sorted(set(refined) | set(h.breakpoints)):
        assert h.eval(t) == value(t), t


def check_oplus(f, g):
    ts = merged_grid(f, g)
    refined = ts + crossings(ts, lambda t: f.eval(t) - g.eval(t), 0)
    out = f.oplus(g)
    assert_matches(out, lambda t: max(f.eval(t), g.eval(t)), refined, f.lo, f.hi)
    return out


def check_tropical_min(f, g):
    ts = merged_grid(f, g)
    refined = ts + crossings(ts, lambda t: f.eval(t) - g.eval(t), 0)
    out = f.tropical_min(g)
    assert_matches(out, lambda t: min(f.eval(t), g.eval(t)), refined, f.lo, f.hi)
    return out


def check_add(f, g):
    out = f + g
    assert_matches(out, lambda t: f.eval(t) + g.eval(t), merged_grid(f, g), f.lo, f.hi)
    return out


def check_scale(f, q):
    out = f.scale(q)
    assert_matches(out, lambda t: q * f.eval(t), list(f.breakpoints), f.lo, f.hi)
    return out


def check_clamp(f, c):
    ts = list(f.breakpoints)
    refined = ts + crossings(ts, f.eval, c) + crossings(ts, f.eval, -c)
    out = f.clamp(c)
    assert_matches(out, lambda t: max(min(f.eval(t), c), -c), refined, f.lo, f.hi)
    return out


def ref_minkowski(a, b):
    return Polygon.hull([(x1 + x2, y1 + y2) for x1, y1 in a.vertices for x2, y2 in b.vertices])


def check_minkowski(a, b):
    out = minkowski(a, b)
    assert out == ref_minkowski(a, b)
    assert all(type(x) is F and type(y) is F for x, y in out.vertices)
    assert out._iverts == tuple((x * out._den, y * out._den) for x, y in out.vertices)
    assert math.gcd(out._den, *(c for v in out._iverts for c in v)) == 1
    return out


def grid_paf(rng, n, grid=10**6):
    """About n breakpoints on a fine grid, values in [-1, 1] at 1e-3 steps."""
    ts = [F(0)] + [F(c, grid) for c in sorted(rng.sample(range(1, grid), n - 2))] + [F(1)]
    return PAF.from_samples([(t, F(rng.randint(-1000, 1000), 1000)) for t in ts])


def ring_polygon(rng, n):
    """About n lattice points near a circle about the origin, over denominator 7."""
    pts = []
    for k in range(n):
        theta = 2 * math.pi * (k + rng.random() * 0.8) / n
        pts.append((F(round(10**4 * math.cos(theta)), 7), F(round(10**4 * math.sin(theta)), 7)))
    return Polygon(tuple(pts))


# -- PAF oplus and + ---------------------------------------------------------------------


def test_oplus_touching_without_crossing():
    zero = PAF.constant(0)
    assert check_oplus(HAT, zero) == HAT  # HAT touches 0 at its kink
    assert check_oplus(-HAT, zero) == zero
    # equal on a whole cell, apart elsewhere
    f = PAF.identity().oplus(PAF.constant(F(1, 2)))
    out = check_oplus(f, PAF.identity())
    assert out == f
    assert check_oplus(PAF.identity(), f) == f


def test_oplus_crossing_exactly_at_a_breakpoint():
    g = PAF.from_samples([(0, 1), (F(1, 2), F(1, 2)), (1, F(1, 4))])
    out = check_oplus(PAF.identity(), g)
    assert out.breakpoints == (F(0), F(1, 2), F(1))
    assert out.pieces == (g.pieces[0], (F(1), F(0)))


def test_identical_and_opposite_inputs():
    rng = random.Random(11)
    for _ in range(40):
        f = random_paf(rng, max_cuts=6)
        assert check_oplus(f, f) == f
        assert check_oplus(f, -f) == f.abs()
        assert check_add(f, -f) == PAF.constant(0)
        assert check_add(f, f) == f.scale(2)


def test_oplus_and_add_random():
    rng = random.Random(12)
    for _ in range(150):
        f = random_paf(rng, max_cuts=rng.randint(0, 8), value_lim=rng.choice([1, 2, 8]))
        g = random_paf(rng, max_cuts=rng.randint(0, 8), value_lim=rng.choice([1, 2, 8]))
        check_oplus(f, g)
        check_add(f, g)


def test_oplus_and_add_at_512_breakpoints():
    rng = random.Random(13)
    f, g = grid_paf(rng, 512), grid_paf(rng, 512)
    assert len(check_oplus(f, g).breakpoints) > 512
    check_add(f, g)


def test_fold_chain_past_400_bits():
    rng = random.Random(14)
    f = grid_paf(rng, 16)
    for _ in range(40):
        g, h = grid_paf(rng, 4), grid_paf(rng, 4)
        q = F(rng.randint(900, 1100) | 1, rng.randint(2**9, 2**10) | 1)
        f = check_scale(check_add(check_oplus(f, g), h), q)
    assert max(max(abs(a.numerator).bit_length(), b.denominator.bit_length())
               for a, b in f.pieces) > 400
    for q in (-q, F(-1), F(0), F(-3, 2**400 + 1)):
        check_scale(f, q)


# -- PAF tropical_min, the same walk with the sign flipped -------------------------------


def test_min_touching_and_crossing_at_a_breakpoint():
    zero = PAF.constant(0)
    assert check_tropical_min(HAT, zero) == zero  # HAT touches 0 at its kink
    assert check_tropical_min(-HAT, zero) == -HAT
    f = PAF.identity().oplus(PAF.constant(F(1, 2)))  # equal on a whole cell
    assert check_tropical_min(f, PAF.identity()) == PAF.identity()
    assert check_tropical_min(PAF.identity(), f) == PAF.identity()
    g = PAF.from_samples([(0, 1), (F(1, 2), F(1, 2)), (1, F(1, 4))])
    out = check_tropical_min(PAF.identity(), g)
    assert out.breakpoints == (F(0), F(1, 2), F(1))
    assert out.pieces == ((F(1), F(0)), g.pieces[1])


def test_min_identical_and_opposite_inputs():
    rng = random.Random(11)
    for _ in range(40):
        f = random_paf(rng, max_cuts=6)
        assert check_tropical_min(f, f) == f
        assert check_tropical_min(f, -f) == -f.abs()


def test_min_random_and_at_512_breakpoints():
    rng = random.Random(12)
    for _ in range(150):
        f = random_paf(rng, max_cuts=rng.randint(0, 8), value_lim=rng.choice([1, 2, 8]))
        g = random_paf(rng, max_cuts=rng.randint(0, 8), value_lim=rng.choice([1, 2, 8]))
        check_tropical_min(f, g)
    rng = random.Random(13)
    f, g = grid_paf(rng, 512), grid_paf(rng, 512)
    assert len(check_tropical_min(f, g).breakpoints) > 512


# -- PAF scale ---------------------------------------------------------------------------


def test_scale_by_zero_negative_and_positive_rationals():
    assert check_scale(HAT, 0) == PAF.constant(0)
    assert check_scale(HAT, -1) == -HAT
    assert check_scale(HAT, F(-2, 3)).pieces == ((F(2, 3), F(-1, 3)), (F(-2, 3), F(1, 3)))
    rng = random.Random(18)
    for _ in range(150):
        f = random_paf(rng, max_cuts=rng.randint(0, 8), value_lim=rng.choice([1, 2, 8]))
        check_scale(f, F(rng.randint(-12, 12), rng.randint(1, 12)))


def test_scale_at_512_breakpoints():
    rng = random.Random(19)
    f = grid_paf(rng, 512)
    for q in (F(0), F(-1), F(7, 3), F(-999_999, 999_983), F(10**6, 7)):
        check_scale(f, q)


# -- the stored integers -----------------------------------------------------------------


def assert_reduced(h):
    """Every stored breakpoint pair (x, y) and piece triple (n, m, d) is
    reduced with a positive denominator, and decoding the views again gives
    the same integers."""
    assert all(y > 0 and math.gcd(x, y) == 1 for x, y in h._bps)
    assert all(d > 0 and math.gcd(n, m, d) == 1 for n, m, d in h._pcs)
    assert all(type(c) is int for item in h._bps + h._pcs for c in item)
    assert PAF(h.breakpoints, h.pieces) == h


def test_every_operation_stores_reduced_integers():
    rng = random.Random(21)
    for _ in range(150):
        f = random_paf(rng, max_cuts=rng.randint(0, 8), value_lim=rng.choice([1, 2, 8]))
        g = random_paf(rng, max_cuts=rng.randint(0, 8), value_lim=rng.choice([1, 2, 8]))
        q = F(rng.randint(-12, 12), rng.randint(1, 12))
        samples = [(t, F(rng.randint(-30, 30), rng.randint(1, 30))) for t in f.breakpoints]
        for h in (f.oplus(g), f.tropical_min(g), f + g, f.scale(q), f.clamp(abs(q)), -f,
                  PAF.from_samples(samples), f - g):
            assert_reduced(h)
    f = grid_paf(rng, 16)
    for _ in range(40):
        f = (f.oplus(grid_paf(rng, 4)) + grid_paf(rng, 4)).scale(F(-1001, 2**9 + 1))
        assert_reduced(f)


# -- PAF clamp ---------------------------------------------------------------------------


def test_clamp_at_zero_is_zero():
    rng = random.Random(15)
    for _ in range(20):
        f = random_paf(rng, max_cuts=6)
        assert check_clamp(f, F(0)) == PAF.constant(0)
    assert check_clamp(HAT, F(0)) == PAF.constant(0)  # touches 0 at its kink


def test_clamp_above_the_sup_norm_is_identity():
    rng = random.Random(16)
    for _ in range(20):
        f = random_paf(rng, max_cuts=6)
        assert check_clamp(f, f.r_norm()) == f
        assert check_clamp(f, f.r_norm() + F(1, 3)) == f


def test_clamp_touching_a_level_at_a_breakpoint():
    assert check_clamp(HAT, F(1, 2)) == HAT  # HAT reaches 1/2 at both ends
    assert check_clamp(-HAT, F(1, 2)) == -HAT
    out = check_clamp(HAT, F(1, 4))
    assert out.breakpoints == (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    # a kink sitting exactly on the level
    f = PAF.from_samples([(0, 0), (F(1, 2), 1), (1, 0)])
    assert check_clamp(f, F(1)) == f
    assert check_clamp(f, F(1, 2)).breakpoints == (F(0), F(1, 4), F(3, 4), F(1))


def test_clamp_one_cell_crossing_both_levels():
    out = check_clamp(PAF.affine(4, -2), F(1))
    assert out.breakpoints == (F(0), F(1, 4), F(3, 4), F(1))
    assert out.pieces == ((F(0), F(-1)), (F(4), F(-2)), (F(0), F(1)))
    out = check_clamp(PAF.affine(-4, 2), F(1))
    assert out.pieces == ((F(0), F(1)), (F(-4), F(2)), (F(0), F(-1)))


def test_clamp_random_and_at_512_breakpoints():
    rng = random.Random(17)
    for _ in range(150):
        f = random_paf(rng, max_cuts=rng.randint(0, 8), value_lim=rng.choice([1, 2, 8]))
        check_clamp(f, F(rng.randint(0, 8), rng.choice([1, 2, 3, 4])))
    f = grid_paf(rng, 512)
    for c in (F(0), F(1, 1000), F(1, 2), F(999, 1000), F(1)):
        check_clamp(f, c)


# -- Minkowski sum ---------------------------------------------------------------------


def test_minkowski_points_and_segments():
    p, q = Polygon(((F(1, 2), F(-1)),)), Polygon(((3, F(2, 3)),))
    assert check_minkowski(p, q).vertices == ((F(7, 2), F(-1, 3)),)
    seg_x, seg_y = Polygon(((0, 0), (2, 0))), Polygon(((0, 0), (0, F(1, 3))))
    assert check_minkowski(seg_x, seg_y).dim == 2
    assert check_minkowski(seg_x, p).dim == 1
    assert check_minkowski(seg_y, seg_y).vertices == ((0, 0), (0, F(2, 3)))
    diag, anti = Polygon(((0, 0), (1, 1))), Polygon(((0, 0), (-1, -1)))
    assert check_minkowski(diag, anti).vertices == ((-1, -1), (1, 1))  # collinear
    tri = Polygon(((0, 0), (2, 0), (0, 1)))
    assert check_minkowski(tri, p) == Polygon(tuple((x + F(1, 2), y - 1) for x, y in tri.vertices))
    check_minkowski(tri, seg_x)  # a segment parallel to an edge
    check_minkowski(seg_y, tri)


def test_minkowski_parallel_edges_in_both_bodies():
    sq = Polygon.square()
    assert check_minkowski(sq, sq) == Polygon.square(2)
    rect = Polygon(((0, 0), (3, 0), (3, F(1, 2)), (0, F(1, 2))))
    check_minkowski(sq, rect)
    hexagon = Polygon(((1, 0), (2, 1), (2, 2), (1, 2), (0, 1), (0, 0)))
    check_minkowski(hexagon, sq)
    check_minkowski(hexagon, hexagon.rotate90())


def test_minkowski_random_small_bodies():
    rng = random.Random(18)
    for _ in range(300):
        a = random_polygon(rng, max_extra=rng.randint(0, 6))
        b = random_polygon(rng, max_extra=rng.randint(0, 6)).dilate(F(rng.randint(1, 5), 3))
        check_minkowski(a, b)
        check_minkowski(b, a)


def test_minkowski_64_vertex_bodies():
    rng = random.Random(19)
    for n in (8, 32, 64):
        a, b = ring_polygon(rng, n), ring_polygon(rng, n)
        assert len(check_minkowski(a, b).vertices) > n
        check_minkowski(a, a)


def test_fraction_operations_through_minkowski():
    rng = random.Random(20)
    for _ in range(60):
        x = FracBody(random_polygon(rng, 4), random_polygon(rng, 4))
        y = FracBody(random_polygon(rng, 4), random_polygon(rng, 4))
        out = frac_oplus(x, y)
        union = Polygon.hull(ref_minkowski(x.pos, y.neg).vertices
                             + ref_minkowski(y.pos, x.neg).vertices)
        assert (out.pos, out.neg) == (union, ref_minkowski(x.neg, y.neg))
        total = x + y
        assert (total.pos, total.neg) == (ref_minkowski(x.pos, y.pos),
                                          ref_minkowski(x.neg, y.neg))
        assert frac_equal(x, y) == (ref_minkowski(x.pos, y.neg) == ref_minkowski(y.pos, x.neg))
        assert frac_equal(x, x)


import bisect
import math
import operator
import random
from fractions import Fraction as F

import pytest

from char1.errors import PreconditionError
from char1.laws import VALUATION_LAWS, _k_defined, random_convex_paf
from char1.paf import PAF, random_paf
from char1.valuation import (
    SQRT2,
    CirclePAF,
    Quad,
    circle_section_valid,
    convexity_criterion,
    germ,
    glue,
    is_local_unit,
    kink,
    restrict_to_arc,
    smooth_neighborhood,
    valuation_at,
)

HAT = PAF.affine(1, F(-1, 2)).oplus(PAF.affine(-1, F(1, 2)))
local_morphism = VALUATION_LAWS["affine pullbacks are local morphisms"]
kinks_telescope = VALUATION_LAWS["kinks telescope"]


def rational_between(u: Quad, v: Quad) -> F:
    """Some rational strictly between u < v, found exactly."""
    assert u < v
    n = 1
    while True:
        cand = F((u * n).floor() + 1, n)
        if u < cand < v:
            return cand
        n *= 2


# -- Q(sqrt 2) -------------------------------------------------------------------


def test_quad_arithmetic():
    x = Quad(F(1), F(1))  # 1 + sqrt2
    y = Quad(F(-1), F(1))
    assert x * y == Quad(F(1))  # (1+s)(−1+s) = s^2 − 1 = 1
    assert x + y == 2 * SQRT2
    assert (x / y) * y == x
    assert SQRT2 * SQRT2 == Quad(F(2))


def test_quad_ordering():
    assert Quad(F(0)) < SQRT2 < Quad(F(3, 2))
    assert Quad(F(7, 5)) < SQRT2 < Quad(F(3, 2))  # 7/5 < sqrt2 < 3/2
    assert Quad(F(-3, 2)) < -SQRT2 < Quad(F(-7, 5))
    assert sorted([SQRT2, Quad(F(1)), Quad(F(17, 12))]) == \
        [Quad(F(1)), SQRT2, Quad(F(17, 12))]


def test_quad_floor_and_between():
    assert SQRT2.floor() == 1
    assert (-SQRT2).floor() == -2
    assert (SQRT2 * 100).floor() == 141
    q = rational_between(SQRT2 - 1, Quad(F(1, 2)))
    assert SQRT2 - 1 < Quad(q) < Quad(F(1, 2))


def test_quad_floor_is_exact_past_float_range():
    big = 10**400
    assert Quad(F(big, 3)).floor() == big // 3
    assert Quad(F(0), F(big, 7)).floor() == math.isqrt(2 * big**2) // 7
    assert Quad(F(0), -F(big, 7)).floor() == -(math.isqrt(2 * big**2) // 7) - 1
    assert Quad(F(-big, 3), F(1, 10**300)).floor() == -(big // 3) - 1


def test_circle_eval_far_from_the_origin():
    s = CirclePAF.from_kinks(F(0), F(-1, 2), [(F(1, 4), F(0)), (F(3, 4), F(1))])
    big = F(10**400, 3)  # 1/3 past an integer
    assert s.eval(big) == s.eval(F(1, 3))
    assert s.eval(Quad(big, F(0))) == s.eval(F(1, 3))


def test_quad_rationality():
    assert Quad(F(3, 4)).is_rational and not SQRT2.is_rational


def test_quad_prints_its_wire_form():
    assert str(Quad(F(3, 4))) == "3/4" and str(Quad(-2)) == "-2"
    assert str(SQRT2 - 1) == '{"a": "-1", "b": "1"}'
    assert repr(SQRT2 - 1) == "Quad(-1, 1)"  # the repr is unchanged
    assert str(SQRT2 / 2) == '{"a": "0", "b": "1/2"}'
    arc = restrict_to_arc(CirclePAF.constant(F(1)), F(1, 2), F(11, 10))
    with pytest.raises(PreconditionError, match="^1/5 is outside the arc$"):
        arc.piece_at(F(1, 5))
    with pytest.raises(PreconditionError, match=r'^\{"a": "-1", "b": "1"\} is outside the arc$'):
        arc.piece_at(SQRT2 - 1)
    s0 = SQRT2 - 1
    with pytest.raises(PreconditionError, match=r'^discontinuity at \{"a": "-1", "b": "1"\}$'):
        CirclePAF((Quad(0), s0), ((Quad(1), Quad(0)), (Quad(-1), Quad(1))))


# A reference for Q(sqrt 2): pairs (a, b) of Fractions meaning a + b*sqrt 2,
# with the arithmetic written out on the pair.


def _ref_sign(a, b):
    if a >= 0 and b >= 0:
        return 0 if a == b == 0 else 1
    if a <= 0 and b <= 0:
        return -1
    return (1 if a * a > 2 * b * b else -1) * (1 if a > 0 else -1)


def _ref_floor(a, b):
    root = math.isqrt(2 * b.numerator ** 2) // b.denominator  # floor(|b| sqrt 2)
    m = math.floor(a) + (root if b >= 0 else -root - 1)  # off by at most one
    while _ref_sign(a - m, b) < 0:
        m -= 1
    while _ref_sign(a - m - 1, b) >= 0:
        m += 1
    return m


def _ref_div(x, y):
    n = y[0] ** 2 - 2 * y[1] ** 2
    inv = (y[0] / n, -y[1] / n)
    return (x[0] * inv[0] + 2 * x[1] * inv[1], x[0] * inv[1] + x[1] * inv[0])


def _pell(n):
    """(P, Q) with (1 - sqrt 2)^n = P - Q*sqrt 2: within 0.42^n of zero,
    above it for even n and below it for odd n."""
    p, q = 1, 0
    for _ in range(n):
        p, q = p + 2 * q, p + q
    return p, q


def _random_ref(rng):
    kind = rng.randrange(4)
    if kind == 0:  # small
        return (F(rng.randint(-9, 9), rng.randint(1, 6)), F(rng.randint(-9, 9), rng.randint(1, 6)))
    if kind == 1:  # 300-bit coefficients
        return tuple(F(rng.getrandbits(300) - 2**299, rng.getrandbits(300) + 1) for _ in "ab")
    if kind == 2:  # rational
        return (F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)), F(0))
    # within 1e-300 of an integer: k +- 1e-300, or k + (P - Q sqrt 2)
    k = rng.randint(-5, 5)
    if rng.random() < 0.5:
        return (k + rng.choice((1, -1)) * F(1, 10**300), F(0))
    p, q = _pell(rng.choice((790, 791)))
    return (F(k + p), F(-q))


def _check_canonical(x):
    assert type(x.p) is int and type(x.q) is int and type(x.d) is int
    assert x.d > 0 and math.gcd(x.p, x.q, x.d) == 1
    assert (x.a, x.b) == (F(x.p, x.d), F(x.q, x.d))


def test_quad_matches_a_fraction_pair_reference():
    rng = random.Random(2016)
    ops = [operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne]
    for _ in range(400):
        rx, ry = _random_ref(rng), _random_ref(rng)
        x, y = Quad(*rx), Quad(*ry)
        for z, rz in [(x, rx), (y, ry), (x + y, (rx[0] + ry[0], rx[1] + ry[1])),
                      (x - y, (rx[0] - ry[0], rx[1] - ry[1])),
                      (x * y, (rx[0] * ry[0] + 2 * rx[1] * ry[1], rx[0] * ry[1] + rx[1] * ry[0])),
                      (x / y, _ref_div(rx, ry)), (-x, (-rx[0], -rx[1]))]:
            _check_canonical(z)
            assert (z.a, z.b) == rz
            assert (z > 0) - (z < 0) == _ref_sign(*rz)
            assert z.floor() == _ref_floor(*rz)
            assert z.is_rational == (rz[1] == 0)
        # equal values have equal triples, however they were reached
        for same in (Quad(x.a, x.b), (x * y) / y, x + y - y, -(-x), Quad(str(x.a), str(x.b))):
            assert (same.p, same.q, same.d) == (x.p, x.q, x.d) and same == x
            assert hash(same) == hash(x)
        if x.is_rational:
            assert hash(x) == hash(x.a) and x == x.a
        r = rx[0] + rng.choice((0, ry[0]))
        for other, ro in [(y, ry), (r, (r, F(0))), (math.floor(r), (F(math.floor(r)), F(0)))]:
            s = _ref_sign(rx[0] - ro[0], rx[1] - ro[1])
            for op in ops:
                assert op(x, other) == op(s, 0)
                assert op(other, x) == op(0, s)
    for zero in (Quad(0), F(0), 0):
        with pytest.raises(ZeroDivisionError):
            SQRT2 / zero


# -- kinks and valuations --------------------------------------------------------


def test_kink_examples():
    assert kink(HAT, F(1, 2)) == 2
    assert kink(HAT, F(1, 4)) == 0
    assert kink(PAF.affine(3, -1), F(1, 2)) == 0
    with pytest.raises(PreconditionError):
        kink(HAT, F(0))


def test_kink_difference_quotient_oracle():
    h = F(1, 8)
    assert (HAT.eval(F(1, 2) - h) + HAT.eval(F(1, 2) + h)) / h == kink(HAT, F(1, 2))


def test_kink_is_the_slope_jump_on_random_pafs():
    # h is half the distance to the nearer neighbour, so each one-sided
    # difference quotient is exactly the slope of the cell it falls in
    rng = random.Random(89)
    for n in (3, 4, 16, 128):
        for _ in range(6):
            ts = [F(0)] + [F(c, 1000) for c in sorted(rng.sample(range(1, 1000), n - 2))] + [F(1)]
            f = PAF.from_samples([(t, F(rng.randint(-8, 8), rng.randint(1, 4))) for t in ts])
            bps = f.breakpoints
            for u, v in zip(bps, bps[1:]):
                assert kink(f, (u + v) / 2) == 0
            for u, x, v in zip(bps, bps[1:], bps[2:]):
                h = min(x - u, v - x) / 2
                assert kink(f, x) == (f(x + h) - 2 * f(x) + f(x - h)) / h


def test_valuation_at_examples():
    f = HAT - PAF.constant(HAT.eval(F(0)))
    assert valuation_at(F(0), f) == 0
    assert valuation_at(F(1, 2), HAT) == 2
    assert valuation_at(F(3, 7), PAF.constant(0)) == 0
    with pytest.raises(PreconditionError):
        valuation_at(F(1, 4), HAT)  # HAT(1/4) != 0


def test_extend_valuation_homogeneity_and_splits():
    assert valuation_at(F(1, 2), HAT) == 2
    assert valuation_at(F(1, 2), HAT.scale(3)) == 6
    rng = random.Random(3)
    for _ in range(40):
        f = random_paf(rng)
        x = F(rng.randint(1, 7), 8)
        f0 = f - PAF.constant(f.eval(x))
        from char1.paf import convex_split

        a, b = convex_split(f0)
        c = random_convex_paf(rng)
        assert kink(a + c, x) - kink(b + c, x) == valuation_at(x, f0)


def test_convexity_criterion_examples():
    assert convexity_criterion(HAT)
    assert not convexity_criterion(-HAT)
    assert convexity_criterion(PAF.affine(-2, 1))


def test_localization_member_examples():
    # a - b lies in the localization at x exactly when b is a local unit
    assert is_local_unit(PAF.affine(1, 0), F(1, 3))
    assert not is_local_unit(HAT, F(1, 2))
    assert is_local_unit(HAT, F(1, 4))
    assert is_local_unit(HAT, F(0))  # endpoint valuations vanish


def test_is_local_unit():
    assert is_local_unit(PAF.affine(1, 0), F(1, 2))
    assert not is_local_unit(HAT, F(1, 2))


def test_smooth_neighborhood():
    lo, hi = smooth_neighborhood(HAT, F(1, 4))
    assert (lo, hi) == (F(0), F(1, 2))
    with pytest.raises(PreconditionError):
        smooth_neighborhood(HAT, F(1, 2))
    f = HAT.oplus(PAF.constant(F(1, 4)))  # kinks at 1/4 and 3/4
    lo, hi = smooth_neighborhood(f, F(1, 2))
    assert (lo, hi) == (F(1, 4), F(3, 4))
    for x0 in (F(-1, 2), F(3, 2)):
        with pytest.raises(PreconditionError, match=f"{x0} outside domain"):
            smooth_neighborhood(HAT, x0)


def _smooth_neighborhood_by_scan(f, x0):
    # the nearest kinked breakpoints on either side, found by a full scan
    lo, hi = f.lo, f.hi
    for t in f.breakpoints[1:-1]:
        if kink(f, t) != 0:
            if t <= x0:
                lo = max(lo, t)
            if t >= x0:
                hi = min(hi, t)
    return lo, hi


def test_smooth_neighborhood_matches_a_kink_scan():
    rng = random.Random(97)
    for _ in range(150):
        f = random_paf(rng, max_cuts=6)
        bps = f.breakpoints
        points = [f.lo, f.hi] + [(u + v) / 2 for u, v in zip(bps, bps[1:])]
        points += [F(rng.randint(0, 60), 60) for _ in range(4)]
        for x0 in points:
            if f.lo < x0 < f.hi and kink(f, x0) != 0:
                with pytest.raises(PreconditionError, match="kinks at the point"):
                    smooth_neighborhood(f, x0)
            else:
                assert smooth_neighborhood(f, x0) == _smooth_neighborhood_by_scan(f, x0)


def test_local_morphism_examples():
    assert local_morphism(1, 0, F(1, 2), F(1, 2))
    assert local_morphism(F(1, 2), 0, F(1, 4), F(1, 2))
    assert not local_morphism(F(1, 2), 0, F(3, 8), F(1, 2))  # points mismatch
    with pytest.raises(PreconditionError):
        local_morphism(3, 0, F(3, 4), F(1, 4))  # image leaves the domain


def _old_local_morphism_check(alpha, beta, x_src, x_dst, elements, lo, hi):
    """The construction the check used to make: build f - f(x)*E per probe."""
    if alpha * x_dst + beta != x_src:
        return False
    for f in elements:
        pulled = f.compose_affine(alpha, beta, lo, hi)
        v_src = valuation_at(x_src, f - PAF.constant(f.eval(x_src), lo, hi))
        v_dst = valuation_at(x_dst, pulled - PAF.constant(pulled.eval(x_dst), lo, hi))
        if (v_src > 0) != (v_dst > 0):
            return False
    return True


def test_local_morphism_check_matches_shifted_construction():
    rng = random.Random(23)
    lo, hi = F(0), F(1)
    checked = 0
    while checked < 150:
        alpha = F(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 4))
        x_dst = F(rng.randint(0, 12), 12)
        x_src = F(rng.randint(0, 12), 12)
        beta = x_src - alpha * x_dst
        if not all(lo <= alpha * t + beta <= hi for t in (lo, hi)):
            continue  # the pullback would leave the domain
        hat = PAF.affine(1, -x_src).oplus(PAF.affine(-1, x_src))
        probes = [PAF.affine(1, 0), PAF.constant(1)] + ([hat] if lo < x_src < hi else [])
        assert local_morphism(alpha, beta, x_src, x_dst) == \
            _old_local_morphism_check(alpha, beta, x_src, x_dst, probes, lo, hi)
        assert local_morphism(alpha, beta, x_src + F(1, 7), x_dst) is False
        checked += 1


# -- circle sections -------------------------------------------------------------


def test_circle_constant_sections():
    s = CirclePAF.constant(F(5, 3))
    assert circle_section_valid(s) and s.is_constant()
    assert s.eval(F(9, 10)) == Quad(F(5, 3))
    assert s.kinks() == [(Quad(0), Quad(0))]


def test_circle_continuity_enforced():
    with pytest.raises(PreconditionError):
        CirclePAF((Quad(F(0)), Quad(F(1, 2))),
                  ((Quad(F(1)), Quad(F(0))), (Quad(F(1)), Quad(F(1)))))


def test_circle_single_arc_must_be_flat():
    with pytest.raises(PreconditionError):
        CirclePAF((Quad(F(0)),), ((Quad(F(1)), Quad(F(0))),))


def test_circle_pm_kink_pair_is_invalid():
    s = CirclePAF.from_kinks(F(0), F(-1, 2), [(F(0), F(0)), (F(1, 2), F(1))])
    assert not circle_section_valid(s)
    assert kinks_telescope(s)
    kinks = dict((bp.a, k) for bp, k in s.kinks())
    assert kinks[F(1, 2)] == Quad(F(1)) and kinks[F(0)] == Quad(F(-1))


def test_circle_eval_wraps():
    s = CirclePAF.from_kinks(F(0), F(-1, 2), [(F(1, 4), F(0)), (F(3, 4), F(1))])
    assert s.eval(F(1, 4)) == s.eval(F(5, 4))
    assert kinks_telescope(s)


def test_circle_restrict_and_glue_roundtrip():
    s = CirclePAF.from_kinks(F(0), F(-1), [(F(0), F(0)), (F(1, 3), F(1)), (F(2, 3), F(1))])
    assert kinks_telescope(s)
    left = restrict_to_arc(s, F(0), F(3, 5))
    right = restrict_to_arc(s, F(1, 2), F(11, 10))  # wraps past 1
    glued = glue([left, right])
    assert glued == s
    for t in (F(0), F(1, 4), F(1, 2), F(7, 10), F(99, 100)):
        assert glued.eval(t) == s.eval(t)
    touching = [restrict_to_arc(s, F(0), F(1, 2)), restrict_to_arc(s, F(1, 2), F(1))]
    assert glue(touching) == s
    assert glue([restrict_to_arc(s, F(0), F(1, 2)), restrict_to_arc(s, F(2, 5), F(9, 10)),
                 restrict_to_arc(s, F(4, 5), F(13, 10))]) == s


def _random_section(rng, irrational):
    """A continuous circle section through random values at random
    breakpoints; some breakpoints lie in Q(sqrt 2) when irrational."""
    def point():
        if irrational and rng.random() < 0.5:
            x = Quad(F(rng.randint(-3, 3), rng.randint(1, 4)),
                     F(rng.randint(1, 3), rng.randint(1, 3)))
            return x - x.floor()
        return Quad(F(rng.randint(0, 23), 24))
    bps = sorted(set(point() for _ in range(rng.randint(2, 5))))
    vals = [Quad(F(rng.randint(-4, 4), rng.randint(1, 3))) for _ in bps]
    ends = list(zip(bps, vals))[1:] + [(bps[0] + 1, vals[0])]
    pieces = []
    for (t, v), (t2, v2) in zip(zip(bps, vals), ends):
        a = (v2 - v) / (t2 - t)
        pieces.append((a, v - a * t))
    return CirclePAF(tuple(bps), tuple(pieces))


def _two_loop_canonical(bps, pcs):
    """The reference canonical form, as two delete loops: merge equal
    neighbours, then merge across the wrap (the last piece shifted by one
    period), and write a single piece left as the flat one at 0."""
    bps, pcs = list(bps), list(pcs)
    i = 1
    while i < len(pcs):
        if pcs[i] == pcs[i - 1]:
            del bps[i], pcs[i]
        else:
            i += 1
    while len(pcs) > 1 and pcs[0] == (pcs[-1][0], pcs[-1][0] + pcs[-1][1]):
        del bps[0], pcs[0]
    if len(pcs) == 1:
        assert pcs[0][0] == 0, "an affine circle function must be flat"
        bps, pcs = [Quad(0)], [(Quad(0), pcs[0][1])]
    return tuple(bps), tuple(pcs)


def _cut_section(rng):
    """Continuous circle data with runs of equal pieces: the cyclic
    interpolation through one to three knots (one at sqrt 2 - 1 now and
    then), cut at up to four more points where it does not bend.  A cut
    below the first knot carries the wrapping piece shifted by one period,
    so runs cross the wrap too."""
    knots = {Quad(F(rng.randint(0, 11), 12)) for _ in range(rng.randint(1, 3))}
    if rng.random() < 0.3:
        knots.add(SQRT2 - 1)
    knots = sorted(knots)
    vals = [Quad(F(rng.randint(-3, 3), rng.randint(1, 2))) for _ in knots]
    ends = list(zip(knots, vals))[1:] + [(knots[0] + 1, vals[0])]
    arcs = []
    for (t, v), (t2, v2) in zip(zip(knots, vals), ends):
        a = (v2 - v) / (t2 - t)
        arcs.append((a, v - a * t))
    cuts = sorted(set(knots) | {Quad(F(rng.randint(0, 23), 24)) for _ in range(rng.randint(0, 4))})
    pcs = []
    for c in cuts:
        i = bisect.bisect_right(knots, c) - 1
        a, b = arcs[i]
        pcs.append((a, b) if i >= 0 else (a, a + b))
    return tuple(cuts), tuple(pcs)


def test_circle_canonical_form_matches_the_two_loop_reference():
    rng = random.Random(2016)
    merged = across_wrap = irrational = 0
    for _ in range(1500):
        bps, pcs = _cut_section(rng)
        s = CirclePAF(bps, pcs)
        ref = _two_loop_canonical(bps, pcs)
        assert repr((s.breakpoints, s.pieces)) == repr(ref), (bps, pcs)
        merged += len(ref[0]) < len(bps)
        across_wrap += len(pcs) > 1 and pcs[0] == (pcs[-1][0], pcs[-1][0] + pcs[-1][1])
        irrational += SQRT2 - 1 in bps
    assert merged > 1000 and across_wrap > 500 and irrational > 300


def _value_by_scan(s, c):
    # canonical c: the arc starting at or before c, or the wrapped last arc
    bps = s.breakpoints
    for i in reversed(range(len(bps))):
        if bps[i] <= c:
            a, b = s.pieces[i]
            return a * c + b
    a, b = s.pieces[-1]
    return a * (c + 1) + b


def test_circle_piece_at_any_lift():
    rng = random.Random(103)
    for n in range(60):
        s = _random_section(rng, irrational=n % 2 == 0)
        points = list(s.breakpoints) + [Quad(F(rng.randint(0, 47), 48)) for _ in range(3)]
        for c in points:
            for k in range(-2, 3):
                a, b = s.piece_at(c + k)
                assert a * (c + k) + b == _value_by_scan(s, c) == s.eval(c + k)
        for i, bp in enumerate(s.breakpoints):
            for k in range(-2, 3):
                assert s.piece_at(bp + k)[0] == s.pieces[i][0]


def test_arc_piece_at_ends_lifts_and_outside():
    s = CirclePAF.from_kinks(F(0), F(-1), [(F(0), F(0)), (F(1, 3), F(1)), (F(2, 3), F(1))])
    arc = restrict_to_arc(s, F(1, 2), F(11, 10))
    assert arc.piece_at(arc.hi) == arc.pieces[-1]
    for c in (F(1, 2), F(3, 4), F(0), F(1, 10)):
        for k in (-5, 0, 5):
            a, b = arc.piece_at(c + k)
            assert a * (c + k) + b == _value_by_scan(s, Quad(c))
    for t in (F(1, 5), F(2, 5), F(1, 5) + 7):
        with pytest.raises(PreconditionError, match="outside the arc"):
            arc.piece_at(t)


def test_glue_requires_cover_and_agreement():
    s = CirclePAF.from_kinks(F(0), F(-1), [(F(0), F(0)), (F(1, 3), F(1)), (F(2, 3), F(1))])
    left = restrict_to_arc(s, F(0), F(1, 2))
    with pytest.raises(PreconditionError):
        glue([left])  # gap over (1/2, 1)
    with pytest.raises(PreconditionError, match="do not cover the circle near 1/2$"):
        glue([left, restrict_to_arc(s, F(3, 5), F(11, 10))])  # gap over (1/2, 3/5)
    other = restrict_to_arc(CirclePAF.constant(F(7)), F(1, 4), F(11, 10))
    with pytest.raises(PreconditionError, match="sections disagree near"):
        glue([left, other])  # disagree on the overlap
    with pytest.raises(PreconditionError, match="sections disagree near"):
        glue([left, restrict_to_arc(s, F(2, 5), F(13, 10)), other])


def test_germ_reads_both_sides():
    s = CirclePAF.from_kinks(F(0), F(-1), [(F(0), F(0)), (F(1, 3), F(1)), (F(2, 3), F(1))])
    left, right = germ(s, F(1, 3))
    assert right[0] - left[0] == Quad(1)
    mid_l, mid_r = germ(s, F(1, 6))
    assert mid_l == mid_r


def test_germ_at_wrap_breakpoint():
    s = CirclePAF.from_kinks(F(0), F(-1, 2), [(F(1, 4), F(0)), (F(3, 4), F(1))])
    x = s.breakpoints[0]
    left, right = germ(s, x)
    assert right[0] - left[0] == dict(s.kinks())[x]


def test_irrational_breakpoints_stay_exact():
    s0 = SQRT2 - 1  # in (0, 1)
    a0 = (Quad(F(1)) - s0) / s0
    s = CirclePAF((Quad(F(0)), s0),
                  ((a0, Quad(F(0))), (Quad(F(-1)), Quad(F(1)))))
    assert not s.is_constant()
    assert s.eval(s0) == Quad(F(2)) - SQRT2
    left, right = germ(s, s0)
    assert right[0] - left[0] == Quad(F(-1)) - a0


def test_k_defined_check_examples():
    s0 = SQRT2 - 1
    assert _k_defined(s0, (F(2), F(3)), (F(2), F(3)))
    assert _k_defined(Quad(F(1, 2)), (F(1), F(0)), (F(2), F(-1, 2)))
    assert not _k_defined(Quad(F(1, 2)), (F(2), F(-1, 2)), (F(1), F(0)))  # kink -1
    assert _k_defined(s0, (F(1), F(0)), (F(2), F(0))) is None  # the pieces do not meet


def test_k_defined_rational_junction_forced_at_irrational_points():
    # continuity with rational coefficients at an irrational point pins
    # both pieces: unequal rational pieces can never meet there
    rng = random.Random(11)
    for _ in range(60):
        a, b = F(rng.randint(-5, 5)), F(rng.randint(-5, 5), rng.randint(1, 3))
        a2 = a + F(rng.randint(1, 4))
        s0 = Quad(F(rng.randint(0, 1)), F(1, rng.randint(2, 5)))
        lhs = s0 * a + b
        b2_exact = lhs - s0 * a2  # irrational: not a legal rational intercept
        assert not b2_exact.is_rational


def test_rational_points_dense_between_breakpoints():
    s0, s1 = SQRT2 - 1, Quad(F(9, 10))
    q = rational_between(s0, s1)
    assert s0 < Quad(q) < s1


def test_restrict_glue_roundtrip_fuzz():
    rng = random.Random(71)
    done = 0
    while done < 60:
        spots = sorted(rng.sample(range(1, 12), rng.randint(1, 3)))
        kinks = [(F(s, 12), F(rng.randint(-3, 3), rng.randint(1, 2))) for s in spots]
        try:
            s = CirclePAF.from_kinks(F(rng.randint(-2, 2)), F(rng.randint(-2, 2)), kinks)
        except PreconditionError:
            continue
        done += 1
        start = F(rng.randint(0, 5), 7)
        width = F(rng.randint(4, 6), 7)
        first = restrict_to_arc(s, start, start + width)
        second_start = start + width - F(1, 14)
        second_start -= second_start.floor() if isinstance(second_start, Quad) else 0
        if second_start >= 1:
            second_start -= 1
        second = restrict_to_arc(s, second_start,
                                 second_start + (F(1) - width) + F(1, 7))
        assert glue([first, second]) == s


def test_germ_kinks_everywhere():
    rng = random.Random(73)
    done = 0
    while done < 40:
        spots = sorted(rng.sample(range(1, 10), rng.randint(1, 3)))
        kinks = [(F(s, 10), F(rng.randint(-3, 3))) for s in spots]
        try:
            s = CirclePAF.from_kinks(F(1), F(-1, 2), kinks)
        except PreconditionError:
            continue
        done += 1
        for bp, k in s.kinks():
            left, right = germ(s, bp)
            assert right[0] - left[0] == k
        off = F(1, 20) + F(rng.randint(0, 9), 10)  # never on the tenths grid
        assert germ(s, off)[0] == germ(s, off)[1]

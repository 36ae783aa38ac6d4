import bisect
import random
from fractions import Fraction as F

import pytest

from char1.errors import PreconditionError
from char1.paf import PAF, PAFSemifield, convex_split, random_paf

HAT = PAF.affine(1, F(-1, 2)).oplus(PAF.affine(-1, F(1, 2)))  # max(t-1/2, 1/2-t)


def grid(n=200):
    return [F(i, n) for i in range(n + 1)]


def test_views_read_like_the_old_tuples():
    f = PAF.from_samples([(0, 1), (F(1, 3), F(-1, 2)), (F(3, 4), 2), (1, 0)])
    old_bps = (F(0), F(1, 3), F(3, 4), F(1))
    old_pcs = ((F(-9, 2), F(1)), (F(6), F(-5, 2)), (F(-8), F(8)))
    bps, pcs = f.breakpoints, f.pieces
    assert (len(bps), len(pcs)) == (4, 3)
    assert (bps[-1], bps[-3], pcs[-1], pcs[0]) == (F(1), F(1, 3), old_pcs[-1], old_pcs[0])
    with pytest.raises(IndexError):
        bps[4]
    assert bps[1:-1] == (F(1, 3), F(3, 4)) and type(bps[1:-1]) is tuple
    assert pcs[:2] == old_pcs[:2] and pcs[::-1] == old_pcs[::-1]
    assert list(bps) == list(old_bps) and list(pcs) == list(old_pcs)
    assert all(type(t) is F for t in bps) and all(type(c) is F for pc in pcs for c in pc)
    assert bps == old_bps and old_bps == bps and pcs == old_pcs and not bps != old_bps
    assert bps != old_bps[:-1] and pcs != list(old_pcs) and bps == f.breakpoints
    assert set(bps) == set(old_bps) and F(3, 4) in bps and F(1, 2) not in bps
    for t in (F(-1), F(0), F(1, 3), F(1, 2), F(1), F(2)):
        assert bisect.bisect_right(bps, t) == bisect.bisect_right(old_bps, t)
        assert bisect.bisect_left(bps, t) == bisect.bisect_left(old_bps, t)
    assert repr(bps) == repr(old_bps) and repr(pcs) == repr(old_pcs)
    assert repr(f) == f"PAF(breakpoints={old_bps!r}, pieces={old_pcs!r})"
    # nothing read is kept: the instance holds the integer form only
    assert vars(f) == {"_bps": ((0, 1), (1, 3), (3, 4), (1, 1)),
                       "_pcs": ((-9, 2, 2), (12, -5, 2), (-8, 8, 1))}


def test_eval_examples():
    f = PAF.affine(2, -1)
    assert f.eval(F(1, 2)) == 0
    assert HAT.eval(F(1, 4)) == F(1, 4)
    assert PAF.constant(1).eval(F(7, 13)) == 1


def test_eval_outside_domain():
    with pytest.raises(PreconditionError):
        PAF.affine(1, 0).eval(F(3, 2))


def test_oplus_example_upper_envelope():
    out = PAF.identity().oplus(PAF.affine(-1, 1))
    assert out.breakpoints == (F(0), F(1, 2), F(1))
    assert out.pieces == ((F(-1), F(1)), (F(1), F(0)))
    for t in grid():
        assert out.eval(t) == max(t, 1 - t)


def test_oplus_idempotent_and_crossing():
    f = random_paf(random.Random(5))
    assert f.oplus(f) == f
    g = PAF.constant(0).oplus(PAF.affine(2, -1))
    assert g.breakpoints == (F(0), F(1, 2), F(1))
    for t in grid():
        assert g.eval(t) == max(0, 2 * t - 1)


def test_oplus_domain_mismatch():
    with pytest.raises(PreconditionError):
        PAF.identity(0, 1).oplus(PAF.identity(0, 2))


def test_plus_neg_scale_examples():
    assert PAF.identity() + PAF.affine(-1, 1) == PAF.constant(1)
    m = -HAT
    for t in grid(50):
        assert m.eval(t) == -HAT.eval(t)
    assert PAF.affine(2, 0).scale(F(1, 2)) == PAF.identity()


def test_r_norm_examples():
    assert PAF.affine(2, -1).r_norm() == 1
    assert PAF.constant(1).r_norm() == 1
    assert PAF.constant(0).r_norm() == 0


def test_r_norm_is_pointwise_sup():
    rng = random.Random(11)
    for _ in range(50):
        f = random_paf(rng)
        sample = sorted(set(grid(60)) | set(f.breakpoints))
        assert f.r_norm() == max(abs(f.eval(t)) for t in sample)


def first_peak(f):
    """The first breakpoint where |f| is largest, and |f| there, from the
    Fraction values: the reference for the integer peak scan."""
    t = max(f.breakpoints, key=lambda t: abs(f.eval(t)))
    return t, abs(f.eval(t))


def check_peak(f):
    i, peak = f._peak()
    assert (f.breakpoints[i], peak) == first_peak(f)
    assert f.r_norm() == peak and isinstance(peak, F)


def test_peak_scan_matches_the_reference_on_random_pafs():
    rng = random.Random(21)
    for _ in range(300):
        check_peak(random_paf(rng, max_cuts=rng.randint(0, 9), value_lim=rng.choice([1, 2, 8])))


def test_peak_scan_on_a_fold_chain_past_800_bits():
    rng = random.Random(22)

    def grid_paf(n, grid=10**6):
        ts = [F(0)] + [F(c, grid) for c in sorted(rng.sample(range(1, grid), n - 2))] + [F(1)]
        return PAF.from_samples([(t, F(rng.randint(-1000, 1000), 1000)) for t in ts])

    f = grid_paf(16)
    for _ in range(45):
        q = F(rng.randint(900, 1100) | 1, rng.randint(2**9, 2**10) | 1)
        f = (f.oplus(grid_paf(4)) + grid_paf(4)).scale(q)
        check_peak(f)
        check_peak(-f)
    assert max(max(abs(a.numerator).bit_length(), a.denominator.bit_length(),
                   abs(b.numerator).bit_length(), b.denominator.bit_length())
               for a, b in f.pieces) > 800


@pytest.mark.parametrize("samples, index, peak", [
    ([(0, 1), (F(1, 3), -1), (F(2, 3), 1), (1, 0)], 0, 1),  # a three-way tie
    ([(0, 0), (F(1, 4), -2), (F(1, 2), 2), (1, -2)], 1, 2),  # a negative peak first
    ([(0, 0), (F(1, 2), F(-7, 3)), (1, F(7, 3))], 1, F(7, 3)),  # tie at the last breakpoint
    ([(2, -1), (3, -5), (5, -5)], 1, 5),  # negative everywhere, off [0, 1]
    ([(0, F(1, 3)), (F(1, 2), F(-1, 3)), (1, F(1, 3))], 0, F(1, 3)),
])
def test_peak_scan_keeps_the_first_of_equal_peaks(samples, index, peak):
    f = PAF.from_samples(samples)
    check_peak(f)
    assert f._peak() == (index, peak)


def test_peak_of_the_zero_function_is_its_first_breakpoint():
    for f in (PAF.constant(0), PAF.constant(0, -3, F(5, 2)), PAF.identity() - PAF.identity()):
        check_peak(f)
        assert f._peak() == (0, 0)


def test_lipschitz_seminorm_is_not_max_contractive():
    # the steep ramp saturates against the shallow one: the difference of
    # envelopes can out-slope both input differences
    ramp = PAF.from_samples([(0, 0), (F(1, 4), 0), (F(1, 2), F(5, 2)), (1, F(5, 2))])
    shallow = PAF.from_samples([(0, 0), (F(1, 2), F(1, 2)), (1, F(1, 2))])
    zero = PAF.constant(0)
    lip_delta = (ramp.oplus(shallow) - ramp.oplus(zero)).lipschitz()
    lip_rhs = shallow.lipschitz()
    assert lip_delta == 9 and lip_rhs == 1  # contraction would force <= 1


def test_is_convex_examples():
    assert HAT.is_convex()
    assert not (-HAT).is_convex()
    assert PAF.affine(-3, 7).is_convex()


def test_clamp_examples():
    f = PAF.affine(2, -1)
    out = f.clamp(F(1, 2))
    assert out.breakpoints == (F(0), F(1, 4), F(3, 4), F(1))
    assert out.pieces == ((F(0), F(-1, 2)), (F(2), F(-1)), (F(0), F(1, 2)))
    assert f.clamp(5) == f
    assert f.clamp(0) == PAF.constant(0)
    with pytest.raises(PreconditionError):
        f.clamp(-1)


def test_clamp_agrees_inside_band():
    rng = random.Random(17)
    for _ in range(40):
        f = random_paf(rng)
        c = F(rng.randint(0, 4), rng.randint(1, 3))
        out = f.clamp(c)
        assert out.r_norm() == min(c, f.r_norm())
        for t in grid(40):
            v = f.eval(t)
            if abs(v) <= c:
                assert out.eval(t) == v
            else:
                assert abs(out.eval(t)) == c


def test_leq_matches_pointwise_on_breakpoints():
    rng = random.Random(23)
    ops = PAFSemifield()
    for _ in range(60):
        f, g = random_paf(rng), random_paf(rng)
        pointwise = all(f.eval(t) <= g.eval(t)
                        for t in sorted(set(f.breakpoints) | set(g.breakpoints)))
        assert ops.leq(f, g) == pointwise


def test_restrict_and_compose_affine():
    f = HAT.restrict(F(1, 4), F(3, 4))
    assert (f.lo, f.hi) == (F(1, 4), F(3, 4))
    assert f.eval(F(1, 2)) == 0 and f.eval(F(1, 4)) == F(1, 4)
    g = HAT.compose_affine(F(1, 2), 0, 0, 1)  # t -> HAT(t/2)
    assert g.eval(1) == HAT.eval(F(1, 2))
    assert g.eval(0) == HAT.eval(0)
    flipped = HAT.compose_affine(-1, 1, 0, 1)  # t -> HAT(1-t), symmetric
    assert flipped == HAT
    with pytest.raises(PreconditionError):
        HAT.compose_affine(2, 0, 0, 1)


def test_restrict_agrees_at_its_ends_and_breakpoints():
    rng = random.Random(37)
    for _ in range(60):
        f = random_paf(rng, max_cuts=8)
        a, b = sorted(rng.sample([F(i, 12) for i in range(13)], 2))
        g = f.restrict(a, b)
        assert (g.lo, g.hi) == (a, b)
        for t in [a, b] + [t for t in f.breakpoints if a < t < b]:
            assert g(t) == f(t)
    for a, b in [(F(1, 2), F(1, 2)), (F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2))]:
        with pytest.raises(PreconditionError, match="is not a subinterval of the domain"):
            HAT.restrict(a, b)


def test_convex_split():
    rng = random.Random(31)
    for _ in range(60):
        f = random_paf(rng)
        g, h = convex_split(f)
        assert g.is_convex() and h.is_convex()
        assert g - h == f


def test_decomposition_reassembles():
    ops = PAFSemifield()
    rng = random.Random(41)
    for _ in range(60):
        f = ops.random(rng)
        pos, neg = ops.decompose(f)
        assert pos - neg == f
        assert ops.leq(ops.zero, pos) and ops.leq(ops.zero, neg)
        for t in grid(24):
            assert pos.eval(t) == max(f.eval(t), 0)


def test_json_roundtrip():
    rng = random.Random(47)
    for _ in range(30):
        f = random_paf(rng)
        assert PAF.from_json(f.to_json()) == f


def test_envelope_ops_dense_grid_oracle():
    rng = random.Random(59)
    pts = grid(120)
    for _ in range(60):
        f, g = random_paf(rng), random_paf(rng)
        s, p, m = f.oplus(g), f + g, f.tropical_min(g)
        sample = sorted(set(pts) | set(s.breakpoints))
        for t in sample:
            fv, gv = f.eval(t), g.eval(t)
            assert s.eval(t) == max(fv, gv)
            assert p.eval(t) == fv + gv
            assert m.eval(t) == min(fv, gv)


def test_compose_affine_fuzz():
    rng = random.Random(61)
    for _ in range(120):
        f = random_paf(rng)
        alpha = F(rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(1, 3))
        hi2 = min(F(1), F(1) / abs(alpha))
        beta = F(0) if alpha > 0 else -alpha * hi2
        g = f.compose_affine(alpha, beta, 0, hi2)
        for i in range(13):
            t = hi2 * F(i, 12)
            assert g.eval(t) == f.eval(alpha * t + beta)

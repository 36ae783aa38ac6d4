import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from char1.congruence import (
    ClosedSet,
    FractionRestriction,
    RestrictionCongruence,
    class_of_zero_contains,
    cutoff,
    join,
    meet,
    min_representative,
    order_witness,
    quotient_norm,
    related,
    split_vanishing,
    zariski_laws,
)
from char1.errors import PreconditionError
from char1.laws import CONGRUENCE_LAWS, random_closed_set, random_convex_paf
from char1.paf import PAF, random_paf
from char1.spectrum import PointEval, apply_char
from test_paf_walks import envelope_dist

ZERO = PAF.constant(0)


def _grid_points(k: ClosedSet, n=16):
    for a, b in k.intervals:
        yield a
        yield b
        if a < b:
            for i in range(1, n):
                yield a + (b - a) * F(i, n)


def test_closed_set_normalization():
    k = ClosedSet.of((F(1, 2), F(3, 4)), (F(0), F(1, 2)), (F(7, 8), F(7, 8)))
    assert k.intervals == ((F(0), F(3, 4)), (F(7, 8), F(7, 8)))
    assert k.contains(F(5, 8)) and not k.contains(F(13, 16))
    with pytest.raises(PreconditionError):
        ClosedSet.of((F(1), F(0)))


def test_closed_set_contains_matches_a_linear_scan():
    rng = random.Random(17)
    points = 0
    for _ in range(300):
        k = random_closed_set(rng, lo=rng.randint(-2, 0), hi=rng.randint(1, 3), max_parts=4)
        ivs = k.intervals
        ends = [t for iv in ivs for t in iv]
        gaps = [(b + c) / 2 for (_, b), (c, _) in zip(ivs, ivs[1:])]
        probes = ends + gaps + [ends[0] - 1, ends[-1] + 1, 0, 1] + [F(i, 16) for i in range(-40, 56)]
        for t in probes:
            assert k.contains(t) == any(a <= t <= b for a, b in ivs), (k, t)
        points += sum(a == b for a, b in ivs)
    assert points > 20
    assert not ClosedSet(()).contains(0)
    point = ClosedSet.of((F(1, 3), F(1, 3)))
    assert point.contains(F(1, 3)) and not point.contains(0)


def test_closed_set_algebra():
    k1 = ClosedSet.of((0, F(1, 2)))
    k2 = ClosedSet.of((F(1, 4), 1))
    assert k1.intersect(k2) == ClosedSet.of((F(1, 4), F(1, 2)))
    assert k1.union(k2) == ClosedSet.of((0, 1))


@given(st.lists(st.tuples(st.fractions(min_value=0, max_value=1, max_denominator=8),
                          st.fractions(min_value=0, max_value=1, max_denominator=8)),
                max_size=4))
def test_closed_set_ops_by_membership(pairs):
    ivs = [(min(a, b), max(a, b)) for a, b in pairs]
    k1 = ClosedSet.of(*ivs[:2]) if ivs[:2] else ClosedSet(())
    k2 = ClosedSet.of(*ivs[2:]) if ivs[2:] else ClosedSet(())
    probes = [F(i, 16) for i in range(17)]
    for t in probes:
        assert k1.union(k2).contains(t) == (k1.contains(t) or k2.contains(t))
        assert k1.intersect(k2).contains(t) == (k1.contains(t) and k2.contains(t))


def test_related_examples():
    r = RestrictionCongruence(ClosedSet.of((F(1, 2), 1)))
    assert related(r, PAF.affine(1, 0), PAF.affine(1, 0).oplus(PAF.constant(F(1, 2))))
    f = random_paf(random.Random(1))
    assert related(r, f, f)
    r_pt = RestrictionCongruence(ClosedSet.of((F(1, 2), F(1, 2))))
    assert not related(r_pt, PAF.affine(1, 0), ZERO)


def test_related_by_grid_oracle():
    rng = random.Random(5)
    for _ in range(60):
        k = random_closed_set(rng)
        r = RestrictionCongruence(k)
        f, g = random_paf(rng), random_paf(rng)
        oracle = all(f.eval(t) == g.eval(t) for t in _grid_points(k))
        assert related(r, f, g) == oracle


def test_trivial_congruence_relates_everything():
    r = RestrictionCongruence(ClosedSet(()))
    assert r.k.is_empty
    assert related(r, PAF.affine(1, 0), PAF.constant(9))
    assert related(r, PAF.affine(1, 0), PAF.constant(9, 0, 2))  # even across domains


def test_related_rejects_a_set_leaving_the_domain():
    r = RestrictionCongruence(ClosedSet.of((F(1, 2), 2)))
    with pytest.raises(PreconditionError, match="restriction set leaves"):
        related(r, PAF.affine(1, 0), ZERO)
    with pytest.raises(PreconditionError, match="restriction set leaves"):
        class_of_zero_contains(r, PAF.affine(1, 0))


def test_sandwich_examples():
    sandwich = CONGRUENCE_LAWS["sandwich absorption"]
    r = RestrictionCongruence(ClosedSet.of((F(1, 2), 1)))
    assert sandwich(r, ZERO, ZERO, ZERO)
    assert not sandwich(r, PAF.constant(1), ZERO, PAF.constant(2))  # not a <= b


def test_cutoff_vanishes_and_agrees_far_away():
    rng = random.Random(7)
    for _ in range(40):
        k = random_closed_set(rng)
        f = random_paf(rng)
        h = cutoff(f, k)
        assert class_of_zero_contains(RestrictionCongruence(k), h)


def test_cutoff_keeps_f_where_the_bump_has_levelled_off():
    rng = random.Random(8)
    for _ in range(60):
        k, f = random_closed_set(rng), random_paf(rng)
        if k.is_empty:
            continue
        steep = F(rng.randint(1, 12), rng.randint(1, 3))
        h, d = cutoff(f, k, slope=steep), envelope_dist(k, f.lo, f.hi)
        for t in set(f.breakpoints) | set(h.breakpoints) | set(d.breakpoints):
            if steep * d.eval(t) >= 1:
                assert h.eval(t) == f.eval(t), t
    with pytest.raises(PreconditionError, match="nonnegative"):
        cutoff(PAF.constant(1), ClosedSet.of((0, 0)), slope=-1)


def test_quotient_norm_examples():
    f = PAF.affine(2, -1)
    k = ClosedSet.of((F(1, 4), F(1, 2)))
    assert quotient_norm(f, k) == F(1, 2)
    rep = min_representative(f, k)
    assert rep.r_norm() == F(1, 2) and related(RestrictionCongruence(k), rep, f)
    assert quotient_norm(f, ClosedSet.of((0, 1))) == f.r_norm()
    assert min_representative(f, ClosedSet.of((0, 1))) == f
    assert quotient_norm(ZERO, k) == 0
    assert min_representative(ZERO, k) == ZERO
    with pytest.raises(PreconditionError):
        quotient_norm(f, ClosedSet(()))


def test_quotient_norm_infimum_is_attained():
    rng = random.Random(11)
    for _ in range(80):
        k = random_closed_set(rng)
        f = random_paf(rng)
        qn = quotient_norm(f, k)
        rep = min_representative(f, k)
        assert rep.r_norm() == qn
        rival = f + cutoff(random_paf(rng), k)
        assert rival.r_norm() >= qn


def test_quotient_norm_matches_evaluation_at_every_point():
    # reference: |f| evaluated at both ends of each interval and at every
    # breakpoint inside it, each through f.eval
    rng = random.Random(12)
    for _ in range(200):
        f = random_paf(rng, max_cuts=rng.choice([3, 8]))
        pool = list(f.breakpoints) + [F(rng.randint(0, 24), 24) for _ in range(4)]
        ivs = []
        for _ in range(rng.randint(1, 3)):
            a, b = sorted(rng.sample(pool, 2)) if rng.random() < 0.8 else [rng.choice(pool)] * 2
            ivs.append((a, b))
        k = ClosedSet(tuple(ivs))
        ref = max(abs(f.eval(t)) for a, b in k.intervals
                  for t in [a, b] + [t for t in f.breakpoints if a < t < b])
        out = quotient_norm(f, k)
        assert out == ref and type(out) is F


def test_order_witness_both_directions():
    rng = random.Random(13)
    for _ in range(40):
        k = random_closed_set(rng)
        r = RestrictionCongruence(k)
        f, g = random_paf(rng), random_paf(rng)
        high = f.oplus(g) + cutoff(random_paf(rng), k)
        w = order_witness(f, high, k)
        assert w is not None
        assert class_of_zero_contains(r, w)
        assert f.oplus(high + w) == high + w  # f <= high + w everywhere
        assert related(r, f.oplus(high), high)


def test_join_meet_examples():
    r1 = RestrictionCongruence(ClosedSet.of((0, F(1, 2))))
    r2 = RestrictionCongruence(ClosedSet.of((F(1, 4), 1)))
    assert join(r1, r2).k == ClosedSet.of((F(1, 4), F(1, 2)))
    assert meet(r1, r2).k == ClosedSet.of((0, 1))
    assert join(r1, r1).k == r1.k and meet(r1, r1).k == r1.k


def test_zariski_examples():
    r = RestrictionCongruence(ClosedSet.of((F(1, 4), F(1, 2))))
    assert r.k == ClosedSet.of((F(1, 4), F(1, 2)))
    assert RestrictionCongruence(ClosedSet(())).k.is_empty
    rng = random.Random(17)
    for _ in range(60):
        r1 = RestrictionCongruence(random_closed_set(rng))
        r2 = RestrictionCongruence(random_closed_set(rng))
        assert zariski_laws(r1, r2)


@pytest.mark.parametrize("target, wrong", [
    ("char1.congruence.meet", lambda a, b: RestrictionCongruence(a.k.intersect(b.k))),
    # meet is built on union, so only a membership oracle sees a wrong union
    ("char1.congruence.ClosedSet.union", lambda self, other: self.intersect(other)),
], ids=["meet", "union"])
def test_zariski_laws_catch_a_wrong_meet(monkeypatch, target, wrong):
    r1 = RestrictionCongruence(ClosedSet.of((0, F(1, 2))))
    r2 = RestrictionCongruence(ClosedSet.of((F(1, 4), 1)))
    assert zariski_laws(r1, r2)
    monkeypatch.setattr(target, wrong)
    assert not zariski_laws(r1, r2)


def test_zariski_laws_on_triples():
    rng = random.Random(19)
    for _ in range(40):
        r1, r2, r3 = (RestrictionCongruence(random_closed_set(rng)) for _ in range(3))
        lhs = meet(r1, meet(r2, r3)).k
        assert lhs == r1.k.union(r2.k).union(r3.k)
        lhs = join(r1, join(r2, r3)).k
        assert lhs == r1.k.intersect(r2.k).intersect(r3.k)


def test_split_vanishing_example():
    r1 = RestrictionCongruence(ClosedSet.of((0, F(1, 2))))
    r2 = RestrictionCongruence(ClosedSet.of((F(1, 4), 1)))
    inter = join(r1, r2).k
    f = cutoff(random_paf(random.Random(19)), inter)
    f1, f2 = split_vanishing(f, r1, r2)
    assert f1 + f2 == f
    assert class_of_zero_contains(r1, f1)
    assert class_of_zero_contains(r2, f2)


def test_split_vanishing_requires_vanishing():
    r1 = RestrictionCongruence(ClosedSet.of((0, F(1, 2))))
    r2 = RestrictionCongruence(ClosedSet.of((F(1, 4), 1)))
    with pytest.raises(PreconditionError):
        split_vanishing(PAF.constant(1), r1, r2)


def test_fraction_extension_examples():
    k = ClosedSet.of((F(1, 2), 1))
    fr = FractionRestriction(RestrictionCongruence(k))
    a = PAF.affine(1, 0).oplus(PAF.constant(F(1, 2)))  # max(t, 1/2)
    b = PAF.affine(1, 0)
    a2, b2 = PAF.constant(F(1, 2)), ZERO
    assert fr.related((a, b2), (a2, b)) == related(RestrictionCongruence(k), a + b2, a2 + b)
    assert fr.related((a, b), (a, b))
    c = random_convex_paf(random.Random(23))
    assert fr.related((a + c, b + c), (a, b))


def test_fraction_extension_requires_convex():
    k = ClosedSet.of((F(1, 2), 1))
    fr = FractionRestriction(RestrictionCongruence(k))
    hat = PAF.affine(1, F(-1, 2)).oplus(PAF.affine(-1, F(1, 2)))
    with pytest.raises(PreconditionError):
        fr.related((-hat, ZERO), (-hat, ZERO))


def test_point_restriction_is_evaluation_character():
    # single-point restrictions stand in for maximal congruences: the
    # quotient map is exactly evaluation at the point
    rng = random.Random(29)
    for _ in range(40):
        x = F(rng.randint(0, 8), 8)
        r = RestrictionCongruence(ClosedSet.of((x, x)))
        f, g = random_paf(rng), random_paf(rng)
        phi = PointEval(x)
        assert related(r, f, g) == (apply_char(phi, f) == apply_char(phi, g))


def test_zero_class_fractions_can_be_smaller_than_fraction_zero_class():
    # over the convex sub-semiring, differences of zero-class elements
    # vanish on the closed convex span of the restriction set, while the
    # extended relation only forces vanishing on the set itself
    k = ClosedSet.of((F(1, 5), F(2, 5)), (F(3, 5), F(4, 5)))
    fr = FractionRestriction(RestrictionCongruence(k))
    bump = (PAF.affine(1, F(-2, 5)).tropical_min(PAF.affine(-1, F(3, 5)))
            .oplus(PAF.constant(0)))  # hat supported on (2/5, 3/5)
    assert class_of_zero_contains(RestrictionCongruence(k), bump)
    a, b = _convex_parts(bump)
    assert fr.related((a, b), (ZERO, ZERO))  # in the zero class of the extension
    assert bump.eval(F(1, 2)) != 0
    # but any difference of convex zero-class elements vanishes at 1/2:
    # a convex function vanishing on both intervals is zero in between
    rng = random.Random(31)
    for _ in range(200):
        c = random_convex_paf(rng)
        if class_of_zero_contains(RestrictionCongruence(k), c):
            assert c.eval(F(1, 2)) == 0


def _convex_parts(f):
    from char1.paf import convex_split

    return convex_split(f)

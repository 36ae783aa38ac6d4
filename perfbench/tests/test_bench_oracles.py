"""Each oracle accepts the right output and rejects a deliberately wrong one."""

from fractions import Fraction as F

import pytest

from perfbench import oracles as orc
from perfbench.common import char1_modules

M = char1_modules()
PAF, Polygon, FracBody = M["paf"].PAF, M["convex"].Polygon, M["convex"].FracBody
cx, sp, cg = M["convex"], M["spectrum"], M["congruence"]


def off_by_one(h, i):
    """h with its value at breakpoint i raised by 1."""
    pts = [(t, orc.paf_at(h, t) + (1 if j == i else 0)) for j, t in enumerate(h.breakpoints)]
    return PAF.from_samples(pts)


F1 = PAF.from_samples([(0, 0), (F(1, 3), 2), (F(3, 4), -1), (1, 1)])
G1 = PAF.from_samples([(0, 1), (F(1, 2), -1), (1, 2)])
SQUARE = Polygon.square()
A = Polygon(((0, 0), (3, 0), (1, 2)))
B = Polygon(((-1, -1), (2, -1), (2, 1), (-1, 1)))


@pytest.mark.parametrize("check, args, right", [
    (orc.check_oplus, (F1, G1), F1.oplus(G1)),
    (orc.check_add, (F1, G1), F1 + G1),
    (orc.check_scale, (F1, F(-3, 2)), F1.scale(F(-3, 2))),
    (orc.check_clamp, (F1, F(1, 2)), F1.clamp(F(1, 2))),
])
def test_paf_build_oracles(check, args, right):
    assert check(*args, right)
    for i in range(len(right.breakpoints)):
        assert not check(*args, off_by_one(right, i))


def test_clamp_oracle_sees_a_missing_kink():
    # agrees with the true clamp at the grid points and the cell midpoint
    f = PAF.from_samples([(0, -2), (1, 2)])
    wrong = PAF.from_samples([(0, -1), (1, 1)])
    assert orc.check_clamp(f, F(1), f.clamp(1))
    assert not orc.check_clamp(f, F(1), wrong)


def test_paf_query_oracles():
    t = F(2, 7)
    assert orc.check_eval(F1, t, F1.eval(t)) and not orc.check_eval(F1, t, F1.eval(t) + 1)
    assert orc.check_r_norm(F1, F1.r_norm()) and not orc.check_r_norm(F1, F1.r_norm() + 1)
    k = cg.ClosedSet.of((F(1, 4), F(1, 2)), (F(9, 10), 1))
    qn = cg.quotient_norm(F1, k)
    assert orc.check_quotient_norm(F1, k, qn) and not orc.check_quotient_norm(F1, k, qn + 1)
    convex = PAF.from_samples([(0, 1), (F(1, 2), 0), (1, 2)])
    assert orc.check_convexity(convex, True) and not orc.check_convexity(convex, False)
    assert orc.check_convexity(F1, False) and not orc.check_convexity(F1, True)
    phi = sp.attain_norm(F1)
    assert orc.check_attain_paf(F1, phi)
    assert not orc.check_attain_paf(F1, sp.PointEval(F(1, 2)))


def test_polygon_oracles():
    total = cx.minkowski(A, B)
    assert orc.check_minkowski(A, B, total)
    moved = Polygon(tuple((x + (1 if i == 0 else 0), y) for i, (x, y) in enumerate(total.vertices)))
    assert not orc.check_minkowski(A, B, moved)
    assert not orc.check_minkowski(A, B, Polygon(total.vertices[:-1]))
    union = cx.hull_union(A, B)
    assert orc.check_hull_union(A, B, union)
    assert not orc.check_hull_union(A, B, B)
    assert not orc.check_hull_union(A, B, Polygon(union.vertices + ((5, 5),)))
    psi = (F(2), F(-1))
    assert orc.check_support(A, psi, A.support(psi))
    assert not orc.check_support(A, psi, A.support(psi) + 1)
    assert orc.check_r_norm_body_square(A, cx.r_norm_body(A, SQUARE))
    assert not orc.check_r_norm_body_square(A, cx.r_norm_body(A, SQUARE) + 1)


def test_fraction_body_oracles():
    x = FracBody(A, Polygon(((0, 0), (1, 1))))
    y = FracBody(B, Polygon(((0, 0), (0, -2), (1, 0))))
    z = cx.frac_oplus(x, y)
    assert orc.check_frac_oplus(x, y, z)
    assert not orc.check_frac_oplus(x, y, FracBody(z.neg, z.pos))
    assert not orc.check_frac_oplus(x, y, FracBody(cx.minkowski(z.pos, A), z.neg))
    r = cx.r_norm_frac(x, SQUARE)
    assert orc.check_r_norm_frac_square(x, r) and not orc.check_r_norm_frac_square(x, r + 1)
    phi = sp.attain_norm(x, SQUARE)
    assert orc.check_attain_frac(x, phi)
    wrong = [d for d in ((1, 0), (0, 1), (-1, 0), (0, -1))
             if abs(sp.apply_char(sp.SupportDir(cx.Direction(*d), SQUARE), x)) != r]
    assert not orc.check_attain_frac(x, sp.SupportDir(cx.Direction(*wrong[0]), SQUARE))

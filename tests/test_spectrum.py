import random
import warnings
from fractions import Fraction as F

import pytest

from char1.convex import Direction, Polygon, r_norm_body, random_direction, random_polygon
from char1.errors import PreconditionError
from char1.paf import PAF, PAFSemifield, random_paf
from char1.spectrum import (
    PointEval,
    SupportDir,
    apply_char,
    attain_norm,
    classify,
    prescribe,
    separate,
)

E = Polygon.square()
HAT = PAF.affine(1, F(-1, 2)).oplus(PAF.affine(-1, F(1, 2)))


def test_apply_examples():
    assert apply_char(PointEval(F(1, 3)), PAF.affine(2, -1)) == F(-1, 3)
    assert apply_char(PointEval(F(2, 7)), PAF.constant(1)) == 1
    sq01 = Polygon.hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert apply_char(SupportDir(Direction(1, 0), E), sq01) == 1
    assert apply_char(SupportDir(Direction(1, 1), E), E) == 1


def test_apply_model_mismatch():
    with pytest.raises(PreconditionError):
        apply_char(PointEval(F(1, 2)), E)
    with pytest.raises(PreconditionError):
        apply_char(SupportDir(Direction(1, 0), E), PAF.identity())


def test_attain_norm_examples():
    f = PAF.affine(2, -1)
    phi = attain_norm(f)
    assert phi == PointEval(F(0))  # smallest attaining breakpoint
    assert abs(apply_char(phi, f)) == f.r_norm() == 1

    tri = Polygon.hull([(0, 0), (2, 0), (0, 1)])
    psi = attain_norm(tri, E)
    assert isinstance(psi, SupportDir)
    assert apply_char(psi, tri) == r_norm_body(tri, E) == 2


def test_attain_norm_flags_zero():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phi = attain_norm(PAF.constant(0))
        assert phi == PointEval(F(0))
        assert caught and "degenerate" in str(caught[0].message)


@pytest.mark.parametrize("samples, t, value", [
    ([(0, 1), (F(1, 3), -1), (F(2, 3), 1), (1, 0)], 0, 1),  # the first of three peaks
    ([(0, 0), (F(1, 4), -2), (F(1, 2), 2), (1, -2)], F(1, 4), -2),  # a negative peak first
    ([(2, -1), (3, -5), (5, -5)], 3, -5),
])
def test_attainment_picks_the_first_peak(samples, t, value):
    f = PAF.from_samples(samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = attain_norm(f)
    assert phi == PointEval(t) and apply_char(phi, f) == value


def test_attainment_on_zero_functions_warns():
    for f in (PAF.constant(0, -3, F(5, 2)), PAF.identity() - PAF.identity()):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert attain_norm(f) == PointEval(f.lo)
        assert [str(w.message) for w in caught] == [
            "norm attainment on the zero element is degenerate"]


def test_attainment_random():
    rng = random.Random(7)
    for _ in range(100):
        f = random_paf(rng)
        if f.r_norm() == 0:
            continue
        phi = attain_norm(f)
        assert abs(apply_char(phi, f)) == f.r_norm()


def test_attainment_on_fraction_bodies():
    from char1.convex import FracBody, r_norm_frac

    rng = random.Random(8)
    for _ in range(100):
        x = FracBody(random_polygon(rng), random_polygon(rng))
        r = r_norm_frac(x, E)
        if r == 0:
            continue
        phi = attain_norm(x, E)
        assert abs(apply_char(phi, x)) == r


def test_classify_examples():
    up = PAF.identity().oplus(PAF.affine(-1, 1))  # max(t, 1-t)
    got = classify(up)
    assert got.nonneg and got.regular and got.absorbing and got.epsilon == F(1, 2)
    z = classify(PAF.constant(0))
    assert z.nonneg and not z.regular and not z.absorbing and z.epsilon is None
    neg = classify(PAF.affine(2, -1))
    assert not neg.nonneg and not neg.regular


def test_classify_detects_interior_zero_crossing():
    # vanishes strictly inside a piece: regular must be False
    f = PAF.affine(2, -1)
    assert not classify(f).regular
    g = f + PAF.constant(10)
    assert classify(g).regular


def test_classify_matches_character_side():
    rng = random.Random(17)
    for _ in range(60):
        f = random_paf(rng)
        got = classify(f)
        samples = [f.eval(F(i, 24)) for i in range(25)] + [f.eval(t) for t in f.breakpoints]
        assert got.nonneg == all(v >= 0 for v in samples)
        if got.absorbing:
            assert all(v >= got.epsilon for v in samples)


def test_separate_points():
    z = separate(PointEval(F(1, 4)), PointEval(F(3, 4)))
    assert z.eval(F(1, 4)) != z.eval(F(3, 4))
    with pytest.raises(PreconditionError):
        separate(PointEval(F(1, 4)), PointEval(F(1, 4)))


def test_separate_directions():
    d1, d2 = SupportDir(Direction(1, 0), E), SupportDir(Direction(0, 1), E)
    a = separate(d1, d2)
    assert apply_char(d1, a) != apply_char(d2, a)
    # opposite rays agree on both positive probes: the negative ones decide
    d3 = SupportDir(Direction(-1, -2), E)
    d4 = SupportDir(Direction(-2, -1), E)
    b = separate(d3, d4)
    assert apply_char(d3, b) != apply_char(d4, b)


def test_separate_mixed_models():
    with pytest.raises(PreconditionError):
        separate(PointEval(F(1, 2)), SupportDir(Direction(1, 0), E))


def test_prescribe_hits_exact_values():
    ops = PAFSemifield()
    phi1, phi2 = PointEval(F(1, 4)), PointEval(F(3, 4))
    x = prescribe(ops, phi1, phi2, PAF.identity(), 0, 1)
    assert apply_char(phi1, x) == 0 and apply_char(phi2, x) == 1
    y = prescribe(ops, phi1, phi2, PAF.identity(), F(-2, 3), F(7, 5))
    assert apply_char(phi1, y) == F(-2, 3) and apply_char(phi2, y) == F(7, 5)
    with pytest.raises(PreconditionError):
        prescribe(ops, phi1, phi2, PAF.constant(4), 0, 1)


def test_character_json():
    assert PointEval(F(1, 3)).to_json() == {"kind": "point", "t": "1/3"}
    assert SupportDir(Direction(1, -2), E).to_json() == {"kind": "dir", "psi": ["1", "-2"]}


def test_separating_directions_decodes_no_polygon(monkeypatch):
    """The four axis probes are built once, so ``separate`` constructs no body."""
    calls = []
    decode = Polygon.__post_init__
    monkeypatch.setattr(Polygon, "__post_init__", lambda self: calls.append(1) or decode(self))
    rng = random.Random(31)
    found = set()
    for _ in range(100):
        d1, d2 = random_direction(rng), random_direction(rng)
        if d1 != d2:
            found.add(separate(SupportDir(d1, E), SupportDir(d2, E)))
    assert calls == []
    monkeypatch.undo()
    assert len(found) > 1
    assert found <= {Polygon(((0, 0), v)) for v in ((1, 0), (-1, 0), (0, 1), (0, -1))}

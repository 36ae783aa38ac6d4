"""Complexity by counts, not clocks: ``work`` counts the lines a call
executes in char1's source files, which is exact and repeatable, and each
test asserts how that count grows when the input grows four times.  Only
ratios are asserted, because raw counts differ between Python versions.
Linear calls grow by 3 to 5 per step, calls that bisect once by under 1.5."""

import os
import random
import sys
from fractions import Fraction as F

import pytest

import char1
from char1.congruence import ClosedSet, quotient_norm
from char1.convex import (FracBody, Polygon, _supports, hull_union, merged_fan, minkowski,
                          norm_ray, polar)
from char1.paf import PAF
from char1.valuation import CirclePAF, convexity_criterion, germ, kink

CHAR1 = os.path.dirname(char1.__file__) + os.sep


def work(fn, *args) -> int:
    """The number of ``line`` events of fn(*args) in frames whose file is
    under char1's package directory."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(CHAR1) else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def paf(n: int, seed: int) -> PAF:
    """n breakpoints i/(n-1), seeded values in [-1, 1] at 1/1000 steps."""
    return PAF.from_samples(samples(n, seed))


def samples(n: int, seed: int) -> list:
    """The n samples that ``paf(n, seed)`` interpolates."""
    rng = random.Random(seed)
    return [(F(i, n - 1), F(rng.randint(-1000, 1000), 1000)) for i in range(n)]


def convex_paf(n: int) -> PAF:
    """t -> t^2 interpolated at n breakpoints i/(n-1): every kink positive."""
    return PAF.from_samples([(F(i, n - 1), F(i * i, (n - 1) ** 2)) for i in range(n)])


def section(n: int, seed: int) -> CirclePAF:
    """The circle section through n seeded values at the breakpoints i/n,
    its last arc closing at 1 on the value at 0."""
    rng = random.Random(seed)
    ts = [F(i, n) for i in range(n)]
    vs = [F(rng.randint(-1000, 1000), 1000) for _ in range(n)]
    ends = list(zip(ts, vs))[1:] + [(F(1), vs[0])]
    slopes = [(v1 - v0) / (t1 - t0) for (t0, v0), (t1, v1) in zip(zip(ts, vs), ends)]
    return CirclePAF(ts, [(a, v - a * t) for a, t, v in zip(slopes, ts, vs)])


def body(n: int, shift: int) -> Polygon:
    """n rational points of the unit circle, ((1 - t^2) / (1 + t^2),
    2t / (1 + t^2)) for n values of t in [-4, 4): n vertices, the origin inside."""
    ts = (F(8 * k + shift, n) - 4 for k in range(n))
    return Polygon([((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts])


PAF_SIZES = (128, 512, 2048)
BODY_SIZES = (16, 64, 256)
POINT = ClosedSet.point(F(1, 3))


def paf_args(n):
    return paf(n, 1), paf(n, 2)


def body_args(n):
    return body(n, 0), body(n, 1)


# name -> (call, input sizes, arguments at a size)
LINEAR = {
    "oplus": (PAF.oplus, PAF_SIZES, paf_args),
    "add": (PAF.__add__, PAF_SIZES, paf_args),
    "scale": (PAF.scale, PAF_SIZES, lambda n: (paf(n, 1), F(2, 3))),
    "clamp": (PAF.clamp, PAF_SIZES, lambda n: (paf(n, 1), F(1, 2))),
    "r_norm": (PAF.r_norm, PAF_SIZES, lambda n: (paf(n, 1),)),
    "minkowski": (minkowski, BODY_SIZES, body_args),
    "hull_union": (hull_union, BODY_SIZES, body_args),
    "merged_fan": (merged_fan, BODY_SIZES, body_args),
    "_supports": (_supports, BODY_SIZES, lambda n: (body(n, 0), merged_fan(*body_args(n)))),
    "norm_ray": (norm_ray, BODY_SIZES, lambda n: (FracBody(*body_args(n)), Polygon.square())),
    "from_samples": (PAF.from_samples, PAF_SIZES, lambda n: (samples(n, 1),)),
    "_values": (PAF._values, PAF_SIZES, lambda n: (paf(n, 1),)),
    "PAF.from_json": (PAF.from_json, PAF_SIZES, lambda n: (paf(n, 1).to_json(),)),
    "Polygon.from_json": (Polygon.from_json, BODY_SIZES, lambda n: (body(n, 0).to_json(),)),
    "polar": (polar, BODY_SIZES, lambda n: (body(n, 0),)),
    # a random PAF stops at its first negative kink, so the input is convex
    "convexity_criterion": (convexity_criterion, PAF_SIZES, lambda n: (convex_paf(n),)),
}
# one bisection per call
LOGARITHMIC = {
    "eval": (PAF.eval, PAF_SIZES, lambda n: (paf(n, 1), F(1, 3))),
    "kink": (kink, PAF_SIZES, lambda n: (paf(n, 1), F(n // 2, n - 1))),
    "quotient_norm_point": (quotient_norm, PAF_SIZES, lambda n: (paf(n, 1), POINT)),
    "CirclePAF.piece_at": (CirclePAF.piece_at, PAF_SIZES, lambda n: (section(n, 1), F(1, 3))),
    "germ": (germ, PAF_SIZES, lambda n: (section(n, 1), F(n // 2, n))),
}


def ratios(call, sizes, args) -> list[float]:
    counts = [work(call, *args(n)) for n in sizes]
    return [b / a for a, b in zip(counts, counts[1:])]


@pytest.mark.parametrize("name", LINEAR)
def test_linear_calls_grow_with_the_input(name):
    assert all(3 <= r <= 5 for r in ratios(*LINEAR[name])), ratios(*LINEAR[name])


@pytest.mark.parametrize("name", LOGARITHMIC)
def test_bisecting_calls_barely_grow(name):
    assert all(r < 1.5 for r in ratios(*LOGARITHMIC[name])), ratios(*LOGARITHMIC[name])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: f - g is formed on the whole domain")
def test_quotient_norm_with_g_on_a_point_barely_grows():
    assert all(r < 1.5 for r in ratios(quotient_norm, PAF_SIZES,
                                       lambda n: (paf(n, 1), POINT, paf(n, 2))))


def test_work_counts_only_char1_lines():
    f = paf(8, 1)
    assert work(f.eval, F(1, 3)) == work(f.eval, F(1, 3)) > 0
    assert work(sorted, [3, 1, 2]) == 0

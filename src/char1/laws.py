"""Seeded property suites with brute-force oracles.

Each suite draws random elements from small exact grids, checks the
algebraic laws and norm identities with exact equality (tolerance zero),
and reports pass/fail counts plus the first counterexample verbatim.
The CLI's laws-run verb and the acceptance tests both run these.  Every
check names a law of a table: the semifield, decomposition and norm
suites check ``semifield.LAWS`` on every model of ``_MODELS``, and the
convex, character, congruence and valuation suites check ``CONVEX_LAWS``,
``CHARACTER_LAWS``, ``CONGRUENCE_LAWS`` and ``VALUATION_LAWS``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import congruence as cg
from . import convex as cx
from . import spectrum as sp
from . import valuation as vl
from .paf import PAF, PAFSemifield, convex_split
from .scalars import Value, as_nat
from .semifield import LAWS, SCALAR
from .errors import PreconditionError


class SuiteReport(Value):
    suite: str
    cases: int
    failed: int
    first_counterexample: str | None

    @property
    def passed(self) -> int:
        return self.cases - self.failed

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.cases > 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "passed": self.passed,
            "failed": self.failed,
            "first_counterexample": self.first_counterexample,
        }


class _Tally:
    def __init__(self, name, laws):
        self.name = name
        self.laws = laws
        self.cases = 0
        self.failed = 0
        self.first = None

    def law(self, name: str, *args, ops=None):
        """Check the law ``name`` of this suite's table at ``args``, one case.
        A counterexample shows its label and exactly the law's arguments.
        A law of ``semifield.LAWS`` takes the model's ``ops`` first, and its
        label starts with the model's name.  A law of two parts fails with
        (the failing part, a witness): the part is the label, the witness
        is shown last."""
        held = self.laws[name](*args) if ops is None else self.laws[name](ops, *args)
        self.cases += 1
        if held.__class__ is tuple:
            name, witness = held
            args += (witness,)
        elif held:
            return
        self.failed += 1
        if self.first is None:
            label = name if ops is None else f"{ops.name}: {name}"
            self.first = f"{label}: {', '.join(map(repr, args))}" if args else label

    def report(self) -> SuiteReport:
        return SuiteReport(self.name, self.cases, self.failed, self.first)


# -- extra generators -----------------------------------------------------------


def random_convex_paf(rng) -> PAF:
    k = rng.randint(0, 3)
    den = rng.randint(2, 6)
    cuts = sorted(rng.sample(range(1, 2 * den), k))
    ts = [0, *(Fraction(c, 2 * den) for c in cuts), 1]
    slopes = sorted(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                    for _ in range(len(ts) - 1))
    samples = [(ts[0], Fraction(rng.randint(-4, 4), rng.randint(1, 3)))]
    for (u, v), a in zip(zip(ts, ts[1:]), slopes):
        samples.append((v, samples[-1][1] + a * (v - u)))
    return PAF.from_samples(samples)


def random_closed_set(rng, lo=0, hi=1, max_parts=3) -> cg.ClosedSet:
    den = rng.randint(4, 8)
    k = rng.randint(1, max_parts)
    cuts = sorted(rng.sample(range(0, den + 1), min(2 * k, den + 1)))
    ivs = []
    for i in range(0, len(cuts) - 1, 2):
        a = lo + (hi - lo) * Fraction(cuts[i], den)
        b = lo + (hi - lo) * Fraction(cuts[i + 1], den)
        if rng.random() < 0.25:
            b = a  # squeeze to a point now and then
        ivs.append((a, b))
    return cg.ClosedSet.of(*(ivs or [(lo, lo)]))


def random_interior_point(rng) -> Fraction:
    den = rng.randint(2, 8)
    return Fraction(rng.randint(1, den - 1), den)


def random_circle_section(rng) -> vl.CirclePAF | None:
    """A random continuous circle section, or None when the random data
    does not close up around the wrap."""
    den = rng.randint(3, 8)
    spots = sorted(rng.sample(range(0, den), rng.randint(1, 3)))
    kinks = [(Fraction(s, den), Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
             for s in spots]
    try:
        return vl.CirclePAF.from_kinks(
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            kinks,
        )
    except PreconditionError:
        return None


def random_nonneg_kinks(rng) -> list[tuple[Fraction, Fraction]]:
    """One to three nonnegative integer kinks at distinct twelfths in (0, 1)."""
    spots = sorted(rng.sample(range(1, 12), rng.randint(1, 3)))
    return [(Fraction(s, 12), Fraction(rng.randint(0, 3))) for s in spots]


def random_kink_trial(rng) -> tuple:
    """(kinks, start, slope, free): random nonnegative kinks, and a start
    value, a first slope and integer kinks of either sign at the same points."""
    kinks = random_nonneg_kinks(rng)
    return (kinks, Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            [(t, Fraction(rng.randint(-3, 3))) for t, _ in kinks])


# the models, each built once; the character, congruence and valuation suites
# draw from the piecewise-affine one, and their laws compute in it
_PAF01 = PAFSemifield(0, 1)
_MODELS = (SCALAR, _PAF01, cx.PolygonFractionSemifield())


def _models(seed, cases, convex_share):
    """(ops, rng, rounds) for each model of ``_MODELS``, each with its own
    seeded stream.  The convex-fraction model, the slowest, runs
    ``max(1, cases // convex_share)`` rounds when ``convex_share`` > 1."""
    for ops in _MODELS:
        slow = ops.name == "convex-fraction" and convex_share > 1
        rounds = max(1, cases // convex_share) if slow else cases
        yield ops, random.Random(f"{seed}:{ops.name}"), rounds


# -- law tables ------------------------------------------------------------------
#
# One table per suite, as ``semifield.LAWS``: one predicate per law, true when
# it holds, on the arguments named above the table.  The suite builds a value
# that two laws read once, and keeps each condition on whether a law is checked.


def support_mismatch(a, b, union, total):
    """(label, ray) at the first ray where l_union = max(l_a, l_b) or
    l_total = l_a + l_b fails; None if both hold in every direction.

    Both sides are linear between consecutive rays of the four bodies'
    ``merged_fan`` once a ray is added in each cone where l_a - l_b changes
    sign (from d1 at r1 to d2 at r2: the ray |d2|·r1 + |d1|·r2), and each
    cone is narrower than a half-turn, so these rays decide.  Integers only."""
    fan = cx.merged_fan(a, b, union, total)
    da, db = a._den, b._den
    diffs = [a._isupport(p, q) * db - b._isupport(p, q) * da for p, q in fan]
    rays = []
    for i, r2 in enumerate(fan):  # the cone from r1 = fan[i - 1] to r2
        r1, d1, d2 = fan[i - 1], diffs[i - 1], diffs[i]
        if d1 * d2 < 0:
            rays.append((abs(d2) * r1[0] + abs(d1) * r2[0], abs(d2) * r1[1] + abs(d1) * r2[1]))
        rays.append(r2)
    for p, q in rays:
        la, lb = a._isupport(p, q) * db, b._isupport(p, q) * da  # both over da * db
        if union._isupport(p, q) * da * db != max(la, lb) * union._den:
            return "support of hull-union", (p, q)
        if total._isupport(p, q) * da * db != (la + lb) * total._den:
            return "support of minkowski sum", (p, q)
    return None


# a b c: bodies holding the origin; union = hull_union(a, b); ac = a + c and
# bc = b + c (Minkowski sums); inv: an i-invariant body; unit: the unit body,
# pole = polar(unit)
CONVEX_LAWS = {
    # l_union = max(l_a, l_b) and l_(a+b) = l_a + l_b; a failure names its side and ray
    "support isomorphism": lambda a, b, union: (
        support_mismatch(a, b, union, cx.minkowski(a, b)) or True),
    "hull-union contains both bodies": lambda a, b, union: all(
        union.contains(v) for v in a.vertices + b.vertices),
    "idempotent hull-union": lambda a: cx.hull_union(a, a) == a,
    "distributivity": lambda a, b, c: (
        cx.minkowski(a, cx.hull_union(b, c))
        == cx.hull_union(cx.minkowski(a, b), cx.minkowski(a, c))),
    "cancellativity": lambda a, b, ac, bc: ac != bc or a == b,
    "symmetrized body is i-invariant": lambda a: cx.i_invariant(cx.i_symmetrize(a)),
    "i-invariant fixpoint": lambda inv: cx.i_symmetrize(inv) == inv,
    "dual norm identity": lambda a, unit, pole: (
        cx.r_norm_body(a, unit) == max(a.support(v) for v in pole.vertices)),
    # the flagged float mode (the correctly rounded largest vertex norm)
    # against a float hypot, at 1e-9
    "euclidean mode": lambda a: abs(cx.r_norm_euclidean(a) - max(
        math.hypot(float(x), float(y)) for x, y in a.vertices)) <= 1e-9,
}


# phi: a point character; phi1 != phi2: point characters, z = separate(phi1,
# phi2); psi: a direction character, psi1 != psi2 direction characters on one
# unit body; f g: PAFs on [0, 1]; q: a rational; a b: bodies; unit: the unit
# body
CHARACTER_LAWS = {
    "point-character axioms": lambda phi, f, g: (
        sp.apply_char(phi, f.oplus(g)) == max(sp.apply_char(phi, f), sp.apply_char(phi, g))
        and sp.apply_char(phi, f + g) == sp.apply_char(phi, f) + sp.apply_char(phi, g)
        and sp.apply_char(phi, _PAF01.unit) == 1
        and abs(sp.apply_char(phi, f)) <= f.r_norm()),
    "character homogeneity": lambda phi, q, f: (
        sp.apply_char(phi, f.scale(q)) == q * sp.apply_char(phi, f)),
    "character monotonicity": lambda phi, f, g: (
        sp.apply_char(phi, f) <= sp.apply_char(phi, f.oplus(g))),
    "direction-character axioms": lambda psi, a, b: (
        sp.apply_char(psi, cx.hull_union(a, b))
        == max(sp.apply_char(psi, a), sp.apply_char(psi, b))
        and sp.apply_char(psi, cx.minkowski(a, b))
        == sp.apply_char(psi, a) + sp.apply_char(psi, b)
        and sp.apply_char(psi, psi.unit) == 1),
    "norm attainment": lambda f: abs(sp.apply_char(sp.attain_norm(f), f)) == f.r_norm(),
    "no character exceeds the norm": lambda f: (
        max(abs(sp.apply_char(sp.PointEval(Fraction(i, 24)), f)) for i in range(25)) <= f.r_norm()),
    "convex norm attainment": lambda a, unit: (
        abs(sp.apply_char(sp.attain_norm(a, unit), a)) == cx.r_norm_body(a, unit)),
    "separation of points": lambda phi1, phi2, z: z.eval(phi1.t) != z.eval(phi2.t),
    # prescribe swaps the values of phi1 and phi2 on z
    "prescribed values": lambda phi1, phi2, z: (
        (w := sp.prescribe(_PAF01, phi1, phi2, z, phi2.t, phi1.t)).eval(phi1.t) == phi2.t
        and w.eval(phi2.t) == phi1.t),
    "separation of directions": lambda psi1, psi2: (
        sp.apply_char(psi1, z := sp.separate(psi1, psi2)) != sp.apply_char(psi2, z)),
}


def _join_splitting(r, r2, f0) -> bool:
    """f0 is the sum of a PAF vanishing on r.k and one vanishing on r2.k."""
    f1, f2 = cg.split_vanishing(f0, r, r2)
    zero = _PAF01.zero
    return cg.related(r, f1, zero) and cg.related(r2, f2, zero) and f1 + f2 == f0


# r r2: restriction congruences (their sets r.k, r2.k); f h: PAFs on [0, 1];
# g, rival: PAFs congruent to f under r; a <= b <= c with a and c in the
# class of zero; qn = quotient_norm(f, r.k); high: f oplus g plus a PAF
# vanishing on r.k, w = order_witness(f, high, r.k); f0: a PAF vanishing on
# the intersection of r.k and r2.k; fr = FractionRestriction(r); A B C:
# convex PAFs
CONGRUENCE_LAWS = {
    "constructed pair is congruent": lambda r, f, g: cg.related(r, f, g),
    "congruence compatibility": lambda r, f, g, h: (
        cg.related(r, f + h, g + h) and cg.related(r, f.oplus(h), g.oplus(h))
        and cg.related(r, -f, -g)),
    "difference lies in the zero class": lambda r, f, g: (
        cg.related(r, f, g) == cg.class_of_zero_contains(r, f - g)),
    # the sandwich rule: the order absorbs b into the class of a and c
    "sandwich absorption": lambda r, a, b, c: (
        a.oplus(b) == b and b.oplus(c) == c and cg.class_of_zero_contains(r, b)),
    "minimal representative": lambda r, f, qn: (
        cg.related(r, rep := cg.min_representative(f, r.k), f) and rep.r_norm() == qn),
    "no representative beats the quotient norm": lambda qn, rival: rival.r_norm() >= qn,
    "order witness exists": lambda r, f, high, w: (
        w is not None and cg.class_of_zero_contains(r, w) and f.oplus(high + w) == high + w),
    "witness implies quotient order": lambda r, f, high: cg.related(r, f.oplus(high), high),
    "Zariski laws": lambda r, r2: cg.zariski_laws(r, r2),
    "lattice idempotency": lambda r: cg.join(r, r).k == r.k and cg.meet(r, r).k == r.k,
    "join splitting": _join_splitting,
    "fraction re-representation": lambda fr, A, B, C: fr.related((A, B), (A + C, B + C)),
    "fraction extension restricts back": lambda fr, A, B: (
        fr.related((A, _PAF01.zero), (B, _PAF01.zero)) == cg.related(fr.base, A, B)),
}


def _germ_reads_kink(s, bp, k) -> bool:
    """Do the two germ pieces of s at the breakpoint bp both take the value
    s(bp) there, and jump in slope by the kink k?"""
    (a0, b0), (a1, b1) = vl.germ(s, bp)
    value = s.eval(bp)
    return a0 * bp + b0 == value == a1 * bp + b1 and a1 - a0 == k


def _split_independence(x0, f, extra) -> bool:
    """The valuation of f = pos - neg at x0 does not depend on the convex
    decomposition: adding a convex PAF to both parts keeps it."""
    pos, neg = convex_split(f)
    return vl.kink(pos + extra, x0) - vl.kink(neg + extra, x0) == vl.kink(f, x0)


def _local_morphism(alpha, beta, x_src, x_dst) -> bool:
    """Is the pullback by t -> alpha*t + beta, sending the point character at
    x_dst to the one at x_src, a local morphism?  The characters correspond,
    and on the probes (the identity, the unit and, at an interior x_src, the
    hat |t - x_src|) a strictly positive valuation at x_src is one at x_dst."""
    if alpha * x_dst + beta != x_src:
        return False
    probes = [PAF.affine(1, 0, 0, 1), PAF.constant(1, 0, 1)]
    if 0 < x_src < 1:
        probes.append(PAF.affine(1, -x_src, 0, 1).oplus(PAF.affine(-1, x_src, 0, 1)))
    return all((vl._shifted_valuation(f, x_src) > 0)
               == (vl._shifted_valuation(f.compose_affine(alpha, beta, 0, 1), x_dst) > 0)
               for f in probes)


def _chords_rise(p) -> bool:
    """Do the chord slopes between consecutive breakpoint values never decrease?"""
    ts, pcs = p.breakpoints, p.pieces
    vs = [a * t + b for t, (a, b) in zip(ts, [*pcs, pcs[-1]])]
    chords = [(v1 - v0) / (t1 - t0) for t0, t1, v0, v1 in zip(ts, ts[1:], vs, vs[1:])]
    return all(c0 <= c1 for c0, c1 in zip(chords, chords[1:]))


def _only_constants_valid(kinks, start=Fraction(0), slope=Fraction(0)) -> bool:
    """Do the kinks, integrated from the start value and first slope, give
    no valid nonconstant section?  Kinks telescope to zero, so a strictly
    positive jump forces a negative one elsewhere."""
    try:
        s = vl.CirclePAF.from_kinks(start, slope, kinks)
    except PreconditionError:
        return True
    return not vl.circle_section_valid(s) or s.is_constant()


def _k_defined(s0, left, right) -> bool | None:
    """The rationally-defined-subsheaf test at one junction of the rational
    (slope, intercept) pieces left and right: None when they do not meet at
    s0; else whether the kink is zero at an irrational s0 (where rational
    independence forces equal pieces) or nonnegative at a rational one."""
    (a, b), (a2, b2) = left, right
    if s0 * a + b != s0 * a2 + b2:
        return None
    return a2 - a >= 0 if s0.is_rational else a2 == a


# x0: an interior point; f g: PAFs vanishing at x0, vf vg their valuations
# there; t: a rational; extra: a convex PAF; h: half the distance from x0 to
# the nearest other breakpoint of f or end of [0, 1]; p: a PAF on [0, 1], xs
# a point inside a cell of p; alpha + beta <= 1 with alpha > 0 and beta >= 0,
# x_dst an interior point, x_src = alpha*x_dst + beta; s: a constant circle
# section, cand: a circle section, valid: a valid one; kinks: nonnegative
# kinks at points of (0, 1); trials: random_kink_trial draws; s0: a point of
# Q(sqrt 2) in (0, 1), a b a2: rationals with a < a2
VALUATION_LAWS = {
    "valuation additivity": lambda x0, f, g, vf, vg: vl.valuation_at(x0, f + g) == vf + vg,
    "valuation superadditivity": lambda x0, f, g, vf, vg: (
        max(vf, vg) <= vl.valuation_at(x0, f.oplus(g))),
    "valuation homogeneity": lambda x0, t, f, vf: vl.valuation_at(x0, f.scale(t)) == t * vf,
    "split independence": _split_independence,
    "difference quotient": lambda x0, f, h: (
        (f.eval(x0 - h) + f.eval(x0 + h)) / h == vl.kink(f, x0)),
    "kink-free neighborhood": lambda p, xs: vl.is_local_unit(p, xs),
    "affine pullbacks are local morphisms": _local_morphism,
    "convexity criterion equals slope monotonicity": lambda p: (
        vl.convexity_criterion(p) == _chords_rise(p)),
    "constants are valid sections": lambda s: vl.circle_section_valid(s) and s.is_constant(),
    "kinks telescope": lambda cand: sum((k for _, k in cand.kinks()), vl.Quad(0)) == 0,
    "restrictions glue back": lambda cand: vl.glue(
        (vl.restrict_to_arc(cand, 0, Fraction(3, 5)),
         vl.restrict_to_arc(cand, Fraction(1, 2), Fraction(11, 10)))) == cand,
    "germs read the kinks": lambda cand: all(
        _germ_reads_kink(cand, bp, k) for bp, k in cand.kinks()),
    "valid sections are constant": lambda valid: valid.is_constant(),
    "no nonconstant valid section": lambda kinks: _only_constants_valid(kinks),
    # global sections are constant: no trial's nonnegative kinks, and no
    # trial's kinks of either sign from its start and slope, give a
    # nonconstant valid section
    "global-section property": lambda trials: all(
        _only_constants_valid(kinks) and _only_constants_valid(free, start, slope)
        for kinks, start, slope, free in trials),
    # rational pieces of unequal slopes whose values at s0 share their
    # rational part: at an irrational s0 they cannot meet
    "rational junctions cannot kink at irrational points": lambda s0, a, b, a2: (
        s0.is_rational or _k_defined(s0, (a, b), (a2, b + s0.a * (a - a2))) is None),
    "discontinuous junction rejected": lambda s0, a, b, a2: (
        _k_defined(s0, (a, b), (a2, b)) is None),
}


# -- suites ----------------------------------------------------------------------


def run_semifield_suite(seed=0, cases=1000) -> SuiteReport:
    """Idempotent-sum laws, distributivity, perfectness and the n-th power
    identity, on the scalar, piecewise-affine and convex-fraction models."""
    tally = _Tally("semifield", LAWS)
    for ops, rng, rounds in _models(seed, cases, convex_share=1):
        for _ in range(rounds):
            x, y, z = ops.random(rng), ops.random(rng), ops.random(rng)
            tally.law("semifield law", x, y, z, ops=ops)
            tally.law("power identity", rng.randint(1, 5), x, y, ops=ops)
            tally.law("perfectness", rng.randint(1, 4), x, ops=ops)
    return tally.report()


def run_decomposition_suite(seed=0, cases=1000) -> SuiteReport:
    """Positive/negative part reassembly and the max-plus-min identity."""
    tally = _Tally("decomposition", LAWS)
    for ops, rng, rounds in _models(seed, cases, convex_share=5):
        for _ in range(rounds):
            x, y = ops.random(rng), ops.random(rng)
            tally.law("decomposition", x, ops=ops)
            tally.law("sum = max + min", x, y, ops=ops)
    return tally.report()


def run_norm_suite(seed=0, cases=1000) -> SuiteReport:
    """Unit norm, subadditivity, homogeneity, the ultrametric inequality,
    the spectral split, and order monotonicity, all exact."""
    tally = _Tally("norm", LAWS)
    for ops, rng, rounds in _models(seed, cases, convex_share=5):
        tally.law("r(E) = 1", ops=ops)
        tally.law("r(0) = 0", ops=ops)
        for _ in range(rounds):
            x, y = ops.random(rng), ops.random(rng)
            x2, y2 = ops.random(rng), ops.random(rng)
            q = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            tally.law("subadditivity", x, y, ops=ops)
            tally.law("homogeneity", q, x, ops=ops)
            tally.law("ultrametric", x, y, x2, y2, ops=ops)
            tally.law("spectral split", x, ops=ops)
            t = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            tally.law("order monotonicity", x, y, y2, t, ops=ops)
            dt = Fraction(rng.randint(0, 4), 2)
            tally.law("scaling monotonicity", t, dt, x, ops=ops)
    return tally.report()


def run_convex_suite(seed=0, cases=200) -> SuiteReport:
    """Support-function isomorphism, exact on the merged normal fan
    (``support_mismatch``); the hull union holding both bodies' vertices;
    dual-norm identity, cancellativity, symmetry closure, and the flagged
    euclidean float mode, compared with a float ``hypot`` at 1e-9."""
    tally = _Tally("convex", CONVEX_LAWS)
    rng = random.Random(seed)
    unit = cx.Polygon.square()
    pole = cx.polar(unit)
    for _ in range(cases):
        a, b = cx.random_polygon(rng), cx.random_polygon(rng)
        union = cx.hull_union(a, b)
        tally.law("support isomorphism", a, b, union)
        tally.law("hull-union contains both bodies", a, b, union)
        c = cx.random_polygon(rng)
        tally.law("idempotent hull-union", a)
        tally.law("distributivity", a, b, c)
        ac, bc = cx.minkowski(a, c), cx.minkowski(b, c)
        if ac == bc:
            tally.law("cancellativity", a, b, ac, bc)
        tally.law("symmetrized body is i-invariant", a)
        if cx.i_invariant(a):
            tally.law("i-invariant fixpoint", a)
    for _ in range(500):
        a = cx.random_polygon(rng)
        tally.law("dual norm identity", a, unit, pole)
        tally.law("euclidean mode", a)
    return tally.report()


def run_character_suite(seed=0, cases=1000) -> SuiteReport:
    """Character axioms, the norm bound, exact norm attainment (on
    max(1, cases // 2) functions), separation of distinct characters, and
    the two values that ``prescribe`` sets at two point characters."""
    tally = _Tally("character", CHARACTER_LAWS)
    rng = random.Random(seed)
    unit = cx.Polygon.square()
    for _ in range(cases):
        f, g = _PAF01.random(rng), _PAF01.random(rng)
        phi = sp.PointEval(Fraction(rng.randint(0, 8), 8))
        tally.law("point-character axioms", phi, f, g)
        q = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        tally.law("character homogeneity", phi, q, f)
        tally.law("character monotonicity", phi, f, g)
        a, b = cx.random_polygon(rng), cx.random_polygon(rng)
        tally.law("direction-character axioms", sp.SupportDir(cx.random_direction(rng), unit), a, b)

    for _ in range(max(1, cases // 2)):
        f = _PAF01.random(rng)
        if f.r_norm() == 0:
            f = f + PAF.constant(Fraction(rng.randint(1, 3)), 0, 1)
        tally.law("norm attainment", f)
        tally.law("no character exceeds the norm", f)
        a = cx.random_polygon(rng)
        if a.dim == 0:
            a = cx.Polygon([(0, 0), (1, rng.randint(0, 2))])
        tally.law("convex norm attainment", a, unit)

    for _ in range(200):
        t1 = Fraction(rng.randint(0, 12), 12)
        t2 = Fraction(rng.randint(0, 12), 12)
        if t1 != t2:
            phi1, phi2 = sp.PointEval(t1), sp.PointEval(t2)
            z = sp.separate(phi1, phi2)
            tally.law("separation of points", phi1, phi2, z)
            tally.law("prescribed values", phi1, phi2, z)
        d1, d2 = cx.random_direction(rng), cx.random_direction(rng)
        if d1 != d2:
            tally.law("separation of directions", sp.SupportDir(d1, unit), sp.SupportDir(d2, unit))
    return tally.report()


def run_congruence_suite(seed=0, cases=500) -> SuiteReport:
    """Congruence compatibility, the sandwich rule, quotient-norm equality
    with its constructive representative, lattice/Zariski laws, and the
    extension to fraction pairs."""
    tally = _Tally("congruence", CONGRUENCE_LAWS)
    rng = random.Random(seed)
    for _ in range(cases):
        k = random_closed_set(rng)
        r = cg.RestrictionCongruence(k)
        f, h = _PAF01.random(rng), _PAF01.random(rng)
        g = f + cg.cutoff(_PAF01.random(rng), k)
        tally.law("constructed pair is congruent", r, f, g)
        tally.law("congruence compatibility", r, f, g, h)
        tally.law("difference lies in the zero class", r, f, g)

        # sandwich: a <= b <= c with a, c in the zero class
        a = -(cg.cutoff(_PAF01.random(rng), k).abs())
        c = cg.cutoff(_PAF01.random(rng), k).abs()
        b = c.tropical_min(a.oplus(_PAF01.random(rng)))
        tally.law("sandwich absorption", r, a, b, c)

        qn = cg.quotient_norm(f, k)
        tally.law("minimal representative", r, f, qn)
        tally.law("no representative beats the quotient norm",
                  qn, f + cg.cutoff(_PAF01.random(rng), k))

        # quotient order witness, both directions: high >= f on k but not
        # necessarily off it, so the witness is genuinely needed
        high = f.oplus(g) + cg.cutoff(_PAF01.random(rng), k)
        w = cg.order_witness(f, high, k)
        tally.law("order witness exists", r, f, high, w)
        if w is not None:
            tally.law("witness implies quotient order", r, f, high)

        r2 = cg.RestrictionCongruence(random_closed_set(rng))
        tally.law("Zariski laws", r, r2)
        tally.law("lattice idempotency", r)
        tally.law("join splitting", r, r2, cg.cutoff(_PAF01.random(rng), cg.join(r, r2).k))

        A, B = random_convex_paf(rng), random_convex_paf(rng)
        C = random_convex_paf(rng)
        fr = cg.FractionRestriction(r)
        tally.law("fraction re-representation", fr, A, B, C)
        tally.law("fraction extension restricts back", fr, A, B)
    return tally.report()


def run_valuation_suite(seed=0, cases=500) -> SuiteReport:
    """Valuation laws, the convexity criterion against slope monotonicity
    (on 2 * cases functions), locality, circle sections (cases rounds of a
    constant, a random section and a prescribed kink set; a random section
    is restricted to two arcs and glued back, and its germs read its
    kinks), and the quadratic-point junction check."""
    tally = _Tally("valuation", VALUATION_LAWS)
    rng = random.Random(seed)
    for _ in range(cases):
        x0 = random_interior_point(rng)
        p, q = _PAF01.random(rng), _PAF01.random(rng)
        f = p - PAF.constant(p.eval(x0), 0, 1)
        g = q - PAF.constant(q.eval(x0), 0, 1)
        vf, vg = vl.valuation_at(x0, f), vl.valuation_at(x0, g)
        tally.law("valuation additivity", x0, f, g, vf, vg)
        tally.law("valuation superadditivity", x0, f, g, vf, vg)
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        tally.law("valuation homogeneity", x0, t, f, vf)
        tally.law("split independence", x0, f, random_convex_paf(rng))

        gaps = [abs(t - x0) for t in f.breakpoints if t != x0]
        h = min(gaps + [x0, 1 - x0]) / 2
        if h > 0:
            tally.law("difference quotient", x0, f, h)

        free = vl.smooth_neighborhood(p, x0) if vl.kink(p, x0) == 0 else None
        if free is not None:
            lo, hi = free
            for _ in range(5):
                xs = lo + (hi - lo) * Fraction(rng.randint(1, 7), 8)
                tally.law("kink-free neighborhood", p, xs)

        alpha = Fraction(rng.randint(1, 4), 4)
        beta = Fraction(rng.randint(0, 4), 8)
        if alpha + beta <= 1:
            x_dst = random_interior_point(rng)
            x_src = alpha * x_dst + beta
            tally.law("affine pullbacks are local morphisms", alpha, beta, x_src, x_dst)

    for _ in range(2 * cases):
        tally.law("convexity criterion equals slope monotonicity", _PAF01.random(rng))

    for _ in range(cases):
        tally.law("constants are valid sections",
                  vl.CirclePAF.constant(Fraction(rng.randint(-6, 6), rng.randint(1, 3))))
        cand = random_circle_section(rng)
        if cand is not None:
            tally.law("kinks telescope", cand)
            tally.law("restrictions glue back", cand)
            tally.law("germs read the kinks", cand)
            if vl.circle_section_valid(cand):
                tally.law("valid sections are constant", cand)
        kinks = random_nonneg_kinks(rng)
        if any(k > 0 for _, k in kinks):
            tally.law("no nonconstant valid section", kinks)
    tally.law("global-section property", [random_kink_trial(rng) for _ in range(50)])

    for _ in range(100):
        while True:
            s0 = vl.Quad(Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                         Fraction(rng.randint(1, 2), rng.randint(1, 4)))
            if 0 < s0 < 1:
                break
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        a2 = a + Fraction(rng.randint(1, 3))
        tally.law("rational junctions cannot kink at irrational points", s0, a, b, a2)
        tally.law("discontinuous junction rejected", s0, a, b, a2)
    return tally.report()


SUITES = {
    "semifield": run_semifield_suite,
    "decomposition": run_decomposition_suite,
    "norm": run_norm_suite,
    "convex": run_convex_suite,
    "character": run_character_suite,
    "congruence": run_congruence_suite,
    "valuation": run_valuation_suite,
}


def run_suite(name: str, seed=0, cases=None) -> SuiteReport:
    if name not in SUITES:
        raise PreconditionError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed) if cases is None else SUITES[name](seed, as_nat(cases, 1))

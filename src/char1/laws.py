"""Seeded property suites with brute-force oracles.

Each suite draws random elements from small exact grids, checks the
algebraic laws and norm identities with exact equality (tolerance zero),
and reports pass/fail counts plus the first counterexample verbatim.
The CLI's laws-run verb and the acceptance tests both run these.  The
semifield, decomposition and norm suites check the laws of
``semifield.LAWS`` on every model of ``_INSTANCES``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import congruence as cg
from . import convex as cx
from . import spectrum as sp
from . import valuation as vl
from .paf import PAF, PAFSemifield, convex_split, random_paf
from .scalars import Value
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
    def __init__(self, name):
        self.name = name
        self.cases = 0
        self.failed = 0
        self.first = None

    def check(self, ok: bool, label: str, *args):
        self.cases += 1
        if not ok:
            self.failed += 1
            if self.first is None:
                shown = ", ".join(repr(a) for a in args)
                self.first = f"{label}: {shown}" if shown else label

    def law(self, model: str, ops, name: str, *args):
        """Check ``LAWS[name]`` on ``ops`` at ``args``, labelled by model and
        law; a counterexample shows exactly the law's arguments."""
        self.check(LAWS[name](ops, *args), f"{model}: {name}", *args)

    def report(self) -> SuiteReport:
        return SuiteReport(self.name, self.cases, self.failed, self.first)


# -- extra generators -----------------------------------------------------------


def random_convex_paf(rng, lo=0, hi=1, max_cuts=3) -> PAF:
    k = rng.randint(0, max_cuts)
    den = rng.randint(2, 6)
    cuts = sorted(rng.sample(range(1, 2 * den), min(k, 2 * den - 1)))
    ts = [lo] + [lo + (hi - lo) * Fraction(c, 2 * den) for c in cuts] + [hi]
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
    return cg.ClosedSet.of(*ivs) if ivs else cg.ClosedSet.point(lo)


def random_interior_point(rng, den_max=8) -> Fraction:
    den = rng.randint(2, den_max)
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


_INSTANCES = {
    "scalar": lambda: SCALAR,
    "paf": lambda: PAFSemifield(0, 1),
    "convex-fraction": lambda: cx.PolygonFractionSemifield(),
}


def _models(seed, cases, convex_share):
    """(model, ops, rng, rounds) for each model of ``_INSTANCES``, each with
    its own seeded stream.  The convex-fraction model, the slowest, runs
    ``max(1, cases // convex_share)`` rounds when ``convex_share`` > 1."""
    for model, make in _INSTANCES.items():
        ops = make()
        rounds = cases
        if model == "convex-fraction" and convex_share > 1:
            rounds = max(1, cases // convex_share)
        yield model, ops, random.Random(f"{seed}:{model}"), rounds


# -- suites ----------------------------------------------------------------------


def run_semifield_suite(seed=0, cases=1000) -> SuiteReport:
    """Idempotent-sum laws, distributivity, perfectness and the n-th power
    identity, on the scalar, piecewise-affine and convex-fraction models."""
    tally = _Tally("semifield")
    for model, ops, rng, rounds in _models(seed, cases, convex_share=1):
        for _ in range(rounds):
            x, y, z = ops.random(rng), ops.random(rng), ops.random(rng)
            tally.law(model, ops, "semifield law", x, y, z)
            tally.law(model, ops, "power identity", rng.randint(1, 5), x, y)
            tally.law(model, ops, "perfectness", rng.randint(1, 4), x)
    return tally.report()


def run_decomposition_suite(seed=0, cases=1000) -> SuiteReport:
    """Positive/negative part reassembly and the max-plus-min identity."""
    tally = _Tally("decomposition")
    for model, ops, rng, rounds in _models(seed, cases, convex_share=5):
        for _ in range(rounds):
            x, y = ops.random(rng), ops.random(rng)
            tally.law(model, ops, "decomposition", x)
            tally.law(model, ops, "sum = max + min", x, y)
    return tally.report()


def run_norm_suite(seed=0, cases=1000) -> SuiteReport:
    """Unit norm, subadditivity, homogeneity, the ultrametric inequality,
    the spectral split, and order monotonicity, all exact."""
    tally = _Tally("norm")
    for model, ops, rng, rounds in _models(seed, cases, convex_share=5):
        tally.law(model, ops, "r(E) = 1")
        tally.law(model, ops, "r(0) = 0")
        for _ in range(rounds):
            x, y = ops.random(rng), ops.random(rng)
            x2, y2 = ops.random(rng), ops.random(rng)
            q = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            tally.law(model, ops, "subadditivity", x, y)
            tally.law(model, ops, "homogeneity", q, x)
            tally.law(model, ops, "ultrametric", x, y, x2, y2)
            tally.law(model, ops, "spectral split", x)
            t = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            tally.law(model, ops, "order monotonicity", x, y, y2, t)
            dt = Fraction(rng.randint(0, 4), 2)
            tally.law(model, ops, "scaling monotonicity", t, dt, x)
    return tally.report()


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


def run_convex_suite(seed=0, cases=200) -> SuiteReport:
    """Support-function isomorphism, exact on the merged normal fan
    (``support_mismatch``); dual-norm identity, cancellativity, symmetry
    closure, and the flagged euclidean float mode (the correctly rounded
    largest vertex norm), compared with a float ``hypot`` at 1e-9."""
    tally = _Tally("convex")
    rng = random.Random(seed)
    unit = cx.Polygon.square()
    pole = cx.polar(unit)
    for _ in range(cases):
        a, b = cx.random_polygon(rng), cx.random_polygon(rng)
        mismatch = support_mismatch(a, b, cx.hull_union(a, b), cx.minkowski(a, b))
        if mismatch is None:
            tally.check(True, "support isomorphism")
        else:
            label, ray = mismatch
            tally.check(False, label, a, b, ray)
        c = cx.random_polygon(rng)
        tally.check(cx.hull_union(a, a) == a, "idempotent hull-union", a)
        tally.check(cx.minkowski(a, cx.hull_union(b, c))
                    == cx.hull_union(cx.minkowski(a, b), cx.minkowski(a, c)),
                    "distributivity", a, b, c)
        if cx.minkowski(a, c) == cx.minkowski(b, c):
            tally.check(a == b, "cancellativity", a, b, c)
        sym = cx.i_symmetrize(a)
        tally.check(cx.i_invariant(sym), "symmetrized body is i-invariant", a)
        if cx.i_invariant(a):
            tally.check(cx.i_symmetrize(a) == a, "i-invariant fixpoint", a)
    for _ in range(500):
        a = cx.random_polygon(rng)
        dual = max(a.support(v) for v in pole.vertices)
        tally.check(cx.r_norm_body(a, unit) == dual, "dual norm identity", a)
        approx = cx.r_norm_euclidean(a)
        brute = max(math.hypot(float(x), float(y)) for x, y in a.vertices)
        tally.check(abs(approx - brute) <= 1e-9, "euclidean mode", a)
    return tally.report()


def run_character_suite(seed=0, cases=1000) -> SuiteReport:
    """Character axioms, the norm bound, exact norm attainment (on
    max(1, cases // 2) functions), and separation of distinct characters."""
    tally = _Tally("character")
    rng = random.Random(seed)
    paf_ops = PAFSemifield(0, 1)
    unit = cx.Polygon.square()
    for _ in range(cases):
        f, g = paf_ops.random(rng), paf_ops.random(rng)
        phi = sp.PointEval(Fraction(rng.randint(0, 8), 8))
        ok = (
            sp.apply_char(phi, f.oplus(g)) == max(sp.apply_char(phi, f),
                                                  sp.apply_char(phi, g))
            and sp.apply_char(phi, f + g) == sp.apply_char(phi, f) + sp.apply_char(phi, g)
            and sp.apply_char(phi, paf_ops.unit) == 1
            and abs(sp.apply_char(phi, f)) <= f.r_norm()
        )
        tally.check(ok, "point-character axioms", phi, f, g)
        q = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        tally.check(sp.apply_char(phi, f.scale(q)) == q * sp.apply_char(phi, f),
                    "character homogeneity", phi, q, f)
        tally.check(sp.apply_char(phi, f) <= sp.apply_char(phi, f.oplus(g)),
                    "character monotonicity", phi, f, g)

        a, b = cx.random_polygon(rng), cx.random_polygon(rng)
        psi = sp.SupportDir(cx.random_direction(rng), unit)
        ok = (
            sp.apply_char(psi, cx.hull_union(a, b))
            == max(sp.apply_char(psi, a), sp.apply_char(psi, b))
            and sp.apply_char(psi, cx.minkowski(a, b))
            == sp.apply_char(psi, a) + sp.apply_char(psi, b)
            and sp.apply_char(psi, unit) == 1
        )
        tally.check(ok, "direction-character axioms", psi, a, b)

    for _ in range(max(1, cases // 2)):
        f = paf_ops.random(rng)
        if f.r_norm() == 0:
            f = f + PAF.constant(Fraction(rng.randint(1, 3)), 0, 1)
        phi = sp.attain_norm(f)
        tally.check(abs(sp.apply_char(phi, f)) == f.r_norm(), "norm attainment", f)
        peak = f.r_norm()
        grid_ok = all(abs(sp.apply_char(sp.PointEval(Fraction(i, 24)), f)) <= peak
                      for i in range(25))
        tally.check(grid_ok, "no character exceeds the norm", f)

        a = cx.random_polygon(rng)
        if a.dim == 0:
            a = cx.Polygon.hull([(0, 0), (1, rng.randint(0, 2))])
        psi = sp.attain_norm(a, unit)
        tally.check(abs(sp.apply_char(psi, a)) == cx.r_norm_body(a, unit),
                    "convex norm attainment", a)

    for _ in range(200):
        t1 = Fraction(rng.randint(0, 12), 12)
        t2 = Fraction(rng.randint(0, 12), 12)
        if t1 != t2:
            z = sp.separate(sp.PointEval(t1), sp.PointEval(t2))
            tally.check(z.eval(t1) != z.eval(t2), "separation of points", t1, t2)
        d1, d2 = cx.random_direction(rng), cx.random_direction(rng)
        if d1 != d2:
            p1, p2 = sp.SupportDir(d1, unit), sp.SupportDir(d2, unit)
            z = sp.separate(p1, p2)
            tally.check(sp.apply_char(p1, z) != sp.apply_char(p2, z),
                        "separation of directions", d1, d2)
    return tally.report()


def run_congruence_suite(seed=0, cases=500) -> SuiteReport:
    """Congruence compatibility, the sandwich rule, quotient-norm equality
    with its constructive representative, lattice/Zariski laws, and the
    extension to fraction pairs."""
    tally = _Tally("congruence")
    rng = random.Random(seed)
    paf_ops = PAFSemifield(0, 1)
    zero = PAF.constant(0, 0, 1)
    for _ in range(cases):
        k = random_closed_set(rng)
        r = cg.RestrictionCongruence(k)
        f, h = paf_ops.random(rng), paf_ops.random(rng)
        g = f + cg.cutoff(paf_ops.random(rng), k)
        tally.check(cg.related(r, f, g), "constructed pair is congruent", k, f, g)
        tally.check(cg.related(r, f + h, g + h) and cg.related(r, f.oplus(h), g.oplus(h))
                    and cg.related(r, -f, -g),
                    "congruence compatibility", k, f, g, h)
        tally.check(cg.related(r, f, g) == cg.class_of_zero_contains(r, f - g),
                    "difference lies in the zero class", k, f, g)

        # sandwich: a <= b <= c with a, c in the zero class
        a = -(cg.cutoff(paf_ops.random(rng), k).abs())
        c = cg.cutoff(paf_ops.random(rng), k).abs()
        b = c.tropical_min(a.oplus(paf_ops.random(rng)))
        tally.check(cg.sandwich(cg.RestrictionCongruence(k), a, b, c),
                    "sandwich absorption", k, a, b, c)

        # quotient norm and the clamped representative
        qn = cg.quotient_norm(f, k)
        rep = cg.min_representative(f, k)
        tally.check(cg.related(r, rep, f) and rep.r_norm() == qn,
                    "minimal representative", k, f)
        rival = f + cg.cutoff(paf_ops.random(rng), k)
        tally.check(rival.r_norm() >= qn, "no representative beats the quotient norm",
                    k, f, rival)

        # quotient order witness, both directions: high >= f on k but not
        # necessarily off it, so the witness is genuinely needed
        high = f.oplus(g) + cg.cutoff(paf_ops.random(rng), k)
        w = cg.order_witness(f, high, k)
        tally.check(w is not None and cg.class_of_zero_contains(r, w)
                    and f.oplus(high + w) == high + w,
                    "order witness exists", k, f, g)
        if w is not None:
            tally.check(cg.related(r, f.oplus(high), high),
                        "witness implies quotient order", k, f, g)

        # lattice and Zariski laws
        k2 = random_closed_set(rng)
        r2 = cg.RestrictionCongruence(k2)
        tally.check(cg.zariski_laws(r, r2), "Zariski laws", k, k2)
        tally.check(cg.join(r, r).k == k and cg.meet(r, r).k == k, "lattice idempotency", k)

        # constructive splitting along the join
        f0 = cg.cutoff(paf_ops.random(rng), cg.join(r, r2).k)
        f1, f2 = cg.split_vanishing(f0, r, r2)
        tally.check(cg.related(r, f1, zero) and cg.related(r2, f2, zero)
                    and f1 + f2 == f0,
                    "join splitting", k, k2, f0)

        # extension to fraction pairs over convex functions
        A, B = random_convex_paf(rng), random_convex_paf(rng)
        C = random_convex_paf(rng)
        fr = cg.FractionRestriction(r)
        tally.check(fr.related((A, B), (A + C, B + C)),
                    "fraction re-representation", k, A, B, C)
        tally.check(fr.related((A, zero), (B, zero)) == cg.related(r, A, B),
                    "fraction extension restricts back", k, A, B)
    return tally.report()


def run_valuation_suite(seed=0, cases=500) -> SuiteReport:
    """Valuation laws, the convexity criterion against slope monotonicity
    (on 2 * cases functions), locality, circle sections (cases rounds of a
    constant, a random section and a prescribed kink set), and the
    quadratic-point junction check."""
    tally = _Tally("valuation")
    rng = random.Random(seed)
    paf_ops = PAFSemifield(0, 1)
    for _ in range(cases):
        x0 = random_interior_point(rng)
        p, q = paf_ops.random(rng), paf_ops.random(rng)
        f = p - PAF.constant(p.eval(x0), 0, 1)
        g = q - PAF.constant(q.eval(x0), 0, 1)
        vf, vg = vl.valuation_at(x0, f), vl.valuation_at(x0, g)
        tally.check(vl.valuation_at(x0, f + g) == vf + vg,
                    "valuation additivity", x0, p, q)
        tally.check(max(vf, vg) <= vl.valuation_at(x0, f.oplus(g)),
                    "valuation superadditivity", x0, p, q)
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        tally.check(vl.valuation_at(x0, f.scale(t)) == t * vf,
                    "valuation homogeneity", x0, t, p)

        # independence of the convex decomposition
        pos, negp = convex_split(f)
        extra = random_convex_paf(rng)
        lhs = vl.kink(pos + extra, x0) - vl.kink(negp + extra, x0)
        tally.check(lhs == vl.kink(f, x0), "split independence", x0, p)

        # difference-quotient oracle for the kink
        gaps = [abs(t - x0) for t in f.breakpoints if t != x0]
        h = min(gaps + [x0, 1 - x0]) / 2
        if h > 0:
            quotient = (f.eval(x0 - h) + f.eval(x0 + h)) / h
            tally.check(quotient == vl.kink(f, x0), "difference quotient", x0, p, h)

        # locality of the kink-free condition
        free = vl.smooth_neighborhood(p, x0) if vl.kink(p, x0) == 0 else None
        if free is not None:
            lo, hi = free
            for _ in range(5):
                span = hi - lo
                xs = lo + span * Fraction(rng.randint(1, 7), 8)
                tally.check(vl.is_local_unit(p, xs), "kink-free neighborhood", x0, p, xs)

        # local morphisms from affine pullbacks
        alpha = Fraction(rng.randint(1, 4), 4)
        beta = Fraction(rng.randint(0, 4), 8)
        if alpha + beta <= 1:
            x_dst = random_interior_point(rng)
            x_src = alpha * x_dst + beta
            tally.check(vl.local_morphism_check(alpha, beta, x_src, x_dst),
                        "affine pullbacks are local morphisms", alpha, beta, x_dst)

    for _ in range(2 * cases):
        f = paf_ops.random(rng)
        tally.check(vl.convexity_criterion(f) == f.is_convex(),
                    "convexity criterion equals slope monotonicity", f)

    for _ in range(cases):
        s = vl.CirclePAF.constant(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        tally.check(vl.circle_section_valid(s) and s.is_constant(),
                    "constants are valid sections", s)
        cand = random_circle_section(rng)
        if cand is not None:
            tally.check(vl.circle_kink_sum(cand) == 0, "kinks telescope", cand)
            if vl.circle_section_valid(cand):
                tally.check(cand.is_constant(), "valid sections are constant", cand)
        spots = sorted(rng.sample(range(1, 12), rng.randint(1, 3)))
        kinks = [(Fraction(s_, 12), Fraction(rng.randint(0, 3))) for s_ in spots]
        if any(k > 0 for _, k in kinks):
            built = vl.try_nonconstant_valid_section(kinks)
            tally.check(built is None or built.is_constant(),
                        "no nonconstant valid section", kinks)
    tally.check(vl.circle_global_sections_are_constant(rng, trials=50),
                "global-section property")

    for _ in range(100):
        while True:
            p0 = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            q0 = Fraction(rng.randint(1, 2), rng.randint(1, 4))
            s0 = vl.Quad(p0, q0)
            if 0 < s0 < 1:
                break
        aa = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        bb = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        tally.check(vl.k_defined_check(s0, (aa, bb), (aa, bb)),
                    "rational junctions cannot kink at irrational points", s0, aa, bb)
        aa2 = aa + Fraction(rng.randint(1, 3))
        try:
            vl.k_defined_check(s0, (aa, bb), (aa2, bb))
            tally.check(False, "discontinuous junction accepted", s0, aa, aa2)
        except PreconditionError:
            tally.check(True, "discontinuous junction rejected")
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
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    kwargs = {"seed": seed}
    if cases is not None:
        kwargs["cases"] = cases
    return SUITES[name](**kwargs)

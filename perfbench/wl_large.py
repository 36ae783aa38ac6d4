"""The ``large`` workload: seeded large elements at three sizes each.

PAFs with about 16, 128 and 512 breakpoints on a 1e-6 grid; polygons and
fraction bodies with about 8, 32 and 64 vertices; and one fold chain of
oplus / + / scale whose coefficients grow past 400 bits.  Calls are split
into build calls (which make a new element) and query calls (which read
one), so that a representation change that speeds one side and slows the
other shows on both.  The loop calls the models directly and so bypasses
``cli``, ``scalars``, ``semifield`` and ``laws``.  Every pass makes the same
calls on the same inputs, so a cache keyed on inputs would hit from the
second pass on.  The calls whose cost depends most on the input (norm
attainment on fraction bodies, which scans its candidates a second time up
to the first that reaches the maximum, and the fold chain, whose growth
depends on how many crossings each step keeps) take their inputs from
``ROTATE`` sets in turn, so that a run averages over several inputs of each
rather than resting on one draw.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

from . import common
from . import oracles as orc

PAF_SIZES = (16, 128, 512)
POLY_SIZES = (8, 32, 64)
GRID = 10**6
CHAIN_STEPS = 40

# Calls per pass for each (name, size).  Chosen from measured per-call times
# so that no single kind takes more than about a third of the pass: the
# quadratic kinds get one call at their largest size, and the convexity
# criterion, which re-scans the whole function at every breakpoint (about
# 6 s at 512 breakpoints), none.
COUNTS = {
    "paf.oplus": (24, 4, 1),
    "paf.add": (24, 4, 1),
    "paf.scale": (24, 4, 1),
    "paf.clamp": (12, 2, 1),
    "convex.minkowski": (12, 6, 2),
    "convex.hull_union": (24, 6, 3),
    "convex.frac_oplus": (6, 1, 1),
    "paf.eval": (60, 30, 15),
    "paf.r_norm": (24, 4, 1),
    "congruence.quotient_norm": (24, 4, 1),
    "spectrum.attain_norm": (6, 1, 1),
    "valuation.convexity_criterion": (12, 1, 0),
    "convex.support": (60, 30, 15),
    "convex.r_norm_body": (24, 6, 3),
    "convex.r_norm_frac": (6, 1, 1),
}

# Passes take the inputs of norm attainment on fraction bodies and of the
# fold chain from this many seeded sets in turn; every other call has one
# input.
ROTATE = 4

BUILD = {"paf.oplus", "paf.add", "paf.scale", "paf.clamp",
         "convex.minkowski", "convex.hull_union", "convex.frac_oplus"}


@dataclass
class Call:
    name: str
    size: int | str  # "chain" for the fold chain
    variants: tuple  # one args tuple per input set; pass ``turn`` uses ``args(turn)``

    def key(self, turn: int) -> int:
        return turn % len(self.variants)

    def args(self, turn: int = 0) -> tuple:
        return self.variants[self.key(turn)]


def _grid_points(rng, n):
    return [Fraction(0)] + [Fraction(c, GRID) for c in sorted(rng.sample(range(1, GRID), n - 2))] \
        + [Fraction(1)]


def random_big_paf(paf, rng, n):
    """About n breakpoints on the 1e-6 grid, values in [-1, 1] at 1e-3 steps."""
    ts = _grid_points(rng, n)
    return paf.PAF.from_samples([(t, Fraction(rng.randint(-1000, 1000), 1000)) for t in ts])


def random_convex_big_paf(paf, rng, n):
    """A convex PAF: sorted slopes integrated from a random start."""
    ts = _grid_points(rng, n)
    slopes = sorted(Fraction(rng.randint(-10**4, 10**4), 1000) for _ in range(n - 1))
    samples = [(ts[0], Fraction(rng.randint(-1000, 1000), 1000))]
    for (u, v), a in zip(zip(ts, ts[1:]), slopes):
        samples.append((v, samples[-1][1] + a * (v - u)))
    return paf.PAF.from_samples(samples)


def random_big_polygon(cx, rng, n):
    """About n lattice points near a circle about the origin, over a fixed
    denominator; the hull keeps most of them and contains the origin."""
    radius, den = 10**4, 7
    pts = []
    for k in range(n):
        theta = 2 * math.pi * (k + rng.random() * 0.8) / n
        pts.append((Fraction(round(radius * math.cos(theta)), den),
                    Fraction(round(radius * math.sin(theta)), den)))
    return cx.Polygon(tuple(pts))


def random_closed_set(cg, rng):
    cuts = sorted(rng.sample(range(0, GRID + 1), 6))
    return cg.ClosedSet(tuple((Fraction(cuts[i], GRID), Fraction(cuts[i + 1], GRID))
                              for i in range(0, 6, 2)))


def make_inputs(mods, seed):
    """Every call of one pass, with its arguments, from the seed alone."""
    paf, cx, cg = mods["paf"], mods["convex"], mods["congruence"]
    rng = random.Random(f"large:{seed}")
    unit = cx.Polygon.square()
    calls = []

    def add(name, size, *args):
        calls.append(Call(name, size, (args,)))

    def add_varied(name, size, make):
        calls.append(Call(name, size, tuple(make() for _ in range(ROTATE))))

    for i, n in enumerate(PAF_SIZES):
        for _ in range(COUNTS["paf.oplus"][i]):
            add("paf.oplus", n, random_big_paf(paf, rng, n), random_big_paf(paf, rng, n))
        for _ in range(COUNTS["paf.add"][i]):
            add("paf.add", n, random_big_paf(paf, rng, n), random_big_paf(paf, rng, n))
        for _ in range(COUNTS["paf.scale"][i]):
            q = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
            add("paf.scale", n, random_big_paf(paf, rng, n), q)
        for _ in range(COUNTS["paf.clamp"][i]):
            add("paf.clamp", n, random_big_paf(paf, rng, n), Fraction(rng.randint(1, 999), 1000))
        for _ in range(COUNTS["paf.eval"][i]):
            add("paf.eval", n, random_big_paf(paf, rng, n), Fraction(rng.randint(0, 7**8), 7**8))
        for _ in range(COUNTS["paf.r_norm"][i]):
            add("paf.r_norm", n, random_big_paf(paf, rng, n))
        for _ in range(COUNTS["congruence.quotient_norm"][i]):
            add("congruence.quotient_norm", n, random_big_paf(paf, rng, n),
                random_closed_set(cg, rng))
        for _ in range(COUNTS["spectrum.attain_norm"][i]):
            add("spectrum.attain_norm", n, random_big_paf(paf, rng, n))
        for _ in range(COUNTS["valuation.convexity_criterion"][i]):
            add("valuation.convexity_criterion", n, random_convex_big_paf(paf, rng, n))

    for i, n in enumerate(POLY_SIZES):
        def poly():
            return random_big_polygon(cx, rng, n)

        def frac():
            return cx.FracBody(poly(), poly())

        for _ in range(COUNTS["convex.minkowski"][i]):
            add("convex.minkowski", n, poly(), poly())
        for _ in range(COUNTS["convex.hull_union"][i]):
            add("convex.hull_union", n, poly(), poly())
        for _ in range(COUNTS["convex.frac_oplus"][i]):
            add("convex.frac_oplus", n, frac(), frac())
        for _ in range(COUNTS["convex.support"][i]):
            add("convex.support", n, poly(), (rng.randint(-99, 99), rng.randint(1, 99)))
        for _ in range(COUNTS["convex.r_norm_body"][i]):
            add("convex.r_norm_body", n, poly(), unit)
        for _ in range(COUNTS["convex.r_norm_frac"][i]):
            add("convex.r_norm_frac", n, frac(), unit)
        for _ in range(COUNTS["spectrum.attain_norm"][i]):
            add_varied("spectrum.attain_norm", n, lambda: (frac(), unit))

    def chain():
        steps = [(random_big_paf(paf, rng, 4), random_big_paf(paf, rng, 4),
                  Fraction(rng.randint(900, 1100) | 1, rng.randint(2**9, 2**10) | 1))
                 for _ in range(CHAIN_STEPS)]
        return random_big_paf(paf, rng, PAF_SIZES[0]), steps

    return {"calls": calls, "chains": [chain() for _ in range(ROTATE)]}


def operations(mods):
    """name -> callable; module attributes are looked up at call time, so a
    wrapper installed by the tracer is the one that runs."""
    cx, sp, cg, vl = mods["convex"], mods["spectrum"], mods["congruence"], mods["valuation"]
    return {
        "paf.oplus": lambda f, g: f.oplus(g),
        "paf.add": lambda f, g: f + g,
        "paf.scale": lambda f, q: f.scale(q),
        "paf.clamp": lambda f, c: f.clamp(c),
        "convex.minkowski": lambda a, b: cx.minkowski(a, b),
        "convex.hull_union": lambda a, b: cx.hull_union(a, b),
        "convex.frac_oplus": lambda x, y: cx.frac_oplus(x, y),
        "paf.eval": lambda f, t: f.eval(t),
        "paf.r_norm": lambda f: f.r_norm(),
        "congruence.quotient_norm": lambda f, k: cg.quotient_norm(f, k),
        "spectrum.attain_norm": lambda x, e=None: sp.attain_norm(x, e),
        "valuation.convexity_criterion": lambda f: vl.convexity_criterion(f),
        "convex.support": lambda a, psi: a.support(psi),
        "convex.r_norm_body": lambda a, e: cx.r_norm_body(a, e),
        "convex.r_norm_frac": lambda x, e: cx.r_norm_frac(x, e),
    }


def check(name, args, out) -> bool:
    """The oracle for one call; ``spectrum.attain_norm`` checks by model."""
    if name == "spectrum.attain_norm":
        x = args[0]
        return orc.check_attain_paf(x, out) if len(args) == 1 else orc.check_attain_frac(x, out)
    return ORACLES[name](*args, out)


ORACLES = {
    "paf.oplus": orc.check_oplus,
    "paf.add": orc.check_add,
    "paf.scale": orc.check_scale,
    "paf.clamp": orc.check_clamp,
    "convex.minkowski": orc.check_minkowski,
    "convex.hull_union": orc.check_hull_union,
    "convex.frac_oplus": orc.check_frac_oplus,
    "paf.eval": orc.check_eval,
    "paf.r_norm": orc.check_r_norm,
    "congruence.quotient_norm": orc.check_quotient_norm,
    "valuation.convexity_criterion": orc.check_convexity,
    "convex.support": orc.check_support,
    "convex.r_norm_body": lambda a, e, out: orc.check_r_norm_body_square(a, out),
    "convex.r_norm_frac": lambda x, e, out: orc.check_r_norm_frac_square(x, out),
}


# -- running -----------------------------------------------------------------------


def run_pass(ops, inputs, samples=None, turn=0):
    """One pass: every static call, then the fold chain, on the inputs of
    set ``turn``.  Returns [(call, key, output, error)], where ``key`` is the
    input set the call used; appends (name, size, key, seconds) to
    ``samples``."""
    done = []

    def timed(call, key):
        fn = ops[call.name]
        t0 = time.perf_counter()
        try:
            out, err = fn(*call.args(key)), None
        except Exception as exc:  # a call that raises is a failed call
            out, err = None, exc
        dt = time.perf_counter() - t0
        if samples is not None:
            samples.append((call.name, call.size, key, dt))
        done.append((call, key, out, err))
        return out

    for call in inputs["calls"]:
        timed(call, call.key(turn))
    chains = inputs["chains"]
    key = turn % len(chains)
    f, steps = chains[key]
    for g, h, q in steps:
        f = timed(Call("paf.oplus", "chain", ((f, g),)), key)
        f = f if f is None else timed(Call("paf.add", "chain", ((f, h),)), key)
        f = f if f is None else timed(Call("paf.scale", "chain", ((f, q),)), key)
        if f is None:
            break
    return done


def check_pass(done, new_only=False) -> int:
    """Failed calls of one pass, by the oracles; with ``new_only``, only the
    calls that used an input set other than the first."""
    failed = 0
    for call, key, out, err in done:
        if new_only and not key:
            continue
        try:
            ok = err is None and check(call.name, call.args(key), out)
        except Exception:  # an oracle that cannot read the output rejects it
            ok = False
        failed += not ok
    return failed


def run_for(mods, inputs, seconds: float):
    """Whole passes until the time is up, and at least one on each input
    set, with speed probes before each pass and after the last:
    (per-pass [(name, size, key, seconds)], probe seconds, failed calls).
    The first pass on each set is checked by the oracles after the loop;
    later passes must reproduce its outputs."""
    ops = operations(mods)
    passes, probes = [], []
    first = []
    failed = 0
    t_end = time.perf_counter() + seconds
    while len(passes) < ROTATE or time.perf_counter() < t_end:
        probes += common.probes()
        turn = len(passes)
        samples = []
        done = run_pass(ops, inputs, samples, turn)
        passes.append(samples)
        if turn < ROTATE:
            first.append(done)
            continue
        ref = first[turn % ROTATE]
        failed += len(done) if len(done) != len(ref) else sum(
            err is not None or out != ref[i][2] for i, (_, _, out, err) in enumerate(done))
    probes += common.probes()
    failed += sum(check_pass(done, new_only=turn > 0) for turn, done in enumerate(first))
    return passes, probes, failed


def rates(passes, probes):
    """Figures from the passes of one run.  Every pass makes the same calls,
    so each call has one time per pass; for each input set it used, its
    best (smallest) time is taken, as the one least slowed by other load on
    the machine, and the call's time is the mean of those over its sets,
    scaled to nominal speed by the run's best probe.  A rate is calls over
    the sum of their times; the latencies are the times."""
    scale = common.speed_scale(probes)
    calls = min(len(p) for p in passes)
    times = []
    for i in range(calls):
        best = {}
        for p in passes:
            _, _, key, dt = p[i]
            best[key] = min(dt, best.get(key, dt))
        times.append((passes[0][i][0], statistics.fmean(best.values()) * scale))

    def per_s(keep):
        picked = [t for name, t in times if keep(name)]
        return len(picked) / sum(picked)
    return {
        "ops_per_s": per_s(lambda n: True),
        "build_ops_per_s": per_s(lambda n: n in BUILD),
        "query_ops_per_s": per_s(lambda n: n not in BUILD),
        "latencies_s": [t for _, t in times],
        "speed_scale": scale,
    }

"""The ``laws`` workload: the seven seeded law suites through ``run_suite``.

Every suite runs at one uniform fraction of the acceptance gate's case
counts, so the mix of suites is the gate's own.  This is the only workload
that drives ``semifield`` and ``laws``; its elements are tiny (at most 3
cuts or 4 vertices), so per-call overhead dominates.  A round is one
``run_suite`` call; a cycle is one round of each suite, and the loop only
stops between cycles so that every run has the same mix.  Every round
draws new elements (its suite seed is derived from the run seed and the
round), so no two rounds share inputs.
"""

from __future__ import annotations

import statistics
import time

from . import common

# The acceptance gate's case counts (tests/test_acceptance.py).
ACCEPTANCE_CASES = {"semifield": 1000, "decomposition": 1000, "norm": 1000,
                    "character": 1000, "congruence": 500, "convex": 200,
                    "valuation": 500}
FRACTION = 40  # every suite at 1/40 of its acceptance count
MIN_ROUNDS = 100  # about 14 rounds of each suite, however short the run
# Suites whose laws build elements (sums, hulls, decompositions) against
# those that mostly read them (norms, characters, quotients, valuations).
BUILD_SUITES = {"semifield", "decomposition", "convex"}


def make_inputs(mods, seed):
    """The suite schedule; suite seeds are derived per round from the seed."""
    if set(ACCEPTANCE_CASES) != set(mods["laws"].SUITES):
        raise RuntimeError(f"char1 has suites {sorted(mods['laws'].SUITES)}")
    return {"seed": seed,
            "cycle": [(name, max(1, n // FRACTION)) for name, n in ACCEPTANCE_CASES.items()]}


def run_cycle(mods, inputs, index: int, rounds: list):
    """One round of every suite; appends (cycle, suite, seconds, cases, failed)."""
    run_suite = mods["laws"].run_suite
    for pos, (name, cases) in enumerate(inputs["cycle"]):
        seed = inputs["seed"] * 1_000_003 + index * len(inputs["cycle"]) + pos
        t0 = time.perf_counter()
        try:
            report = run_suite(name, seed=seed, cases=cases)
        except Exception:  # a suite that raises counts as one failed case
            rounds.append((index, name, time.perf_counter() - t0, 1, 1))
            continue
        rounds.append((index, name, time.perf_counter() - t0, report.cases, report.failed))


def run_for(mods, inputs, seconds: float):
    """Whole cycles until both the time and the minimum round count are
    reached, with speed probes before each cycle and after the last:
    (rounds, [probe seconds at each cycle boundary])."""
    rounds, probes = [], []
    t_end = time.perf_counter() + seconds
    cycle = 0
    while time.perf_counter() < t_end or len(rounds) < MIN_ROUNDS:
        probes.append(common.probes())
        run_cycle(mods, inputs, cycle, rounds)
        cycle += 1
    probes.append(common.probes())
    return rounds, probes


def rates(rounds, probes):
    """End-to-end figures from the rounds of one run.  Each round's time is
    scaled to nominal speed by the best probe at either end of its cycle.
    A rate is the median over cycles of that cycle's cases per second, so a
    burst of load on the machine moves only the cycles it hits.  The p50 is
    the median over the suites of each suite's median round.  The p90 is
    that p50 times the 90th percentile, pooled over all rounds, of a round's
    time over its own suite's median: pooled raw times would put the p90 in
    the tail of whichever suite is slowest, and one suite's rounds are too
    few (about 27 in a 35-s run) for ten to lie beyond its own p90."""
    scale = [common.speed_scale(a + b) for a, b in zip(probes, probes[1:])]
    scaled = [(cycle, suite, secs * scale[cycle], cases, failed)
              for cycle, suite, secs, cases, failed in rounds]

    def per_s(keep):
        per_cycle = {}
        for cycle, suite, secs, cases, _ in scaled:
            if keep(suite):
                c, s = per_cycle.get(cycle, (0, 0.0))
                per_cycle[cycle] = (c + cases, s + secs)
        return statistics.median(c / s for c, s in per_cycle.values())

    by_suite = {}
    for _, suite, secs, _, _ in scaled:
        by_suite.setdefault(suite, []).append(secs)
    medians = {suite: statistics.median(v) for suite, v in by_suite.items()}
    p50 = statistics.median(medians.values())
    relative = [secs / medians[suite] for _, suite, secs, _, _ in scaled]
    return {
        "ops_per_s": per_s(lambda s: True),
        "build_ops_per_s": per_s(lambda s: s in BUILD_SUITES),
        "query_ops_per_s": per_s(lambda s: s not in BUILD_SUITES),
        "latency_p50_s": p50,
        "latency_p90_s": p50 * common.p90(relative),
        "attempted": sum(r[3] for r in rounds),
        "failed": sum(r[4] for r in rounds),
        "speed_scale": statistics.median(scale),
    }

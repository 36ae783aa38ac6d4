"""Per-layer figures of a traced run.

A traced run repeats one fixed pass of every workload three times: plain
(the base of the tracing overhead), with span wrappers installed, and
under cProfile for the number kernel.  Every pass does the same work, so
call counts repeat exactly for a seed.  Counts and times add up over the
three workloads, so every layer is reached.
"""

from __future__ import annotations

import time

from . import metrics, spans
from .oracles import crossing


def traced_passes(mods, one_pass):
    """Run ``one_pass(tracer)`` plain, traced and profiled.

    Returns (first result, tracer, kernel figures, overhead ratio), where the
    ratio is traced ops/s divided by plain ops/s over the same work.
    """
    t0 = time.perf_counter()
    first = one_pass(None)
    plain_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install(mods)
    try:
        t0 = time.perf_counter()
        one_pass(tracer)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    kernel = spans.kernel_profile(lambda: one_pass(None))
    return first, tracer, kernel, plain_s / traced_s


def _bits(q) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def _paf_bits(f) -> int:
    return max([_bits(t) for t in f.breakpoints] + [max(_bits(a), _bits(b)) for a, b in f.pieces])


def _poly_bits(p) -> int:
    return max(max(_bits(x), _bits(y)) for x, y in p.vertices)


def _crossings(f, g) -> int:
    """Cells of the merged grid inside which f and g cross."""
    grid = sorted(set(f.breakpoints) | set(g.breakpoints))
    return sum(len(crossing(f, g, u, v)) for u, v in zip(grid, grid[1:]))


def observed_metrics(observed) -> dict:
    out = {}
    oplus = observed.get("paf.oplus", [])
    if oplus:
        kept = sum(len(h.breakpoints) for _, h in oplus)
        bound = sum(len(set(f.breakpoints) | set(g.breakpoints)) + _crossings(f, g)
                    for (f, g), _ in oplus)
        out["paf.oplus.kept_ratio"] = kept / bound
    paf_out = [h for key in ("paf.oplus", "paf.add", "paf.scale", "paf.tropical_min",
                             "paf.clamp") for _, h in observed.get(key, [])]
    if paf_out:
        out["paf.out_bits_max"] = max(_paf_bits(h) for h in paf_out)
    mink = observed.get("convex.minkowski", [])
    if mink:
        out["convex.minkowski.kept_ratio"] = (
            sum(len(c.vertices) for _, c in mink)
            / sum(len(a.vertices) * len(b.vertices) for (a, b), _ in mink))
    bodies = [c for key in ("convex.minkowski", "convex.hull_union")
              for _, c in observed.get(key, [])]
    bodies += [side for _, z in observed.get("convex.frac_oplus", []) for side in (z.pos, z.neg)]
    if bodies:
        out["convex.out_bits_max"] = max(_poly_bits(p) for p in bodies)
    circles = observed.get("laws.circle_gen", [])
    if circles:
        out["laws.circle_gen.useful_ratio"] = sum(r is not None for _, r in circles) / len(circles)
    return out


def layer_metrics(runs, extra) -> dict:
    """Every per-layer metric over the traced passes of all workloads.

    ``runs`` maps a workload to (tracer, kernel figures, overhead ratio);
    counts and times add up across workloads.
    """
    out = {"kernel.fraction.calls": 0, "kernel.fraction.self_s": 0.0}
    summary, observed = {}, {}
    for workload, (tracer, kernel, overhead) in runs.items():
        out["kernel.fraction.calls"] += kernel["calls"]
        out["kernel.fraction.self_s"] += kernel["self_s"]
        out[f"trace.{workload}.overhead_ratio"] = overhead
        for name, row in tracer.summary().items():
            total = summary.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in total:
                total[key] += row[key]
        for key, pairs in tracer.observed.items():
            observed.setdefault(key, []).extend(pairs)
    for name in metrics.FUNCTION_METRICS:
        out[f"{name}.calls"] = summary.get(name, {}).get("calls", 0)
        out[f"{name}.self_s"] = summary.get(name, {}).get("self_s", 0.0)
    for suite in metrics.SUITES:
        out[f"laws.{suite}.s"] = summary.get(f"laws.{suite}", {}).get("total_s", 0)
    out["laws.generate.self_s"] = summary.get("laws.generate", {}).get("self_s", 0)
    out.update(observed_metrics(observed))
    out.update(extra)
    return out

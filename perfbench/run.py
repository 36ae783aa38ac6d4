"""Run one workload of the char1 benchmark and print its metrics.

    python3 perfbench/run.py --workload {laws,large,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the last line of stdout is a JSON object carrying every
end-to-end metric of the named workload.  With ``--trace 1`` it carries
every per-layer metric, over one traced pass of every workload whatever
``--workload`` names (so that every layer is reached), and the spans are
written to ``perfbench/out/``.  The lines before it name each metric with
its unit, and the machine context.  The metrics and units are those listed
in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[0] = ROOT  # import perfbench as a package, not its files as top-level modules

from perfbench import common, layers, metrics, wl_cli, wl_large, wl_laws  # noqa: E402

SETUP_REPEATS = 5


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _latency(latencies_s) -> dict:
    return {"latency_p50_ms": _ms(statistics.median(latencies_s)),
            "latency_p90_ms": _ms(common.p90(latencies_s))}


# -- laws ----------------------------------------------------------------------------


def laws_plain(seed, seconds):
    setup_s, mods, inputs = common.timed_setups(
        lambda m: wl_laws.make_inputs(m, seed), SETUP_REPEATS)
    r = wl_laws.rates(*wl_laws.run_for(mods, inputs, seconds))
    values = {"setup_s": setup_s, "peak_rss_mb": common.peak_rss_mb(),
              "ops_per_s": r["ops_per_s"], "build_ops_per_s": r["build_ops_per_s"],
              "query_ops_per_s": r["query_ops_per_s"],
              "latency_p50_ms": _ms(r["latency_p50_s"]), "latency_p90_ms": _ms(r["latency_p90_s"])}
    return values, r["attempted"], r["failed"], {"speed_scale": r["speed_scale"]}


def laws_traced(seed):
    mods = common.fresh_char1()
    inputs = wl_laws.make_inputs(mods, seed)

    def one_pass(tracer):
        rounds = []
        wl_laws.run_cycle(mods, inputs, 0, rounds)
        return rounds

    rounds, tracer, kernel, overhead = layers.traced_passes(mods, one_pass)
    attempted, failed = sum(r[3] for r in rounds), sum(r[4] for r in rounds)
    return tracer, kernel, overhead, attempted, failed, {}


# -- large ---------------------------------------------------------------------------


def large_plain(seed, seconds):
    setup_s, mods, inputs = common.timed_setups(
        lambda m: wl_large.make_inputs(m, seed), SETUP_REPEATS)
    passes, probes, failed = wl_large.run_for(mods, inputs, seconds)
    r = wl_large.rates(passes, probes)
    values = {"setup_s": setup_s, "peak_rss_mb": common.peak_rss_mb(),
              "ops_per_s": r["ops_per_s"], "build_ops_per_s": r["build_ops_per_s"],
              "query_ops_per_s": r["query_ops_per_s"], **_latency(r["latencies_s"])}
    return values, sum(map(len, passes)), failed, {"speed_scale": r["speed_scale"]}


def large_traced(seed):
    mods = common.fresh_char1()
    inputs = wl_large.make_inputs(mods, seed)
    ops = wl_large.operations(mods)
    samples = []

    def one_pass(tracer):
        return wl_large.run_pass(ops, inputs, samples if not samples else None)

    done, tracer, kernel, overhead = layers.traced_passes(mods, one_pass)
    ladder = {}
    for fn, sizes in metrics.LADDER:
        for n in sizes:
            times = [s[3] for s in samples if s[0] == fn and s[1] == n]
            ladder[f"{fn}.n{n}.us"] = statistics.median(times) * 1e6
    return tracer, kernel, overhead, len(done), wl_large.check_pass(done), ladder


# -- cli -----------------------------------------------------------------------------


def cli_plain(seed, seconds):
    setup_s, mods, requests = common.timed_setups(
        lambda m: wl_cli.make_inputs(m, seed), SETUP_REPEATS)
    wl_cli.pin_to_one_cpu()
    done, probes = wl_cli.run_for(requests, wl_cli.child_env(SRC), seconds)
    failed, tracebacks = wl_cli.check(mods, requests, done)
    r = wl_cli.rates(requests, done, probes)
    values = {"setup_s": setup_s, "peak_rss_mb": common.peak_rss_mb(children=True),
              "ops_per_s": r["ops_per_s"], "build_ops_per_s": r["build_ops_per_s"],
              "query_ops_per_s": r["query_ops_per_s"], **_latency(r["latencies_s"])}
    return values, len(done), failed, {"responses_with_traceback": tracebacks,
                                       "speed_scale": r["speed_scale"]}


IMPORT_PROBE = ("import time; t = time.perf_counter(); import char1.cli; "
                "print(time.perf_counter() - t)")
PROBES = 10


def cli_traced(seed):
    mods = common.fresh_char1()
    requests = wl_cli.make_inputs(mods, seed)
    replay = wl_cli.Replay(mods)

    def one_pass(tracer):
        phase = tracer.span if tracer is not None else None
        return [replay.run(*req, phase=phase) for req in requests]

    _, tracer, kernel, overhead = layers.traced_passes(mods, one_pass)
    env = wl_cli.child_env(SRC)
    bare = [wl_cli.spawn(["-c", "pass"], env)[0] for _ in range(PROBES)]
    imports = [float(wl_cli.spawn(["-c", IMPORT_PROBE], env)[2]) for _ in range(PROBES)]
    done = [(i, *wl_cli.request(*req, env)) for i, req in enumerate(requests)]
    failed, _ = wl_cli.check(mods, requests, done)
    extra = {"cli.interp_start_ms": _ms(statistics.median(bare)),
             "cli.import_ms": _ms(statistics.median(imports))}
    for phase in ("decode", "compute", "encode"):
        extra[f"cli.{phase}_ms"] = _ms(statistics.median(tracer.durations(f"cli.{phase}")))
    for fam in wl_cli.FAMILIES:
        extra[f"cli.{fam}.p50_ms"] = _ms(statistics.median(
            d[1] for d in done if wl_cli.family(requests[d[0]][0]) == fam))
    return tracer, kernel, overhead, len(done), failed, extra


WORKLOADS = {
    "laws": (laws_plain, laws_traced),
    "large": (large_plain, large_traced),
    "cli": (cli_plain, cli_traced),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="required with --trace 0; --trace 1 traces every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.trace and args.workload is None:
        parser.error("--workload is required with --trace 0")
    if not os.path.isfile(os.path.join(SRC, "char1", "__init__.py")):
        print(f"perfbench: no char1 sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)

    calib_s = common.calibrate()
    if args.trace:
        # every workload's traced pass, so that every layer is reached
        runs, attempted, failed, extra = {}, 0, 0, {}
        notes = {"spans": {}, "calls_by_workload": {}}
        for workload, (_, traced) in WORKLOADS.items():
            tracer, kernel, overhead, n, bad, more = traced(args.seed)
            runs[workload] = (tracer, kernel, overhead)
            attempted, failed = attempted + n, failed + bad
            extra.update(more)
            path = os.path.join(ROOT, "perfbench", "out", f"spans-{workload}-{args.seed}.tsv.gz")
            tracer.write(path)
            notes["spans"][workload] = os.path.relpath(path, ROOT)
            notes["calls_by_workload"][workload] = {
                name: row["calls"] for name, row in tracer.summary().items()}
        extra.update({"machine.calib_s": calib_s, "fail_ratio": failed / attempted})
        values = layers.layer_metrics(runs, extra)
        units = metrics.units("per_layer")
        label = "+".join(WORKLOADS)
    else:
        values, attempted, failed, notes = WORKLOADS[args.workload][0](args.seed, args.seconds)
        units = metrics.units("end_to_end")
        notes["fail_ratio"] = failed / attempted
        label = args.workload

    for name, unit in units.items():
        print(f"{label} {name} = {values[name]:.6g} {unit}")
    print(json.dumps({"workload": label, "seed": args.seed, "trace": args.trace,
                      "machine": common.machine_context(calib_s), **notes}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

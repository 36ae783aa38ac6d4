"""Compare two checkouts with alternating runs of the benchmark.

    python3 tools/bench_pairs.py --base PARENT_DIR --change CHANGE_DIR \
        --workload laws --pairs 10 --first-seed 501 --out BENCH_N.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout with the
same seed and the run length BENCHMARK.json sets (``run_seconds``); the
order alternates from pair to pair (base first on even pairs), so slow drift
on the machine hits both sides alike.  Every run has
``PYTHONDONTWRITEBYTECODE=1``, so both sides compile char1 from source on
each start, as a fresh checkout does; a checkout that holds a
``__pycache__`` under ``src/`` is refused (exit 2), since a stale cache
there would make one side start faster.  Seeds run from ``--first-seed``
upward, one per pair.  Give ``--workload`` several times to measure several
workloads, each with the same ``--pairs`` count.

The output JSON holds, per workload and side, every run's end-to-end
metrics with their medians and quartiles, the seeds, each run's speed scale,
each run's attempted and failed operations with the side's failed share
(failed over attempted, summed over its runs), the number of pairs the
change won on each metric, and a verdict per metric against its
BENCHMARK.json bound: "worse", "unresolved" or "within" (see ``verdict``).  The direction of "better" and the bounds are
read from BENCHMARK.json.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def bytecode_caches(checkout: str) -> list:
    """The ``__pycache__`` directories under the checkout's ``src/``."""
    return sorted(os.path.join(d, "__pycache__")
                  for d, subdirs, _ in os.walk(os.path.join(checkout, "src"))
                  if "__pycache__" in subdirs)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout: its metric values, speed scale, and the
    operations it attempted and failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    notes, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "speed_scale": notes.get("speed_scale"),
            "attempted": result["attempted"], "failed": result["failed"]}


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def verdict(base: list, change: list, better: str, bound: float) -> str:
    """How the change's runs of one metric stand against the parent's.

    "worse": the change median is worse than the parent median by more than
    ``bound`` (a fraction of the parent median).  "unresolved": the parent's
    IQR over its median exceeds ``bound`` and not every change run beats
    every parent run, so the parent's own spread could hide such a loss.
    "within" otherwise.
    """
    b, c = summary(base), summary(change)
    sign = 1 if better == "higher" else -1
    if sign * (b["median"] - c["median"]) > bound * abs(b["median"]):
        return "worse"
    beats_all = (min(change) > max(base)) if sign > 0 else (max(change) < min(base))
    if b["iqr"] > bound * abs(b["median"]) and not beats_all:
        return "unresolved"
    return "within"


def compare(base: str, change: str, workload: str, pairs: int, seconds: float,
            first_seed: int, better: dict, bounds: dict) -> dict:
    runs = {"base": [], "change": []}
    seeds = list(range(first_seed, first_seed + pairs))
    for i, seed in enumerate(seeds):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for side in order:
            runs[side].append(run_once(base if side == "base" else change,
                                       workload, seed, seconds))
            print(f"{workload} pair {i + 1}/{pairs} seed {seed} {side} done", file=sys.stderr)
    out = {"seeds": seeds, "pairs": pairs}
    for side, rs in runs.items():
        attempted, failed = [r["attempted"] for r in rs], [r["failed"] for r in rs]
        out[side] = {
            "correct": all(r["correct"] for r in rs),
            "speed_scale": [r["speed_scale"] for r in rs],
            "attempted": attempted,
            "failed": failed,
            "failed_share": sum(failed) / sum(attempted),
            "metrics": {m: summary([r["metrics"][m] for r in rs]) for m in rs[0]["metrics"]},
        }
    wins = {}
    for m, direction in better.items():
        pairs_m = zip(runs["base"], runs["change"])
        if direction == "higher":
            wins[m] = sum(c["metrics"][m] > b["metrics"][m] for b, c in pairs_m)
        else:
            wins[m] = sum(c["metrics"][m] < b["metrics"][m] for b, c in pairs_m)
    out["change_wins"] = wins
    out["verdict"] = {m: verdict([r["metrics"][m] for r in runs["base"]],
                                 [r["metrics"][m] for r in runs["change"]],
                                 direction, bounds[m])
                      for m, direction in better.items()}
    out["median_ratio"] = {m: out["change"]["metrics"][m]["median"]
                           / out["base"]["metrics"][m]["median"]
                           for m in better if out["base"]["metrics"][m]["median"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload name; repeat for several workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=501)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    caches = bytecode_caches(args.base) + bytecode_caches(args.change)
    if caches:
        print(f"bench_pairs: remove the bytecode caches first: {' '.join(caches)}",
              file=sys.stderr)
        return 2

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"command": spec["command"], "seconds": spec["run_seconds"],
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "workloads": {}}
    for name in args.workload:
        report["workloads"][name] = compare(args.base, args.change, name, args.pairs,
                                            spec["run_seconds"], args.first_seed, better,
                                            bounds)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

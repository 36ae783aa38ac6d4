"""Helpers shared by the workloads: imports, timing, quantiles and machine
context."""

from __future__ import annotations

import importlib
import os
import platform
import resource
import statistics
import sys
import time

# Importing the package root pulls in every module, as the CLI does.
CHAR1_ROOT = "char1"

# The host's speed moves by up to a half for seconds to minutes at a time
# (other load on its cores; CPU time equals wall time throughout), and a
# slow spell can cover a whole run.  So times are scaled to a nominal speed:
# a run times a short fixed loop (the probe) PROBES times at every boundary
# between its units of work, and a time t is reported as
# t * PROBE_NOMINAL_S / p, with p the best probe around the time measured.
# PROBE_NOMINAL_S is the probe's best time on the 2-core host the benchmark
# was built on (Python 3.11), so on that host at full speed the scale is 1.
PROBE_LOOPS = 250_000
PROBES = 4
PROBE_NOMINAL_S = 0.016


def fresh_char1():
    """Import char1 from scratch and return its modules by short name.

    Each call drops the package from ``sys.modules`` first, so the module
    bodies run again; objects made with an earlier import must not be
    mixed with the returned modules.
    """
    for name in [m for m in sys.modules if m == CHAR1_ROOT or m.startswith(CHAR1_ROOT + ".")]:
        del sys.modules[name]
    return char1_modules()


def char1_modules():
    """char1's modules by short name, imported once per process."""
    mods = {"package": importlib.import_module(CHAR1_ROOT)}
    for n in ("errors", "scalars", "semifield", "paf", "convex", "spectrum",
              "congruence", "valuation", "laws", "cli"):
        mods[n] = importlib.import_module(f"{CHAR1_ROOT}.{n}")
    return mods


def timed_setups(build, repeats: int):
    """Run ``build(mods)`` after a fresh import ``repeats`` times, with
    speed probes before each and after the last.

    Returns (best seconds at nominal speed, modules, state) with the modules
    and state of the last repetition; set-up is import plus input generation.
    """
    times, taken = [], []
    mods = state = None
    for _ in range(repeats):
        taken += probes()
        t0 = time.perf_counter()
        mods = fresh_char1()
        state = build(mods)
        times.append(time.perf_counter() - t0)
    taken += probes()
    return min(times) * speed_scale(taken), mods, state


def p90(values) -> float:
    """The 90th percentile (needs at least ten samples beyond it to mean much)."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=10)[-1]


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB, of this process or of its largest child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def calibrate(loops: int = 1_000_000) -> float:
    """Seconds for a fixed pure-Python loop: the machine's speed in this run."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i
    return time.perf_counter() - t0


def probes() -> list:
    """PROBES runs of the calibration loop at PROBE_LOOPS, short enough to
    take at every boundary between units of work."""
    return [calibrate(PROBE_LOOPS) for _ in range(PROBES)]


def speed_scale(probe_times) -> float:
    """The factor that takes a time, measured in a run alongside the speed
    probes ``probe_times``, to the nominal machine speed: PROBE_NOMINAL_S
    over the best probe.  The probe runs none of char1's code, so a change
    to char1 moves the scaled figures as it moves the measured ones."""
    return PROBE_NOMINAL_S / min(probe_times)


def machine_context(calib_s: float) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calib_s": calib_s,
        "note": ("laws and large unpinned, cli pinned to one CPU with its children; "
                 "no cache control: figures move with other load on the machine"),
    }

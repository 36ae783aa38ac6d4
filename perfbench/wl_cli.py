"""The ``cli`` workload: one fresh interpreter per request.

Each request runs ``python -m char1.cli VERB`` with ``src`` on the path and
the payload on stdin, in a closed loop with one caller.  Payloads are small
to medium and cover all 18 verbs; one request in six is a seeded mutation
of a valid payload, most of which must end with exit code 1 or 2.  Here
interpreter start, import, decode and encode dominate and the arithmetic
is small.

The expected stdout and exit code of every payload come from an in-process
replay that calls the library directly (never ``char1.cli``): decode with
``json.loads`` and ``from_json``, compute, encode with ``to_json`` and
``json.dumps``.  An exception maps to the CLI's exit codes as ``main()``
maps it: a schema error or a missing key to 1, a precondition violation to
2.  Any other exception escapes the CLI as a traceback; the replay marks
such a payload as a crash, and a crash, or a child whose stderr holds a
traceback, is a failed request whatever its exit code.
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from . import common

VERBS = ("paf-eval", "paf-oplus", "paf-norm", "paf-clamp", "paf-plot",
         "poly-hull-union", "poly-minkowski", "poly-support", "poly-rnorm", "poly-polar",
         "spec-attain", "spec-classify", "cong-qnorm", "cong-minrep", "cong-zariski",
         "val-kink", "val-convexity", "val-circle-check")
# Verbs that return a new element, against those that return a number or flag.
BUILD_VERBS = {"paf-oplus", "paf-clamp", "paf-plot", "poly-hull-union", "poly-minkowski",
               "poly-polar", "cong-minrep"}
VALID_PER_VERB = 5  # plus one mutation each: one request in six is mutated
MIN_REQUESTS = 100  # so that ten latency samples lie beyond p90
WINDOW = 12  # consecutive requests per rate sample
CHILD_TIMEOUT_S = 60  # a request that runs longer fails
FAMILIES = ("paf", "poly", "spec", "cong", "val")
CRASH = "crash"  # the replay's code for an exception the CLI does not handle


def family(verb: str) -> str:
    return verb.split("-", 1)[0]


# -- payload generation ------------------------------------------------------------


def _q(x) -> str:
    return str(Fraction(x))


def _paf(rng, n):
    den = rng.choice((8, 12, 30, 1000))
    cuts = sorted(rng.sample(range(1, den), min(n - 2, den - 1)))
    ts = [Fraction(0)] + [Fraction(c, den) for c in cuts] + [Fraction(1)]
    vals = [Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for _ in ts]
    pieces = []
    for (t0, v0), (t1, v1) in zip(zip(ts, vals), zip(ts[1:], vals[1:])):
        a = (v1 - v0) / (t1 - t0)
        pieces.append({"a": _q(a), "b": _q(v0 - a * t0)})
    return {"domain": ["0", "1"], "breakpoints": [_q(t) for t in ts], "pieces": pieces}


def _poly(rng, n, origin=False):
    pts = [[_q(Fraction(rng.randint(-30, 30), rng.randint(1, 4))),
            _q(Fraction(rng.randint(-30, 30), rng.randint(1, 4)))] for _ in range(n)]
    return {"vertices": ([["0", "0"]] if origin else []) + pts}


def _unit(rng):
    """A full-dimensional body with the origin strictly inside."""
    r = [rng.randint(1, 5) for _ in range(4)]
    return {"vertices": [[_q(r[0]), "0"], ["0", _q(r[1])], [_q(-r[2]), "0"], ["0", _q(-r[3])]]}


def _closed_set(rng):
    cuts = sorted(rng.sample(range(0, 25), 2 * rng.randint(1, 3)))
    return {"intervals": [[_q(Fraction(cuts[i], 24)), _q(Fraction(cuts[i + 1], 24))]
                          for i in range(0, len(cuts), 2)]}


def _circle(rng):
    """Interpolation of random values at random points around R/Z."""
    k = rng.randint(1, 5)
    ts = sorted(Fraction(c, 24) for c in rng.sample(range(24), k))
    vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in ts]
    if rng.random() < 0.3:
        vals = [vals[0]] * k
    pieces = []
    for i, (t, v) in enumerate(zip(ts, vals)):
        t1, v1 = (ts[i + 1], vals[i + 1]) if i + 1 < k else (ts[0] + 1, vals[0])
        a = (v1 - v) / (t1 - t)
        pieces.append({"a": _q(a), "b": _q(v - a * t)})
    return {"cyclic": True, "breakpoints": [_q(t) for t in ts], "pieces": pieces}


def _valid_payload(rng, verb):
    """(payload, extra argv) for one valid request."""
    n = rng.randint(3, 24)
    m = rng.randint(3, 16)
    t = _q(Fraction(rng.randint(0, 36), 36))
    extra = []
    if verb == "paf-eval":
        payload = {"f": _paf(rng, n), "t": t}
    elif verb == "paf-oplus":
        payload = {"f": _paf(rng, n), "g": _paf(rng, rng.randint(3, 24))}
    elif verb in ("paf-norm", "spec-classify", "val-convexity"):
        payload = {"f": _paf(rng, n)}
    elif verb == "paf-clamp":
        payload = {"f": _paf(rng, n), "c": _q(Fraction(rng.randint(0, 40), rng.randint(1, 6)))}
    elif verb == "paf-plot":
        payload, extra = {"f": _paf(rng, n)}, ["--samples", str(rng.randint(2, 40))]
    elif verb in ("poly-hull-union", "poly-minkowski"):
        payload = {"A": _poly(rng, m), "B": _poly(rng, rng.randint(3, 16))}
    elif verb == "poly-support":
        payload = {"A": _poly(rng, m), "psi": [_q(rng.randint(-9, 9)), _q(rng.randint(1, 9))]}
    elif verb == "poly-rnorm":
        payload = {"A": _poly(rng, m)}
        if rng.random() < 0.4:
            payload["E"] = _unit(rng)
        elif rng.random() < 0.3:
            extra = ["--euclidean"]
    elif verb == "poly-polar":
        payload = {"E": _unit(rng)}
    elif verb == "spec-attain":
        if rng.random() < 0.5:
            payload = {"f": _paf(rng, n)}
        else:
            payload = {"A": _poly(rng, m, origin=True)}
            if rng.random() < 0.5:
                payload["E"] = _unit(rng)
    elif verb in ("cong-qnorm", "cong-minrep"):
        payload = {"f": _paf(rng, n), "K1": _closed_set(rng)}
    elif verb == "cong-zariski":
        payload = {"K1": _closed_set(rng)}
        if rng.random() < 0.7:
            payload["K2"] = _closed_set(rng)
    elif verb == "val-kink":
        payload = {"f": _paf(rng, n), "x": _q(Fraction(rng.randint(1, 35), 36))}
    elif verb == "val-circle-check":
        payload = {"s": _circle(rng)}
    else:
        raise ValueError(f"no generator for {verb}")
    return payload, extra


def _paths(node, prefix=()):
    """Every path to a value inside a JSON tree."""
    out = [prefix] if prefix else []
    if isinstance(node, dict):
        for key in node:
            out += _paths(node[key], prefix + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            out += _paths(item, prefix + (i,))
    return out


def _mutate(rng, payload):
    """A seeded corruption of a valid payload: a dropped field, a malformed
    rational, a value of the wrong JSON type, a shifted number anywhere, or
    a top-level number moved out of range."""
    p = copy.deepcopy(payload)
    kind = rng.choice(("drop", "bad_rational", "retype", "shift", "out_of_range"))
    if kind == "drop":
        del p[rng.choice(sorted(p))]
        return p
    if kind == "out_of_range":
        scalars = sorted(k for k, v in p.items() if isinstance(v, str))
        if scalars:
            p[rng.choice(scalars)] = rng.choice(("-7/2", "-1/3"))
            return p
        kind = "shift"
    paths = _paths(p)
    if kind in ("bad_rational", "shift"):
        paths = [q for q in paths if isinstance(_get(p, q), str)] or paths
    path = rng.choice(paths)
    old = _get(p, path)
    if kind == "bad_rational":
        new = rng.choice(("x", "1/0", "", "2//3"))
    elif kind == "retype":
        new = rng.choice((["x"], 7, {}, None))
    else:
        try:
            new = _q(Fraction(old) + rng.choice((-5, 3, Fraction(7, 2))))
        except (TypeError, ValueError):
            new = "x"
    _set(p, path, new)
    return p


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def _set(node, path, value):
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def make_inputs(mods, seed):
    """Requests as (verb, extra argv, stdin text), shuffled by the seed."""
    rng = random.Random(f"cli:{seed}")
    requests = []
    for verb in VERBS:
        valid = [_valid_payload(rng, verb) for _ in range(VALID_PER_VERB)]
        requests += [(verb, extra, json.dumps(p)) for p, extra in valid]
        bad, extra = valid[rng.randrange(VALID_PER_VERB)]
        requests.append((verb, extra, json.dumps(_mutate(rng, bad))))
    rng.shuffle(requests)
    return requests


# -- in-process replay -------------------------------------------------------------


class Replay:
    """The library calls behind each verb, split into decode, compute and
    encode so that a tracer can time the three phases."""

    def __init__(self, mods):
        self.m = mods

    def run(self, verb, extra, text, phase=None):
        """(exit code, stdout) that the CLI must produce for this request, or
        (CRASH, exception name) if the library raises what the CLI does not
        handle."""
        errors = self.m["errors"]
        phase = phase or (lambda name: contextlib.nullcontext())
        try:
            with phase("cli.decode"):
                try:
                    payload = json.loads(text)
                except json.JSONDecodeError as exc:
                    raise errors.SchemaError(f"input is not JSON: {exc}") from None
                if not isinstance(payload, dict):
                    raise errors.SchemaError("input must be a JSON object")
                args = self.decode(verb, payload, extra)
            with phase("cli.compute"):
                result = self.compute(verb, args)
            with phase("cli.encode"):
                obj = self.encode(verb, result)
                return 0, obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True) + "\n"
        except (errors.SchemaError, KeyError):
            return 1, ""
        except errors.PreconditionError:
            return 2, ""
        except Exception as exc:  # escapes the CLI's handlers: a crash
            return CRASH, type(exc).__name__

    def decode(self, verb, p, extra):
        m = self.m
        PAF, cx, cg, vl = m["paf"].PAF, m["convex"], m["congruence"], m["valuation"]
        rat = m["scalars"].parse_rat

        def unit():
            return cx.Polygon.from_json(p["E"]) if "E" in p else cx.Polygon.square()

        if verb == "paf-eval":
            f = PAF.from_json(p["f"])
            return f, rat(p["t"])
        if verb == "paf-oplus":
            return PAF.from_json(p["f"]), PAF.from_json(p["g"])
        if verb in ("paf-norm", "spec-classify", "val-convexity"):
            return (PAF.from_json(p["f"]),)
        if verb == "paf-clamp":
            f = PAF.from_json(p["f"])
            return f, rat(p["c"])
        if verb == "paf-plot":
            samples = int(extra[extra.index("--samples") + 1]) if extra else 17
            return PAF.from_json(p["f"]), samples
        if verb in ("poly-hull-union", "poly-minkowski"):
            return cx.Polygon.from_json(p["A"]), cx.Polygon.from_json(p["B"])
        if verb == "poly-support":
            a = cx.Polygon.from_json(p["A"])
            return a, cx.Direction.from_json(p["psi"])
        if verb == "poly-rnorm":
            a = cx.Polygon.from_json(p["A"])
            return (a, None) if "--euclidean" in extra else (a, unit())
        if verb == "poly-polar":
            return (cx.Polygon.from_json(p["E"]),)
        if verb == "spec-attain":
            if "f" in p:
                return (PAF.from_json(p["f"]), None)
            a = cx.Polygon.from_json(p["A"])
            return a, unit()
        if verb in ("cong-qnorm", "cong-minrep"):
            f = PAF.from_json(p["f"])
            return f, cg.ClosedSet.from_json(p["K1"])
        if verb == "cong-zariski":
            r1 = cg.RestrictionCongruence(cg.ClosedSet.from_json(p["K1"]))
            if "K2" not in p:
                return r1, None
            return r1, cg.RestrictionCongruence(cg.ClosedSet.from_json(p["K2"]))
        if verb == "val-kink":
            f = PAF.from_json(p["f"])
            return f, rat(p["x"])
        if verb == "val-circle-check":
            return (vl.CirclePAF.from_json(p["s"]),)
        raise ValueError(verb)

    def compute(self, verb, args):
        m = self.m
        cx, sp, cg, vl = m["convex"], m["spectrum"], m["congruence"], m["valuation"]
        if verb == "paf-eval":
            return args[0].eval(args[1])
        if verb == "paf-oplus":
            return args[0].oplus(args[1])
        if verb == "paf-norm":
            return args[0].r_norm()
        if verb == "paf-clamp":
            return args[0].clamp(args[1])
        if verb == "paf-plot":
            f, samples = args
            if samples < 2:
                raise m["errors"].PreconditionError("plotting needs at least 2 samples")
            pts = {f.lo + (f.hi - f.lo) * Fraction(i, samples - 1) for i in range(samples)}
            return [(t, f.eval(t)) for t in sorted(pts | set(f.breakpoints))]
        if verb == "poly-hull-union":
            return cx.hull_union(*args)
        if verb == "poly-minkowski":
            return cx.minkowski(*args)
        if verb == "poly-support":
            return args[0].support(args[1].as_pair())
        if verb == "poly-rnorm":
            a, e = args
            return cx.r_norm_euclidean(a) if e is None else cx.r_norm_body(a, e)
        if verb == "poly-polar":
            return cx.polar(args[0])
        if verb == "spec-attain":
            x, e = args
            phi = sp.attain_norm(x) if e is None else sp.attain_norm(x, e)
            return phi, sp.apply_char(phi, x)
        if verb == "spec-classify":
            return sp.classify(args[0])
        if verb == "cong-qnorm":
            return cg.quotient_norm(*args)
        if verb == "cong-minrep":
            rep = cg.min_representative(*args)
            return rep, rep.r_norm()
        if verb == "cong-zariski":
            r1, r2 = args
            if r2 is None:
                return r1.k, None
            return r1.k, (cg.join(r1, r2).k, cg.meet(r1, r2).k, cg.zariski_laws(r1, r2))
        if verb == "val-kink":
            return vl.kink(*args)
        if verb == "val-convexity":
            return vl.convexity_criterion(args[0])
        if verb == "val-circle-check":
            s = args[0]
            return vl.circle_section_valid(s), s.is_constant()
        raise ValueError(verb)

    def encode(self, verb, r):
        q = self.m["scalars"].fmt_rat
        if verb in ("paf-eval", "poly-support"):
            return {"value": q(r)}
        if verb in ("paf-oplus", "paf-clamp", "poly-hull-union", "poly-minkowski", "poly-polar"):
            return {"result": r.to_json()}
        if verb in ("paf-norm", "cong-qnorm"):
            return {"r": q(r)}
        if verb == "paf-plot":
            return "".join(f"{q(t)},{q(v)}\n" for t, v in r)
        if verb == "poly-rnorm":
            return {"r_euclidean": r, "approximate": True} if isinstance(r, float) else {"r": q(r)}
        if verb == "spec-attain":
            return {"character": r[0].to_json(), "value": q(r[1])}
        if verb == "spec-classify":
            return {"nonneg": r.nonneg, "regular": r.regular, "absorbing": r.absorbing,
                    "epsilon": q(r.epsilon) if r.epsilon is not None else None}
        if verb == "cong-minrep":
            return {"result": r[0].to_json(), "r": q(r[1])}
        if verb == "cong-zariski":
            out = {"V": r[0].to_json()}
            if r[1] is not None:
                out.update(V_join=r[1][0].to_json(), V_meet=r[1][1].to_json(), laws_ok=r[1][2])
            return out
        if verb == "val-kink":
            return {"kink": q(r)}
        if verb == "val-convexity":
            return {"convex": r}
        if verb == "val-circle-check":
            return {"valid": r[0], "constant": r[1]}
        raise ValueError(verb)


# -- processes ---------------------------------------------------------------------


def child_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("CHAR1_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = src
    return env


def spawn(argv, env, stdin_text=""):
    """Run one child to completion: (seconds from spawn to exit, exit code, stdout)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *argv], input=stdin_text, capture_output=True,
                              text=True, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return time.perf_counter() - t0, None, "", "timeout"
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def request(verb, extra, text, env):
    return spawn(["-m", "char1.cli", verb, *extra], env, text)


def pin_to_one_cpu():
    """Keep this process, and so every child it starts, on one CPU.  Left
    free, a child mostly starts on the CPU the parent is not on, and the two
    CPUs of a shared host run at different speeds for seconds at a time, so
    the parent's speed probes would time another CPU than the requests."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_for(requests, env, seconds: float):
    """Closed loop over the request list until both the time and the
    minimum request count are reached, with speed probes before every
    WINDOW requests and after the last: ([(index, seconds, code, stdout,
    stderr)], [probe seconds at each window boundary]).  Call
    pin_to_one_cpu first, so that the probes time the requests' CPU."""
    done, probes = [], []
    t_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < t_end or len(done) < MIN_REQUESTS:
        if i % WINDOW == 0:
            probes.append(common.probes())
        verb, extra, text = requests[i % len(requests)]
        dt, code, out, err = request(verb, extra, text, env)
        done.append((i % len(requests), dt, code, out, err))
        i += 1
    probes.append(common.probes())
    return done, probes


def rates(requests, done, probes):
    """Each request's time is scaled to nominal speed by the best probe at
    either end of its window of WINDOW requests.  A rate is the median over
    windows of WINDOW consecutive requests of requests per second of
    spawn-to-exit time, so a burst of load on the machine moves only the
    windows it hits."""
    scale = [common.speed_scale(a + b) for a, b in zip(probes, probes[1:])]
    scaled = [(d[0], d[1] * scale[min(pos // WINDOW, len(scale) - 1)])
              for pos, d in enumerate(done)]

    def per_s(keep):
        picked = [secs for idx, secs in scaled if keep(requests[idx][0])]
        windows = [picked[i:i + WINDOW] for i in range(0, len(picked) - WINDOW + 1, WINDOW)]
        return statistics.median(len(w) / sum(w) for w in windows or [picked])
    return {
        "ops_per_s": per_s(lambda v: True),
        "build_ops_per_s": per_s(lambda v: v in BUILD_VERBS),
        "query_ops_per_s": per_s(lambda v: v not in BUILD_VERBS),
        "latencies_s": [secs for _, secs in scaled],
        "speed_scale": statistics.median(scale),
    }


def check(mods, requests, done):
    """Failed responses: the exit code or stdout differs from the replay, the
    replay crashed on the payload, or the child printed a traceback.  Also
    returns how many responses held a traceback."""
    replay = Replay(mods)
    expected = {}
    failed = tracebacks = 0
    for idx, _, code, out, err in done:
        if idx not in expected:
            expected[idx] = replay.run(*requests[idx])
        crashed = "Traceback" in err
        tracebacks += crashed
        failed += crashed or expected[idx][0] == CRASH or (code, out) != expected[idx]
    return failed, tracebacks

"""Spans recorded from outside char1, and the kernel profile.

``Tracer.install`` wraps named char1 functions and methods wherever they
are bound: module attributes, re-exports in other modules, dict tables
such as ``laws.SUITES``, and class attributes (including aliases such as
``PAF.__call__``).  Each wrapped call records one span (name, start, end,
parent) in flat in-memory arrays; self time is derived afterwards.  A call
counts toward ``calls`` only when no enclosing span has the same name, so
``PAF.from_samples`` -> ``PAF(...)`` is one construction, not two.
"""

from __future__ import annotations

import cProfile
import functools
import gzip
import os
import pstats
import time
from array import array
from contextlib import contextmanager

# metric name -> "module:Attr.path" targets.  Several targets may share a name.
TARGETS = {
    "scalars.parse_rat": ["scalars:parse_rat"],
    "scalars.fmt_rat": ["scalars:fmt_rat"],
    "semifield.eq": ["semifield:CharOneSemifield.eq", "convex:PolygonFractionSemifield.eq"],
    "semifield.leq": ["semifield:CharOneSemifield.leq"],
    "semifield.decompose": ["semifield:CharOneSemifield.decompose"],
    "semifield.power_identity_check": ["semifield:CharOneSemifield.power_identity_check"],
    "paf.construct": ["paf:PAF.__post_init__", "paf:PAF.from_samples", "paf:PAF.constant"],
    "paf.oplus": ["paf:PAF.oplus"],
    "paf.add": ["paf:PAF.__add__"],
    "paf.scale": ["paf:PAF.scale"],
    "paf.tropical_min": ["paf:PAF.tropical_min"],
    "paf.clamp": ["paf:PAF.clamp"],
    "paf.eval": ["paf:PAF.eval"],
    "paf.r_norm": ["paf:PAF.r_norm"],
    "convex.construct": ["convex:Polygon.__post_init__", "convex:FracBody.__post_init__"],
    "convex.minkowski": ["convex:minkowski"],
    "convex.hull_union": ["convex:hull_union"],
    "convex.frac_oplus": ["convex:frac_oplus"],
    "convex.frac_equal": ["convex:frac_equal"],
    "convex.support": ["convex:Polygon.support"],
    "convex.r_norm_body": ["convex:r_norm_body"],
    "convex.r_norm_frac": ["convex:r_norm_frac"],
    "convex.char_eval": ["convex:char_eval"],
    "convex.polar": ["convex:polar"],
    "spectrum.apply_char": ["spectrum:apply_char"],
    "spectrum.attain_norm": ["spectrum:attain_norm"],
    "spectrum.separate": ["spectrum:separate"],
    "congruence.related": ["congruence:related"],
    "congruence.quotient_norm": ["congruence:quotient_norm"],
    "congruence.min_representative": ["congruence:min_representative"],
    "congruence.cutoff": ["congruence:cutoff"],
    "congruence.split_vanishing": ["congruence:split_vanishing"],
    "valuation.kink": ["valuation:kink"],
    "valuation.convexity_criterion": ["valuation:convexity_criterion"],
    "valuation.quad_compare": ["valuation:Quad._cmp", "valuation:Quad.__lt__",
                               "valuation:Quad.__le__", "valuation:Quad.__gt__",
                               "valuation:Quad.__ge__", "valuation:Quad.__eq__"],
    "valuation.circle_construct": ["valuation:CirclePAF.__post_init__",
                                   "valuation:CirclePAF.from_kinks",
                                   "valuation:CirclePAF.constant"],
    "laws.generate": ["paf:random_paf", "laws:random_convex_paf", "laws:random_closed_set",
                      "laws:random_interior_point", "laws:random_circle_section",
                      "convex:random_polygon", "convex:random_direction",
                      "semifield:ScalarTrop.random", "paf:PAFSemifield.random",
                      "convex:PolygonFractionSemifield.random"],
    "laws.semifield": ["laws:run_semifield_suite"],
    "laws.decomposition": ["laws:run_decomposition_suite"],
    "laws.norm": ["laws:run_norm_suite"],
    "laws.convex": ["laws:run_convex_suite"],
    "laws.character": ["laws:run_character_suite"],
    "laws.congruence": ["laws:run_congruence_suite"],
    "laws.valuation": ["laws:run_valuation_suite"],
}

# Targets whose (args, result) pairs are kept, under the given key, for
# ratios and bit lengths computed after the run.
OBSERVED = {
    "paf:PAF.oplus": "paf.oplus", "paf:PAF.__add__": "paf.add", "paf:PAF.scale": "paf.scale",
    "paf:PAF.tropical_min": "paf.tropical_min", "paf:PAF.clamp": "paf.clamp",
    "convex:minkowski": "convex.minkowski", "convex:hull_union": "convex.hull_union",
    "convex:frac_oplus": "convex.frac_oplus",
    "laws:random_circle_section": "laws.circle_gen",
}


class Tracer:
    """Flat span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outer = array("b")
        self._stack: list[int] = []
        self._active: list[int] = []
        self.observed: dict[str, list] = {}
        self._undo: list = []

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._index[name]

    def _open(self, idx: int) -> int:
        sid = len(self.start)
        self.name_of.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._active[idx] == 0)
        self.end.append(0)
        self._active[idx] += 1
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int, idx: int):
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()
        self._active[idx] -= 1

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._name_index(name)
        sid = self._open(idx)
        try:
            yield
        finally:
            self._close(sid, idx)

    def wrap(self, fn, name: str, observe: str | None = None):
        """A wrapper recording one span per call; with ``observe``, it also
        keeps (args, result) under that key."""
        idx = self._name_index(name)
        opened, closed = self._open, self._close
        keep = self.observed.setdefault(observe, []) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = opened(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(sid, idx)
            if keep is not None:
                keep.append((args, result))
            return result

        return wrapper

    # -- installing and removing wrappers ---------------------------------------

    def install(self, mods):
        """Wrap every target and rebind each reference to it in char1."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for name, paths in TARGETS.items():
            for path in paths:
                original = _plain(_resolve(mods, path))
                wrappers[id(original)] = (original, self.wrap(original, name, OBSERVED.get(path)))
        for mod in mods.values():
            self._rebind(vars(mod), lambda k, v, m=mod: setattr(m, k, v), wrappers)
            for value in list(vars(mod).values()):
                if isinstance(value, dict):
                    self._rebind(value, value.__setitem__, wrappers)
                elif isinstance(value, type) and value.__module__.startswith("char1"):
                    self._rebind_class(value, wrappers)

    def _rebind(self, table, setter, wrappers):
        for key, value in list(table.items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setter(key, hit[1])
                self._undo.append((setter, key, value))

    def _rebind_class(self, cls, wrappers):
        for key, value in list(vars(cls).items()):
            inner = _plain(value)
            hit = wrappers.get(id(inner))
            if hit is None or hit[0] is not inner:
                continue
            new = type(value)(hit[1]) if isinstance(value, (staticmethod, classmethod)) else hit[1]
            setattr(cls, key, new)
            self._undo.append((functools.partial(setattr, cls), key, value))

    def uninstall(self):
        for setter, key, value in reversed(self._undo):
            setter(key, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------------

    def summary(self) -> dict:
        """name -> {"calls": outermost spans, "self_s": self time, "total_s":
        time in outermost spans}."""
        self_ns = self_times(self.parent, self.start, self.end)
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for sid, idx in enumerate(self.name_of):
            row = out[self.names[idx]]
            row["self_s"] += self_ns[sid] / 1e9
            if self.outer[sid]:
                row["calls"] += 1
                row["total_s"] += (self.end[sid] - self.start[sid]) / 1e9
        return out

    def durations(self, name: str) -> list[float]:
        """Seconds of every outermost span with this name."""
        idx = self._index.get(name)
        return [(self.end[s] - self.start[s]) / 1e9 for s in range(len(self.start))
                if self.name_of[s] == idx and self.outer[s]]

    def write(self, path: str):
        """Spans as gzip TSV: id, parent, name, start_ns, end_ns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.names[self.name_of[sid]]}\t"
                         f"{self.start[sid]}\t{self.end[sid]}\n")


def self_times(parent, start, end) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Spans are stored in start order, so each parent's children arrive
    sorted by start; overlapping children are merged before subtracting.
    """
    n = len(start)
    covered = [0] * n
    reach = [None] * n  # (merged interval start, end) still open per parent
    for sid in range(n):
        p = parent[sid]
        if p < 0:
            continue
        lo, hi = max(start[sid], start[p]), min(end[sid], end[p])
        if lo >= hi:
            continue
        cur = reach[p]
        if cur is not None and lo <= cur[1]:
            reach[p] = (cur[0], max(cur[1], hi))
        else:
            if cur is not None:
                covered[p] += cur[1] - cur[0]
            reach[p] = (lo, hi)
    for p in range(n):
        if reach[p] is not None:
            covered[p] += reach[p][1] - reach[p][0]
    return [end[s] - start[s] - covered[s] for s in range(n)]


def _resolve(mods, path: str):
    mod, _, attr = path.partition(":")
    obj = mods[mod]
    parts = attr.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part)
    return vars(obj)[parts[-1]] if isinstance(obj, type) else getattr(obj, parts[-1])


def _plain(value):
    return value.__func__ if isinstance(value, (staticmethod, classmethod)) else value


# -- the number kernel -----------------------------------------------------------


def kernel_profile(run) -> dict:
    """Run ``run()`` under cProfile; count calls to and self time in
    ``fractions.py``, including the builtins it calls (``math.gcd``,
    ``isinstance``)."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    calls, self_s = 0, 0.0
    for (filename, _, _), (_, nc, tt, _, callers) in stats.items():
        if filename.endswith("fractions.py"):
            calls += nc
            self_s += tt
        elif filename == "~":
            self_s += sum(c[2] for (cf, _, _), c in callers.items() if cf.endswith("fractions.py"))
    return {"calls": calls, "self_s": self_s}

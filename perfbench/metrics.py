"""Names the workloads share.  The metrics and their units are listed once,
in BENCHMARK.json at the root of the checkout; ``units`` reads them."""

from __future__ import annotations

import json
import os

from .spans import TARGETS

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")
SUITES = ("semifield", "decomposition", "norm", "convex", "character", "congruence",
          "valuation")
FUNCTION_METRICS = tuple(n for n in TARGETS if not n.startswith("laws."))
LADDER = (("paf.oplus", (16, 128, 512)), ("paf.add", (16, 128, 512)),
          ("convex.minkowski", (8, 32, 64)), ("convex.r_norm_frac", (8, 32, 64)),
          ("spectrum.attain_norm", (8, 32, 64)))


def units(kind: str) -> dict:
    """name -> unit of every ``end_to_end`` or ``per_layer`` metric."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}

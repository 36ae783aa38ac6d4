"""Compare the library call counts of the benchmark's traced pass with the
committed ones.

    python3 perfbench/run.py --seed 1 --seconds 2 --trace 1 | tail -n 1 \\
        | python3 tools/trace_calls.py --expect tools/trace_calls.expected.json

With ``--trace 1``, ``perfbench/run.py`` runs one pass of each workload
with the library's functions wrapped, and its last stdout line carries
``<layer>.calls``, the number of calls of each.  The pass is fixed by the
seed, whatever ``--seconds`` says, so a count moves only when the work the
library does moves.  This reads that line from stdin and prints the library
counts as one JSON line.  ``kernel.*`` is left out: it counts ``Fraction``
calls, which depend on the Python version's ``fractions.py``.

With ``--expect FILE`` it also compares the counts with those in FILE,
prints one line to stderr per count that differs or is missing on either
side, and exits 1 if any does.  A change that moves a count on purpose
updates FILE and says why under its key ``why``, which is not compared.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys


def library_calls(line: str) -> dict:
    """{name: count} for each ``*.calls`` metric of a ``--trace 1`` result
    line but ``kernel.*``."""
    metrics = json.loads(line)["metrics"]
    return {name: metric["value"] for name, metric in metrics.items()
            if name.endswith(".calls") and not name.startswith("kernel.")}


def mismatches(got: dict, expected: dict) -> list[str]:
    """One line for each count, in either map, that the other does not repeat."""
    names = sorted((set(got) | set(expected)) - {"why"})
    return [f"{name}: expected {expected.get(name)!r}, got {got.get(name)!r}"
            for name in names if got.get(name) != expected.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare the traced pass's library call counts.")
    parser.add_argument("--expect", metavar="FILE",
                        help="a JSON object of the counts the line must repeat")
    args = parser.parse_args(argv)
    lines = sys.stdin.read().splitlines()
    try:
        got = library_calls(lines[-1])
    except (IndexError, ValueError, KeyError, TypeError):
        print("trace_calls: the last line of stdin is not a --trace 1 result", file=sys.stderr)
        return 2
    print(json.dumps(got))
    if args.expect is None:
        return 0
    with open(args.expect) as fh:
        bad = mismatches(got, json.load(fh))
    for line in bad:
        print(f"trace_calls: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

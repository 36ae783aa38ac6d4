"""Digest what the library prints, so that two checkouts can be compared
byte for byte with one command each.

    cd CHECKOUT && python3 /path/to/tools/output_digest.py

Run it from the root of a checkout: it imports ``char1`` from that
checkout's ``src`` and the benchmark's request generator from its
``perfbench``, so a checkout that predates this file is digested by running
another checkout's copy with the older checkout as the working directory.
It prints one JSON line, ``{"laws": md5, "cli": md5, "requests": N,
"error_exits": M, "suites": {suite: md5}, "verbs": {verb: md5}}``:

- ``laws`` hashes ``run_suite(...).to_json()`` (sorted keys) of every law
  suite, at seed 11 with the default case counts and at seed 7 with 40
  cases;
- ``cli`` hashes, for every request of ``perfbench.wl_cli.make_inputs`` at
  seeds 1-40, the verb, argv, stdin, exit code, stdout and stderr of an
  in-process ``char1.cli.main`` call; ``error_exits`` counts the requests
  that exit nonzero;
- ``suites`` and ``verbs`` hash the same lines split by suite and by verb,
  so a moved total can be traced to the suites or verbs that moved.

With ``--expect FILE`` it also compares the line with the values in FILE
(``tools/output_digest.expected.json`` holds ``laws``, ``cli``,
``requests`` and ``error_exits``), prints one line to stderr per value that
differs, and exits 1 if any does.  A change that moves an output on
purpose updates that file and says why under its key ``why``, which is
not compared.

Nothing in ``perfbench`` is changed.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

LAWS_RUNS = ((11, None), (7, 40))  # (seed, cases); None keeps each suite's default
CLI_SEEDS = range(1, 41)


def laws_digest(suites, runs=LAWS_RUNS) -> tuple[str, dict]:
    """(md5 over every report, {suite: md5 over that suite's reports})."""
    from char1.laws import run_suite

    h, parts = hashlib.md5(), {name: hashlib.md5() for name in suites}
    for seed, cases in runs:
        for name in suites:
            report = run_suite(name, seed=seed, cases=cases).to_json()
            line = json.dumps(report, sort_keys=True).encode() + b"\n"
            h.update(line)
            parts[name].update(line)
    return h.hexdigest(), {name: part.hexdigest() for name, part in parts.items()}


def run_request(verb, extra, text) -> tuple:
    """(exit code, stdout, stderr) of ``char1.cli.main`` on one request; an
    exception the CLI lets escape is recorded by its type name."""
    from char1 import cli

    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([verb, *extra])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback at the boundary: part of the output
        code = f"uncaught {type(exc).__name__}"
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def cli_digest(seeds=CLI_SEEDS) -> tuple[str, int, int, dict]:
    """(md5, requests, error exits, {verb: md5}) over the benchmark's CLI
    requests."""
    from perfbench import common, wl_cli

    mods = common.char1_modules()
    h, requests, errors, parts = hashlib.md5(), 0, 0, {}
    for seed in seeds:
        for verb, extra, text in wl_cli.make_inputs(mods, seed):
            code, out, err = run_request(verb, extra, text)
            line = json.dumps([verb, extra, text, code, out, err]).encode() + b"\n"
            h.update(line)
            parts.setdefault(verb, hashlib.md5()).update(line)
            requests += 1
            errors += code != 0
    verbs = {verb: parts[verb].hexdigest() for verb in sorted(parts)}
    return h.hexdigest(), requests, errors, verbs


def mismatches(got: dict, expected: dict) -> list[str]:
    """One line for each key of ``expected`` but ``why`` whose value ``got``
    does not have."""
    return [f"{key}: expected {want!r}, got {got.get(key)!r}"
            for key, want in expected.items() if key != "why" and got.get(key) != want]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Digest what the library prints.")
    parser.add_argument("--expect", metavar="FILE",
                        help="a JSON object of values the digest line must repeat")
    args = parser.parse_args(argv)
    root = os.getcwd()
    sys.path[:0] = [os.path.join(root, "src"), root]
    from char1.laws import SUITES

    laws_md5, suites = laws_digest(sorted(SUITES))
    cli_md5, requests, errors, verbs = cli_digest()
    got = {"laws": laws_md5, "cli": cli_md5, "requests": requests,
           "error_exits": errors, "suites": suites, "verbs": verbs}
    print(json.dumps(got))
    if args.expect is None:
        return 0
    with open(args.expect) as fh:
        bad = mismatches(got, json.load(fh))
    for line in bad:
        print(f"output_digest: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

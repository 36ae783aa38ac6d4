"""Digest what the library prints, so that two checkouts can be compared
byte for byte with one command each.

    cd CHECKOUT && python3 /path/to/tools/output_digest.py

Run it from the root of a checkout: it imports ``char1`` from that
checkout's ``src`` and the benchmark's request generator from its
``perfbench``, so a checkout that predates this file is digested by running
another checkout's copy with the older checkout as the working directory.
It prints one JSON line, ``{"laws": md5, "cli": md5, "requests": N,
"error_exits": M}``:

- ``laws`` hashes ``run_suite(...).to_json()`` (sorted keys) of every law
  suite, at seed 11 with the default case counts and at seed 7 with 40
  cases;
- ``cli`` hashes, for every request of ``perfbench.wl_cli.make_inputs`` at
  seeds 1-40, the verb, argv, stdin, exit code, stdout and stderr of an
  in-process ``char1.cli.main`` call; ``error_exits`` counts the requests
  that exit nonzero.

Nothing in ``perfbench`` is changed.  Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

LAWS_RUNS = ((11, None), (7, 40))  # (seed, cases); None keeps each suite's default
CLI_SEEDS = range(1, 41)


def laws_digest(suites, runs=LAWS_RUNS) -> str:
    from char1.laws import run_suite

    h = hashlib.md5()
    for seed, cases in runs:
        for name in suites:
            report = run_suite(name, seed=seed, cases=cases).to_json()
            h.update(json.dumps(report, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


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


def cli_digest(seeds=CLI_SEEDS) -> tuple[str, int, int]:
    """(md5, requests, error exits) over the benchmark's CLI requests."""
    from perfbench import common, wl_cli

    mods = common.char1_modules()
    h, requests, errors = hashlib.md5(), 0, 0
    for seed in seeds:
        for verb, extra, text in wl_cli.make_inputs(mods, seed):
            code, out, err = run_request(verb, extra, text)
            h.update(json.dumps([verb, extra, text, code, out, err]).encode() + b"\n")
            requests += 1
            errors += code != 0
    return h.hexdigest(), requests, errors


def main() -> int:
    root = os.getcwd()
    sys.path[:0] = [os.path.join(root, "src"), root]
    from char1.laws import SUITES

    laws_md5 = laws_digest(sorted(SUITES))
    cli_md5, requests, errors = cli_digest()
    print(json.dumps({"laws": laws_md5, "cli": cli_md5,
                      "requests": requests, "error_exits": errors}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The cli check: a response matches the replay, and a crash is a failure."""

import json
import os

from perfbench import wl_cli
from perfbench.common import char1_modules

M = char1_modules()
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
                   "src")
F = {"domain": ["0", "1"], "breakpoints": ["0", "1/2", "1"],
     "pieces": [{"a": "2", "b": "0"}, {"a": "-2", "b": "2"}]}


def _check(requests):
    env = wl_cli.child_env(SRC)
    done = [(i, *wl_cli.request(*req, env)) for i, req in enumerate(requests)]
    return wl_cli.check(M, requests, done)


def test_valid_and_rejected_payloads_pass():
    requests = [("paf-eval", [], json.dumps({"f": F, "t": "1/4"})),  # exit 0
                ("paf-eval", [], json.dumps({"f": F})),  # missing field: exit 1
                ("paf-eval", [], json.dumps({"f": F, "t": "2"}))]  # outside the domain: exit 2
    assert [wl_cli.Replay(M).run(*r)[0] for r in requests] == [0, 1, 2]
    assert _check(requests) == (0, 0)


def test_a_crash_counts_as_failed():
    # CirclePAF.from_json calls .get on a list: the CLI exits 1 with a traceback
    request = ("val-circle-check", [], json.dumps({"s": ["x"]}))
    assert wl_cli.Replay(M).run(*request) == (wl_cli.CRASH, "AttributeError")
    assert _check([request]) == (1, 1)
    # the replay's crash fails the response even if the child's output matched a clean exit 1
    assert wl_cli.check(M, [request], [(0, 0.1, 1, "", "")]) == (1, 0)


def test_a_traceback_counts_as_failed():
    request = ("paf-eval", [], json.dumps({"f": F, "t": "1/4"}))
    code, out = wl_cli.Replay(M).run(*request)
    assert wl_cli.check(M, [request], [(0, 0.1, code, out, "")]) == (0, 0)
    assert wl_cli.check(M, [request], [(0, 0.1, code, out, "Traceback ...")]) == (1, 1)

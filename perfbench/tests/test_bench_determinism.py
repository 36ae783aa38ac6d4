"""The same seed gives the same inputs and the same counts in a traced run."""

import pytest

from perfbench import layers, wl_cli, wl_large, wl_laws
from perfbench.common import char1_modules

M = char1_modules()


@pytest.mark.parametrize("workload", [wl_laws, wl_large, wl_cli])
def test_same_seed_same_inputs(workload):
    first = workload.make_inputs(M, 11)
    assert workload.make_inputs(M, 11) == first
    assert workload.make_inputs(M, 12) != first


def _counts(one_pass):
    _, tracer, kernel, _ = layers.traced_passes(M, one_pass)
    return kernel["calls"], {name: row["calls"] for name, row in tracer.summary().items()}


def _laws_pass(seed):
    inputs = {"seed": seed, "cycle": [("semifield", 2), ("norm", 2), ("congruence", 2),
                                      ("valuation", 2)]}
    return lambda tracer: wl_laws.run_cycle(M, inputs, 0, [])


def _large_pass(seed):
    inputs = wl_large.make_inputs(M, seed)
    inputs["calls"] = [c for c in inputs["calls"] if c.size in (8, 16)][::4]
    inputs["chains"] = [(start, steps[:6]) for start, steps in inputs["chains"][:1]]
    ops = wl_large.operations(M)
    return lambda tracer: wl_large.run_pass(ops, inputs)


def _cli_pass(seed):
    requests = wl_cli.make_inputs(M, seed)
    replay = wl_cli.Replay(M)
    return lambda tracer: [replay.run(*r, phase=tracer.span if tracer else None)
                           for r in requests]


@pytest.mark.parametrize("make_pass", [_laws_pass, _large_pass, _cli_pass])
def test_traced_counts_repeat(make_pass):
    kernel, calls = _counts(make_pass(5))
    assert kernel > 0 and sum(calls.values()) > 0
    assert _counts(make_pass(5)) == (kernel, calls)

"""Rates from synthetic timings: best times per input set, and the scaling
of times to nominal machine speed by the speed probes."""

import pytest

from perfbench import common, wl_cli, wl_large, wl_laws

NOMINAL = common.PROBE_NOMINAL_S


def test_large_keeps_best_time_per_input_set():
    passes = [
        [("paf.oplus", 16, 0, 0.004), ("spectrum.attain_norm", 64, 0, 0.010)],
        [("paf.oplus", 16, 0, 0.002), ("spectrum.attain_norm", 64, 1, 0.030)],
        [("paf.oplus", 16, 0, 0.003), ("spectrum.attain_norm", 64, 0, 0.020)],
    ]
    r = wl_large.rates(passes, [NOMINAL, 2 * NOMINAL])
    assert r["speed_scale"] == 1
    assert r["build_ops_per_s"] == pytest.approx(1 / 0.002)
    assert r["query_ops_per_s"] == pytest.approx(1 / 0.020)  # mean of 0.010 and 0.030
    assert r["ops_per_s"] == pytest.approx(2 / 0.022)


def test_large_scales_by_the_best_probe_of_the_run():
    passes = [[("paf.oplus", 16, 0, 0.004), ("paf.eval", 16, 0, 0.001)],
              [("paf.oplus", 16, 0, 0.002), ("paf.eval", 16, 0, 0.003)]]
    fast = wl_large.rates(passes, [NOMINAL, 3 * NOMINAL])
    slow = wl_large.rates(passes, [2 * NOMINAL, 3 * NOMINAL])
    assert slow["ops_per_s"] == pytest.approx(2 * fast["ops_per_s"])
    assert slow["latencies_s"] == pytest.approx([0.001, 0.0005])


def test_laws_scales_each_cycle_by_its_own_probes():
    rounds = [(0, "semifield", 1.0, 10, 0), (0, "norm", 1.0, 10, 0),
              (1, "semifield", 2.0, 10, 0), (1, "norm", 2.0, 10, 0)]
    # the second cycle ran while the probe took twice as long
    probes = [[NOMINAL], [2 * NOMINAL], [2 * NOMINAL]]
    r = wl_laws.rates(rounds, probes)
    assert r["ops_per_s"] == pytest.approx(10.0)
    assert r["latency_p50_s"] == pytest.approx(1.0)


def test_cli_scales_each_window_by_its_own_probes():
    requests = [("paf-eval", [], "{}"), ("paf-oplus", [], "{}")]
    w = wl_cli.WINDOW
    done = [(i % 2, 0.1, 0, "", "") for i in range(w)] + \
           [(i % 2, 0.2, 0, "", "") for i in range(w)]
    probes = [[NOMINAL], [2 * NOMINAL], [2 * NOMINAL]]
    r = wl_cli.rates(requests, done, probes)
    assert r["ops_per_s"] == pytest.approx(10.0)
    assert r["latencies_s"] == pytest.approx([0.1] * (2 * w))

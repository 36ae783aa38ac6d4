"""Span arithmetic and wrapper installation."""

from array import array

from perfbench import spans
from perfbench.common import char1_modules


def test_self_time_on_a_nested_tree():
    # root [0, 100) with children [10, 30) and [40, 90); the second has
    # children [45, 50) and [60, 70); a child that overhangs its parent
    # [95, 120) only covers [95, 100).
    parent = array("i", [-1, 0, 0, 2, 2, 0])
    start = array("q", [0, 10, 40, 45, 60, 95])
    end = array("q", [100, 30, 90, 50, 70, 120])
    assert spans.self_times(parent, start, end) == [100 - 20 - 50 - 5, 20, 50 - 15, 5, 10, 25]


def test_overlapping_children_are_merged():
    parent = array("i", [-1, 0, 0])
    start = array("q", [0, 10, 20])
    end = array("q", [100, 30, 40])
    assert spans.self_times(parent, start, end)[0] == 100 - 30


def test_calls_count_outermost_spans_only():
    tracer = spans.Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("a"):
                pass
    with tracer.span("a"):
        pass
    summary = tracer.summary()
    assert summary["a"]["calls"] == 2 and summary["b"]["calls"] == 1
    total = summary["a"]["self_s"] + summary["b"]["self_s"]
    assert abs(total - sum(tracer.durations("a"))) < 1e-9


def test_install_rebinds_every_reference_and_uninstall_restores():
    mods = char1_modules()
    cx, sp, laws, paf = mods["convex"], mods["spectrum"], mods["laws"], mods["paf"]
    before = (cx.char_eval, sp.char_eval, laws.SUITES["norm"], paf.PAF.__call__,
              vars(paf.PAF)["constant"])
    tracer = spans.Tracer()
    tracer.install(mods)
    try:
        assert sp.char_eval is cx.char_eval is not before[0]
        assert mods["package"].char_eval is cx.char_eval
        assert laws.SUITES["norm"] is laws.run_norm_suite is not before[2]
        assert paf.PAF.__call__ is paf.PAF.eval
        f = paf.PAF.constant(3)
        assert f(0) == 3 and f.eval(1) == 3
    finally:
        tracer.uninstall()
    assert (cx.char_eval, sp.char_eval, laws.SUITES["norm"], paf.PAF.__call__,
            vars(paf.PAF)["constant"]) == before
    summary = tracer.summary()
    assert summary["paf.eval"]["calls"] == 2
    assert summary["paf.construct"]["calls"] == 1  # constant() -> PAF(...) is one

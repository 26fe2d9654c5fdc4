"""Span nesting and self-time arithmetic of the tracer."""

import types

import numpy as np

import spans


def test_self_times_subtract_direct_children_only():
    # root [0, 100] > a [10, 40] > b [15, 35]; root > c [50, 90]
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 35, 90])
    parent = np.array([-1, 0, 1, 0])
    dur, own = spans.self_times(start, end, parent)
    assert dur.tolist() == [100, 30, 20, 40]
    assert own.tolist() == [30, 10, 20, 40]


def test_wrapped_calls_nest_and_group_by_pass():
    tracer = spans.Tracer()
    owner = types.SimpleNamespace()
    owner.leaf = lambda x: x + 1
    owner.mid = lambda x: owner.leaf(owner.leaf(x))
    owner.top = lambda x: owner.mid(x) * 2
    probes = [(owner, name, f"t.{name}", None, None) for name in ("leaf", "mid", "top")]
    # SimpleNamespace attributes live in vars(owner), like module globals
    tracer.install(probes)
    try:
        for _ in range(2):
            tracer.begin_pass()
            assert owner.top(1) == 6
    finally:
        tracer.uninstall()
    assert owner.top(1) == 6 and not hasattr(owner.top, "__wrapped__")

    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    assert names == ["t.top", "t.mid", "t.leaf", "t.leaf"] * 2
    assert a["parent"].tolist() == [-1, 0, 1, 1, -1, 4, 5, 5]
    assert a["pass_of"].tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    dur, own = spans.self_times(a["start"], a["end"], a["parent"])
    assert ((own >= 0) & (own <= dur)).all()

    rows, errors = spans.pass_totals(tracer)
    assert errors == []
    assert len(rows) == 2
    for p, row in enumerate(rows):
        assert row["t.leaf.calls"] == 2 and row["t.mid.calls"] == 1 and row["t.top.calls"] == 1
        in_pass = a["pass_of"] == p
        top = in_pass & (a["name"] == tracer.names.index("t.top"))
        assert row["t.top.s"] == dur[top].sum() / 1e9
        # self times of all spans of a pass add up to the root's duration
        assert abs(sum(row[f"t.{n}.self_s"] for n in ("leaf", "mid", "top")) - row["t.top.s"]) < 1e-12


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    traced = tracer.wrap(boom, "t.boom")
    tracer.begin_pass()
    try:
        traced()
    except ValueError:
        pass
    rows, errors = spans.pass_totals(tracer)
    assert errors == [] and rows[0]["t.boom.calls"] == 1
    assert tracer.end[0] >= tracer.start[0]


def test_open_span_is_reported():
    tracer = spans.Tracer()
    tracer.begin_pass()
    seen = []

    def inner():
        seen.append(spans.pass_totals(tracer)[1])

    tracer.wrap(inner, "t.inner")()
    assert "1 spans still open" in seen[0]

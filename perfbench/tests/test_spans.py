import pytest

from spans import Tracer, layer_self_time, span_stats


def test_self_time_subtracts_direct_children_only():
    # run 0..10 > step 1..7 > solve 2..5, and run > csv 8..9
    spans = [
        (0, None, "runner.run", 0.0, 10.0),
        (1, 0, "solver.step", 1.0, 7.0),
        (2, 1, "solver.solve", 2.0, 5.0),
        (3, 0, "runner.csv", 8.0, 9.0),
    ]
    st = span_stats(spans)
    assert st["runner.run"]["self_s"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert st["solver.step"]["self_s"] == pytest.approx(6.0 - 3.0)
    assert st["solver.solve"]["self_s"] == pytest.approx(3.0)
    assert st["runner.run"]["busy_s"] == pytest.approx(10.0)
    assert layer_self_time(st, "runner") == pytest.approx(3.0 + 1.0)
    assert layer_self_time(st, "solver") == pytest.approx(3.0 + 3.0)
    # self times of all spans add up to the root's duration
    assert sum(s["self_s"] for s in st.values()) == pytest.approx(10.0)


def test_busy_time_counts_a_reentered_name_once():
    spans = [
        (0, None, "fields.f", 0.0, 4.0),
        (1, 0, "fields.f", 1.0, 3.0),
        (2, None, "fields.f", 5.0, 6.0),
    ]
    st = span_stats(spans)["fields.f"]
    assert st["calls"] == 3
    assert st["busy_s"] == pytest.approx(4.0 + 1.0)
    assert st["self_s"] == pytest.approx(2.0 + 2.0 + 1.0)


def test_tracer_links_nested_calls_and_keeps_failed_spans():
    tr = Tracer(invocation=7)
    inner = tr.wrap("b.inner", lambda x: x + 1)

    def outer_fn(x):
        return inner(x) * 2

    seen = []
    outer = tr.wrap("a.outer", outer_fn, observe=lambda a, k, r: seen.append((a, r)))
    assert outer(1) == 4
    assert seen == [((1,), 4)]
    (o_id, o_parent, o_name, o_start, o_end), (i_id, i_parent, i_name, i_start, i_end) = tr.spans
    assert (o_name, o_parent, i_name, i_parent) == ("a.outer", None, "b.inner", o_id)
    assert o_start <= i_start <= i_end <= o_end

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("c.boom", boom)()
    assert tr.spans[-1][2] == "c.boom" and tr.spans[-1][1] is None
    assert tr._open == []

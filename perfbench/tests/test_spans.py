"""Span math, wrapping and the tail-percentile rule on known inputs."""

import threading

import pytest

from spans import (
    Recorder,
    Span,
    children_of,
    coverage,
    covered,
    median,
    outermost,
    self_time,
    tail,
    wrap_generator_method,
    wrap_method,
)


def _span(id, name, start, end, parent=None):
    return Span(id=id, name=name, start=start, end=end, parent=parent)


# A stage [0, 10] with two sibling children [1, 3] and [5, 9]; the
# second has a grandchild [6, 8] that must not be subtracted twice.
TREE = [
    _span(1, "stage", 0.0, 10.0),
    _span(2, "engine.join", 1.0, 3.0, parent=1),
    _span(3, "prune", 5.0, 9.0, parent=1),
    _span(4, "engine.domain_index", 6.0, 8.0, parent=3),
]


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert covered([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3.0)
    assert covered([], 0, 10) == 0.0


def test_self_time_subtracts_direct_children_once():
    kids = children_of(TREE)
    assert self_time(TREE[0], kids) == pytest.approx(10 - 2 - 4)
    assert self_time(TREE[2], kids) == pytest.approx(4 - 2)
    assert self_time(TREE[3], kids) == pytest.approx(2)


def test_self_time_with_a_child_filter():
    kids = children_of(TREE)
    engine_only = self_time(TREE[0], kids,
                            only=lambda c: c.name.startswith("engine."))
    assert engine_only == pytest.approx(10 - 2)


def test_coverage_is_share_of_wall_time_under_children():
    kids = children_of(TREE)
    assert coverage(TREE[0], kids) == pytest.approx(0.6)
    assert coverage(TREE[3], kids) == 0.0


def test_outermost_counts_a_nested_layer_once():
    nested = [
        _span(1, "engine.encode", 0.0, 4.0),
        _span(2, "engine.encode", 1.0, 2.0, parent=1),
        _span(3, "other", 5.0, 6.0),
        _span(4, "engine.encode", 5.2, 5.5, parent=3),
    ]
    picked = outermost(nested, {"engine.encode"})
    assert [s.id for s in picked] == [1, 4]


def test_recorder_nests_per_thread_and_tags_the_operation():
    rec = Recorder()
    rec.op = ("round", 3)
    with rec.span("outer") as outer:
        with rec.span("inner") as inner:
            pass
        seen = {}

        def other_thread():
            with rec.span("job") as job:
                seen["job"] = job

        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert inner.parent == outer.id
    assert outer.parent is None
    assert seen["job"].parent is None  # another thread starts a new root
    assert {s.op for s in rec.spans} == {("round", 3)}
    assert outer.start <= inner.start <= inner.end <= outer.end


class _Base:
    def work(self, x):
        return x * 2

    def chunks(self, n):
        for i in range(n):
            yield list(range(i + 1))


class _Child(_Base):
    pass


def test_wrap_method_records_and_undo_restores_inheritance():
    rec = Recorder()
    undo = wrap_method(rec, _Child, "work", "layer",
                       on_result=lambda sp, a, k, r: sp.attrs.update(out=r))
    assert _Child().work(4) == 8
    assert [(s.name, s.attrs["out"]) for s in rec.spans] == [("layer", 8)]
    undo()
    assert "work" not in _Child.__dict__
    assert _Child().work(1) == 2
    assert len(rec.spans) == 1


def test_generator_wrapping_times_each_next_outside_the_consumer():
    rec = Recorder()
    undo = wrap_generator_method(
        rec, _Child, "chunks", "partition",
        on_item=lambda sp, item: sp.attrs.update(pairs=len(item)))
    try:
        with rec.span("compile") as compile_span:
            for _chunk in _Child().chunks(3):
                with rec.span("factor_tables"):
                    pass
    finally:
        undo()
    parts = [s for s in rec.spans if s.name == "partition"]
    tables = [s for s in rec.spans if s.name == "factor_tables"]
    # Three items plus the final next() that raised StopIteration.
    assert len(parts) == 4
    assert [s.attrs.get("pairs") for s in parts] == [1, 2, 3, None]
    assert all(s.parent == compile_span.id for s in parts + tables)
    # Producer and consumer spans never overlap.
    for part in parts:
        for table in tables:
            assert part.end <= table.start or table.end <= part.start
    assert "chunks" not in _Child.__dict__


def test_tail_leaves_ten_samples_beyond():
    samples = list(range(1, 21))  # 1..20
    value, percentile, n = tail(samples)
    assert (value, percentile, n) == (10, 50.0, 20)
    assert sum(1 for s in samples if s > value) == 10

    value, percentile, n = tail(range(100, 0, -1))  # 1..100, unsorted
    assert (value, percentile, n) == (90, 90.0, 100)

    value, percentile, n = tail([5.0] * 11)
    assert (value, percentile) == (5.0, pytest.approx(100 / 11))


def test_tail_with_ten_or_fewer_samples_reports_the_maximum():
    assert tail([3, 1, 2]) == (3, 100.0, 3)
    assert tail(list(range(10))) == (9, 100.0, 10)
    with pytest.raises(ValueError):
        tail([])


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5

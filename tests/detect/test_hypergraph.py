"""Tests for the conflict hypergraph and Algorithm 3 components."""

import pickle
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HoloCleanConfig
from repro.core.pipeline import HoloClean
from repro.data.generators.hospital import generate_hospital
from repro.dataset.dataset import Cell
from repro.detect.hypergraph import Block, ConflictHypergraph, Violation
from repro.detect.violations import ViolationDetector


def v(name, *tids):
    cells = tuple(Cell(t, "A") for t in tids)
    return Violation(name, tuple(tids), cells)


class TestViolation:
    def test_requires_tuples(self):
        with pytest.raises(ValueError, match="at least one"):
            Violation("dc", (), ())

    def test_frozen(self):
        violation = v("dc", 1, 2)
        with pytest.raises(AttributeError):
            violation.tids = (3,)


class TestConflictHypergraph:
    def test_add_and_count(self):
        h = ConflictHypergraph()
        h.add(v("dc1", 1, 2))
        h.add(v("dc2", 3))
        assert len(h) == 2
        assert h.violation_count("dc1") == 1
        assert h.violation_count() == 2

    def test_by_constraint(self):
        h = ConflictHypergraph()
        h.add(v("dc1", 1, 2))
        h.add(v("dc1", 2, 3))
        h.add(v("dc2", 9, 10))
        assert len(h.by_constraint("dc1")) == 2
        assert h.by_constraint("missing") == []

    def test_cells_union(self):
        h = ConflictHypergraph()
        h.add(v("dc1", 1, 2))
        h.add(v("dc1", 2, 3))
        assert h.cells() == {Cell(1, "A"), Cell(2, "A"), Cell(3, "A")}

    def test_tuples(self):
        h = ConflictHypergraph()
        h.add(v("dc1", 1, 2))
        h.add(v("dc2", 7))
        assert h.tuples() == {1, 2, 7}

    def test_merge(self):
        a, b = ConflictHypergraph(), ConflictHypergraph()
        a.add(v("dc1", 1, 2))
        b.add(v("dc2", 3, 4))
        a.merge(b)
        assert len(a) == 2
        assert set(a.constraint_names) == {"dc1", "dc2"}


class TestTupleComponents:
    def test_transitive_grouping(self):
        h = ConflictHypergraph()
        h.add(v("dc", 1, 2))
        h.add(v("dc", 2, 3))
        h.add(v("dc", 7, 8))
        components = h.tuple_components("dc")
        as_sets = sorted(sorted(c) for c in components)
        assert as_sets == [[1, 2, 3], [7, 8]]

    def test_per_constraint_isolation(self):
        h = ConflictHypergraph()
        h.add(v("dc1", 1, 2))
        h.add(v("dc2", 2, 3))
        assert sorted(sorted(c) for c in h.tuple_components("dc1")) == [[1, 2]]
        assert sorted(sorted(c) for c in h.tuple_components("dc2")) == [[2, 3]]

    def test_single_tuple_violation_is_singleton_component(self):
        h = ConflictHypergraph()
        h.add(v("dc", 5))
        assert h.tuple_components("dc") == [{5}]

    def test_all_components(self):
        h = ConflictHypergraph()
        h.add(v("dc1", 1, 2))
        h.add(v("dc2", 3))
        grouped = h.all_components()
        assert set(grouped) == {"dc1", "dc2"}


def reference_components(violations) -> list[set[int]]:
    """Union-find oracle: components in first-registration order.

    Each violation registers its first tuple, then unions every other
    tuple into it; a component's position is that of its earliest
    registered member.
    """
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    for violation in violations:
        first = violation.tids[0]
        find(first)
        for other in violation.tids[1:]:
            ra, rb = find(first), find(other)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, set[int]] = defaultdict(set)
    for x in parent:
        groups[find(x)].add(x)
    return list(groups.values())


tid_lists = st.lists(
    st.lists(st.integers(0, 30), min_size=1, max_size=3, unique=True), max_size=40
)


class TestComponentOrder:
    def test_order_is_first_registration(self):
        h = ConflictHypergraph()
        for tids in [(9, 3), (2, 8), (5,), (8, 1)]:
            h.add(v("dc", *tids))
        assert h.tuple_components("dc") == [{9, 3}, {2, 8, 1}, {5}]

    def test_late_bridge_keeps_earliest_position(self):
        h = ConflictHypergraph()
        for tids in [(4, 5), (1, 2), (6, 7), (7, 4)]:
            h.add(v("dc", *tids))
        assert h.tuple_components("dc") == [{4, 5, 6, 7}, {1, 2}]

    def test_single_tuple_singletons_in_order(self):
        h = ConflictHypergraph()
        for tids in [(5,), (3,), (5, 8), (0,)]:
            h.add(v("dc", *tids))
        assert h.tuple_components("dc") == [{5, 8}, {3}, {0}]

    def test_merge_appends_in_order(self):
        a, b = ConflictHypergraph(), ConflictHypergraph()
        a.add(v("dc", 5, 6))
        a.add(v("other", 1, 2))
        b.add(v("dc", 1, 2))
        b.add(v("dc", 7))
        b.add(v("dc", 2, 6))
        a.merge(b)
        assert a.tuple_components("dc") == [{5, 6, 1, 2}, {7}]
        assert a.tuple_components("other") == [{1, 2}]
        assert a.constraint_names == ["dc", "other"]
        tids = [x.tids for x in a.violations]
        assert tids == [(5, 6), (1, 2), (1, 2), (7,), (2, 6)]

    @settings(max_examples=60, deadline=None)
    @given(tid_lists)
    def test_matches_union_find_oracle(self, edges):
        h = ConflictHypergraph()
        for tids in edges:
            h.add(v("dc", *tids))
        assert h.tuple_components("dc") == reference_components(h.violations)

    def test_matches_oracle_on_detected_hypergraph(self):
        generated = generate_hospital(num_rows=200)
        detector = ViolationDetector(generated.constraints)
        h = detector.detect(generated.dirty).hypergraph
        for name in h.constraint_names:
            expected = reference_components(h.by_constraint(name))
            assert h.tuple_components(name) == expected


class TestColumnarStorage:
    def test_add_block_and_view(self):
        h = ConflictHypergraph()
        layout = ((0, "A"), (1, "A"), (1, "B"))
        h.add_block("dc", np.array([[1, 2], [4, 3]]), layout)
        assert h.violations == [
            Violation("dc", (1, 2), (Cell(1, "A"), Cell(2, "A"), Cell(2, "B"))),
            Violation("dc", (4, 3), (Cell(4, "A"), Cell(3, "A"), Cell(3, "B"))),
        ]
        expected = {Cell(1, "A"), Cell(2, "A"), Cell(2, "B")}
        expected |= {Cell(4, "A"), Cell(3, "A"), Cell(3, "B")}
        assert h.cells() == expected

    def test_empty_block_is_not_recorded(self):
        h = ConflictHypergraph()
        h.add_block("dc", np.empty((0, 2), dtype=np.int32), ((0, "A"),))
        assert len(h) == 0
        assert h.constraint_names == []
        assert h.cells() == set()
        assert h.tuples() == set()

    def test_violation_without_cells(self):
        h = ConflictHypergraph()
        h.add(Violation("dc", (4,), ()))
        assert h.cells() == set()
        assert h.tuples() == {4}
        assert h.violations == [Violation("dc", (4,), ())]

    def test_cell_outside_tuples_rejected(self):
        with pytest.raises(ValueError, match="belong"):
            ConflictHypergraph().add(Violation("dc", (1,), (Cell(2, "A"),)))

    def test_view_refreshes_after_append(self):
        h = ConflictHypergraph()
        h.add(v("dc", 1, 2))
        assert len(h.violations) == 1
        h.add(v("dc", 3, 4))
        assert [x.tids for x in h.violations] == [(1, 2), (3, 4)]

    def test_pickle_round_trip_exact(self):
        generated = generate_hospital(num_rows=200)
        detector = ViolationDetector(generated.constraints)
        detection = detector.detect(generated.dirty)
        blob = pickle.dumps(detection, protocol=pickle.HIGHEST_PROTOCOL)
        back = pickle.loads(blob)
        assert back.noisy_cells == detection.noisy_cells
        h, restored = detection.hypergraph, back.hypergraph
        assert len(restored._blocks) == len(h._blocks)
        for ours, theirs in zip(h._blocks, restored._blocks):
            assert theirs.constraint_name == ours.constraint_name
            assert theirs.layout == ours.layout
            assert theirs.tids.dtype == np.int32
            assert np.array_equal(theirs.tids, ours.tids)
        assert restored.violations == h.violations
        assert restored.constraint_names == h.constraint_names
        assert restored.all_components() == h.all_components()
        for name in h.constraint_names:
            assert restored.constraint(name) == h.constraint(name)

    def test_pickle_carries_no_violation_objects(self):
        h = ConflictHypergraph()
        h.add(v("dc", 1, 2))
        assert len(h.violations) == 1  # the cached view must not be pickled
        assert b"Violation" not in pickle.dumps(h)

    def test_default_repair_never_materializes_violations(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("Violation view materialized")

        monkeypatch.setattr(Block, "violations", forbidden)
        generated = generate_hospital(num_rows=120)
        repairer = HoloClean(HoloCleanConfig())
        result = repairer.repair(generated.dirty, generated.constraints)
        assert result.repairs

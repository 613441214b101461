"""Conflict hypergraphs over detected violations.

Following Kolahi & Lakshmanan [26] and Section 5.1.2 of the paper: nodes
are cells that participate in detected violations; each hyperedge links the
cells involved in one violation and is annotated with the constraint that
produced it.  Algorithm 3 derives, per constraint, the connected components
of tuples — the groups inside which denial-constraint factors are grounded.

Storage is columnar: violations live in append-ordered blocks
(:class:`Block`), each one constraint's ``int32`` tid array of shape
``(n, arity)`` plus the cell layout its rows share.  Detection, Algorithm 3
and checkpoints work on these arrays; the :class:`Violation` objects of
:attr:`ConflictHypergraph.violations` are a lazily built, cached view for
callers that walk hyperedges one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constraints.denial import DenialConstraint
from repro.dataset.dataset import Cell

#: ``(tuple position, attribute)`` per cell of a violation, in cell order.
Layout = tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class Violation:
    """One hyperedge: a constraint together with the tuples/cells it links."""

    constraint_name: str
    tids: tuple[int, ...]
    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        if not self.tids:
            raise ValueError("violation must involve at least one tuple")


@dataclass(frozen=True)
class Block:
    """Consecutive violations of one constraint that share a cell layout.

    Row ``i`` of ``tids`` holds one violation's tuple ids; its cells are
    ``Cell(tids[i, position], attribute)`` for each entry of ``layout``.
    """

    constraint_name: str
    tids: np.ndarray
    layout: Layout

    def violations(self) -> list[Violation]:
        name, layout, make_cell = self.constraint_name, self.layout, Cell._make
        out = []
        # repro: allow-loop the object view is the API boundary: one object per row
        for row in self.tids.tolist():
            cells = tuple([make_cell((row[p], a)) for p, a in layout])
            out.append(Violation(name, tuple(row), cells))
        return out


class ConflictHypergraph:
    """All violations detected in a dataset, with per-constraint views."""

    def __init__(self, constraints: list[DenialConstraint] | None = None):
        self._blocks: list[Block] = []
        self._constraints = {c.name: c for c in (constraints or [])}
        self._view: list[Violation] | None = None

    def __getstate__(self) -> dict:
        blocks = [(b.constraint_name, b.tids, b.layout) for b in self._blocks]
        return {"constraints": self._constraints, "blocks": blocks}

    def __setstate__(self, state: dict) -> None:
        self._constraints = state["constraints"]
        self._blocks = [Block(*fields) for fields in state["blocks"]]
        self._view = None

    # ------------------------------------------------------------------
    def add_block(self, constraint_name: str, tids, layout: Layout) -> None:
        """Append violations of one constraint as an ``(n, arity)`` tid array."""
        tids = np.asarray(tids, dtype=np.int32)
        if tids.ndim != 2 or not tids.shape[1]:
            raise ValueError("violation tids must form an (n, arity ≥ 1) array")
        if len(tids):
            self._blocks.append(Block(constraint_name, tids, tuple(layout)))
            self._view = None

    def add(self, violation: Violation) -> None:
        """Append one violation given as an object."""
        tids = violation.tids
        try:
            layout = tuple((tids.index(c.tid), c.attribute) for c in violation.cells)
        except ValueError:
            raise ValueError("violation cells must belong to its tuples") from None
        self.add_block(violation.constraint_name, [tids], layout)

    def extend(self, violations) -> None:
        for v in violations:
            self.add(v)

    @property
    def violations(self) -> list[Violation]:
        """Every violation as an object, in detection order (cached view)."""
        if self._view is None:
            self._view = [v for b in self._blocks for v in b.violations()]
        return self._view

    def by_constraint(self, name: str) -> list[Violation]:
        return [v for v in self.violations if v.constraint_name == name]

    @property
    def constraint_names(self) -> list[str]:
        return list(dict.fromkeys(b.constraint_name for b in self._blocks))

    def constraint(self, name: str) -> DenialConstraint | None:
        return self._constraints.get(name)

    def cells(self) -> set[Cell]:
        """All cells appearing in any violation (the noisy-cell candidates)."""
        names = sorted({a for b in self._blocks for _, a in b.layout})
        code = {a: i for i, a in enumerate(names)}
        width = len(names)
        keys = [
            b.tids[:, p].astype(np.int64) * width + code[a]
            for b in self._blocks
            for p, a in b.layout
        ]
        if not keys:
            return set()
        tids, codes = np.divmod(np.unique(np.concatenate(keys)), width)
        attrs = np.asarray(names, dtype=object)[codes].tolist()
        return set(map(Cell._make, zip(tids.tolist(), attrs)))

    def tuples(self) -> set[int]:
        if not self._blocks:
            return set()
        flat = np.concatenate([b.tids.ravel() for b in self._blocks])
        return set(np.unique(flat).tolist())

    def violation_count(self, constraint_name: str | None = None) -> int:
        return sum(
            len(b.tids)
            for b in self._blocks
            if constraint_name in (None, b.constraint_name)
        )

    # ------------------------------------------------------------------
    # Algorithm 3: per-constraint connected components of tuples
    # ------------------------------------------------------------------
    def tuple_components(self, constraint_name: str) -> list[set[int]]:
        """Connected components of the subgraph H_σ for one constraint.

        Tuples are connected when they co-occur in a violation of σ; each
        component is a group over which DC factors are grounded.
        Components come in the order their first member appears in the
        violation stream (row by row, first tuple first); the DC-factor
        pair stream walks them in this order.
        """
        arrays = [b.tids for b in self._blocks if b.constraint_name == constraint_name]
        if not arrays:
            return []
        # Number tuples by first appearance, so the smallest number in a
        # component is its first-registered member.
        flat = np.concatenate([t.ravel() for t in arrays])
        uniq, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
        by_first = np.argsort(first, kind="stable")
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[by_first] = np.arange(len(uniq))
        node = rank[inverse.ravel()]
        heads, tails, offset = [], [], 0
        for tids in arrays:
            local = node[offset : offset + tids.size].reshape(tids.shape)
            offset += tids.size
            # Each violation links its first tuple to every other one.
            heads.append(np.repeat(local[:, 0], tids.shape[1] - 1))
            tails.append(local[:, 1:].ravel())
        labels = _component_labels(len(uniq), heads, tails)
        order = np.argsort(labels, kind="stable")
        bounds = np.flatnonzero(np.diff(labels[order])) + 1
        groups = np.split(uniq[by_first][order], bounds)
        return [set(group.tolist()) for group in groups]

    def all_components(self) -> dict[str, list[set[int]]]:
        """Algorithm 3's output: constraint → list of tuple groups."""
        return {name: self.tuple_components(name) for name in self.constraint_names}

    def merge(self, other: "ConflictHypergraph") -> None:
        """Absorb another hypergraph (used by the ensemble detector)."""
        for name, dc in other._constraints.items():
            self._constraints.setdefault(name, dc)
        self._blocks.extend(other._blocks)
        self._view = None

    def __len__(self) -> int:
        return self.violation_count()


def _component_labels(
    n: int, heads: list[np.ndarray], tails: list[np.ndarray]
) -> np.ndarray:
    """Component label of each of ``n`` nodes under edges ``heads – tails``.

    Min-label propagation with pointer jumping: every node ends up
    labelled with the smallest node number in its component.
    """
    parent = np.arange(n, dtype=np.int64)
    a, b = np.concatenate(heads), np.concatenate(tails)
    while True:
        ra, rb = parent[a], parent[b]
        unmerged = ra != rb
        if not unmerged.any():
            return parent
        ra, rb = ra[unmerged], rb[unmerged]
        low = np.minimum(ra, rb)
        np.minimum.at(parent, ra, low)
        np.minimum.at(parent, rb, low)
        jumped = parent[parent]
        while not np.array_equal(jumped, parent):
            parent, jumped = jumped, jumped[jumped]

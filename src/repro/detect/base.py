"""Detector interface and detection results.

Every detector maps a dataset to a set of *noisy* cells ``D_n``; the clean
cells are ``D_c = D \\ D_n`` (Section 2.2).  Detectors that reason about
constraints additionally return the conflict hypergraph they discovered.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.dataset.dataset import Cell, Dataset
from repro.detect.hypergraph import ConflictHypergraph


@dataclass
class DetectionResult:
    """Noisy cells plus (optionally) the conflict hypergraph behind them."""

    noisy_cells: set[Cell] = field(default_factory=set)
    hypergraph: ConflictHypergraph = field(default_factory=ConflictHypergraph)

    def clean_cells(self, dataset: Dataset,
                    attributes: list[str] | None = None) -> list[Cell]:
        """``D_c``: every cell of the dataset not flagged noisy.

        Restricted to ``attributes`` when given (e.g. only repairable data
        attributes).
        """
        attrs = attributes if attributes is not None else dataset.schema.names
        return [
            Cell(tid, a)
            for tid in dataset.tuple_ids
            for a in attrs
            if Cell(tid, a) not in self.noisy_cells
        ]

    def __getstate__(self) -> dict:
        # Noisy cells travel as a tid array plus attribute codes: service
        # checkpoints pickle this on every feedback round.
        state = dict(self.__dict__)
        cells = state.pop("noisy_cells")
        names = sorted({c.attribute for c in cells})
        code = {a: i for i, a in enumerate(names)}
        state["noisy_cells"] = (
            names,
            np.array([c.tid for c in cells], dtype=np.int32),
            np.array([code[c.attribute] for c in cells], dtype=np.int32),
        )
        return state

    def __setstate__(self, state: dict) -> None:
        names, tids, codes = state.pop("noisy_cells")
        attrs = np.asarray(names, dtype=object)[codes].tolist()
        self.__dict__.update(state)
        self.noisy_cells = set(map(Cell._make, zip(tids.tolist(), attrs)))

    def merge(self, other: "DetectionResult") -> None:
        self.noisy_cells |= other.noisy_cells
        self.hypergraph.merge(other.hypergraph)

    def __repr__(self) -> str:
        return (f"DetectionResult(noisy_cells={len(self.noisy_cells)}, "
                f"violations={len(self.hypergraph)})")


class ErrorDetector(abc.ABC):
    """Base class for all error detectors."""

    @abc.abstractmethod
    def detect(self, dataset: Dataset) -> DetectionResult:
        """Return the noisy cells this detector finds in ``dataset``."""

    @property
    def name(self) -> str:
        return type(self).__name__

"""Vectorized relational engine for grounding (the paper's DBMS layer).

HoloClean grounds its probabilistic model with relational queries inside
a DBMS (Postgres + DeepDive, §4–5 of the paper); this package is the
reproduction's equivalent subsystem:

* :mod:`~repro.engine.store` — :class:`ColumnStore`, a dictionary-encoded
  columnar snapshot of a dataset;
* :mod:`~repro.engine.ops` — vectorized join / group-by / counting
  primitives over coded columns;
* :mod:`~repro.engine.stats` — :class:`EngineStatistics`, engine-computed
  frequencies and co-occurrences behind the standard ``Statistics`` API;
* :mod:`~repro.engine.backend` — the pluggable :class:`Backend` protocol
  with a ``register_backend`` registry (NumPy and sqlite3 built in).

The :class:`Engine` facade bundles one store with one backend and is what
the pipeline passes to the violation detector, domain pruner, and
compiler when ``HoloCleanConfig.use_engine`` is on (the default).  Every
engine-backed path returns byte-identical results to the naive Python
path, which is kept as a correctness oracle.
"""

from __future__ import annotations

from repro.dataset.dataset import Dataset
from repro.engine.backend import (
    Backend,
    NumpyBackend,
    SQLiteBackend,
    backend_names,
    make_backend,
    register_backend,
)
from repro.engine.store import NULL_CODE, ColumnStore


class Engine:
    """One dataset's column store plus a relational execution backend.

    Construction is cheap; the store and backend are built lazily on
    first use and cached.  ``refresh()`` drops them so the next access
    re-encodes the (mutated) dataset.
    """

    def __init__(self, dataset: Dataset, backend: str = "numpy"):
        self.dataset = dataset
        self.backend_name = backend
        if backend not in backend_names():
            raise ValueError(
                f"unknown engine backend {backend!r}; "
                f"pick one of {backend_names()}")
        self._store: ColumnStore | None = None
        self._backend: Backend | None = None
        self._statistics = None

    # ------------------------------------------------------------------
    @property
    def store(self) -> ColumnStore:
        if self._store is None:
            self._store = ColumnStore(self.dataset)
        return self._store

    @property
    def backend(self) -> Backend:
        if self._backend is None:
            self._backend = make_backend(self.store, self.backend_name)
        return self._backend

    def statistics(self):
        """An :class:`~repro.engine.stats.EngineStatistics` over this engine
        (one shared instance, so counts feed the domain pruner and the
        co-occurrence featurizers without recomputation)."""
        if self._statistics is None:
            from repro.engine.stats import EngineStatistics

            self._statistics = EngineStatistics(self)
        return self._statistics

    def close(self) -> None:
        """Release backend resources (the SQLite connection)."""
        backend = self._backend
        if backend is not None:
            close = getattr(backend, "close", None)
            if close is not None:
                close()

    def refresh(self) -> None:
        """Invalidate the encoded snapshot after the dataset was mutated."""
        self.close()
        self._store = None
        self._backend = None
        if self._statistics is not None:
            # Cached counts were computed from the stale encoding; drop
            # them so any caller still holding the instance stays honest.
            stats = self._statistics
            self._statistics = None
            stats.drop_caches()

    def __repr__(self) -> str:
        return f"Engine(backend={self.backend_name!r}, dataset={self.dataset.name!r})"


__all__ = [
    "Backend",
    "ColumnStore",
    "Engine",
    "NULL_CODE",
    "NumpyBackend",
    "SQLiteBackend",
    "backend_names",
    "make_backend",
    "register_backend",
]

"""Golden lock on violation detection.

The engine-vs-naive suites prove the fast detector matches the naive one,
but a change in code both paths share (the hypergraph, the predicate
evaluators, the generators) moves both sides at once and passes them.
This test pins sha256 digests of what detection produces on small
fixed-seed instances of the paper's four generators:

- the ordered violation list ``(constraint, tids, cells)``;
- the noisy-cell set;
- the ordered ``tuple_components`` of every constraint (Algorithm 3),
  whose order the DC-factor pair stream depends on.

Regenerate ``detection.json`` only for a deliberate semantic change::

    PYTHONPATH=src python tests/golden/test_detection_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.data import GENERATORS
from repro.detect.violations import ViolationDetector
from repro.engine import Engine

GOLDEN = Path(__file__).with_name("detection.json")

#: (generator name, size argument, seed): small enough to run in seconds.
INSTANCES = {
    "hospital": ({"num_rows": 300}, 7),
    "flights": ({"num_flights": 10}, 11),
    "food": ({"num_rows": 400}, 23),
    "physicians": ({"num_rows": 400}, 31),
}


def _sha(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def detection_digests(detection) -> dict:
    """The three digests (plus plain counts, for readable failures)."""
    hypergraph = detection.hypergraph
    violations = [[v.constraint_name, list(v.tids),
                   [[c.tid, c.attribute] for c in v.cells]]
                  for v in hypergraph.violations]
    noisy = sorted([c.tid, c.attribute] for c in detection.noisy_cells)
    components = [[name, [sorted(c) for c in hypergraph.tuple_components(name)]]
                  for name in hypergraph.constraint_names]
    return {
        "violations": len(violations),
        "noisy_cells": len(noisy),
        "violations_sha256": _sha(violations),
        "noisy_cells_sha256": _sha(noisy),
        "components_sha256": _sha(components),
    }


def generate(name: str):
    kwargs, seed = INSTANCES[name]
    return GENERATORS[name](seed=seed, **kwargs)


def compute_all() -> dict:
    out = {}
    for name in INSTANCES:
        generated = generate(name)
        detection = ViolationDetector(generated.constraints).detect(generated.dirty)
        out[name] = detection_digests(detection)
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("engine", [False, True], ids=["naive", "engine"])
@pytest.mark.parametrize("name", list(INSTANCES))
def test_detection_matches_golden(name, engine, golden):
    generated = generate(name)
    detector = ViolationDetector(
        generated.constraints,
        engine=Engine(generated.dirty) if engine else None)
    digests = detection_digests(detector.detect(generated.dirty))
    assert digests["violations"] > 0  # the lock is not vacuous
    assert digests == golden[name]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    if "--write" not in sys.argv[1:]:
        print(json.dumps(compute_all(), indent=2))
    else:
        GOLDEN.write_text(json.dumps(compute_all(), indent=2) + "\n")
        print(f"wrote {GOLDEN}")

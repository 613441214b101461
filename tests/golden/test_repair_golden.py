"""Golden lock on end-to-end repairs.

The oracle suites prove each vectorized stage matches its naive twin, but
a change in code both sides share (learning, inference, apply, the
generators) moves both at once and passes them.  This test pins a sha256
over every inferred cell of a full repair on small fixed-seed instances
of the paper's four generators, under four configurations: the default
model, DC factors with Algorithm 3 partitioning, DC features plus DC
factors (Gibbs inference), and SQLite grounding.

Each row is ``(tid, attribute, chosen value, domain, marginal)``, with
marginals rounded to 6 decimals so the lock holds across NumPy versions.

Regenerate ``repairs.json`` only for a deliberate behaviour change::

    PYTHONPATH=src python tests/golden/test_repair_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import HoloClean, HoloCleanConfig
from repro.data import GENERATORS

GOLDEN = Path(__file__).with_name("repairs.json")
REPO = Path(__file__).resolve().parents[2]

#: (generator size arguments, seed): small enough to repair in seconds.
INSTANCES = {
    "hospital": ({"num_rows": 200}, 7),
    "flights": ({"num_flights": 6}, 11),
    "food": ({"num_rows": 200}, 23),
    "physicians": ({"num_rows": 200}, 31),
}

#: Short Gibbs chains: sampling dominates the factor configs' run time.
_SHORT_GIBBS = {"gibbs_burn_in": 2, "gibbs_sweeps": 8}

#: Config overrides per locked configuration.
CONFIGS = {
    "default": {},
    "dc-factors+partitioning": {"use_dc_factors": True,
                                "use_partitioning": True, **_SHORT_GIBBS},
    "gibbs": {"use_dc_factors": True, **_SHORT_GIBBS},
    "sqlite": {"engine_backend": "sqlite"},
}


def _sha(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def repair_digest(result) -> dict:
    """Digest of every inferred cell (plus counts, for readable failures)."""
    rows = sorted(
        [cell.tid, cell.attribute, inf.chosen_value, list(inf.domain),
         [round(float(p), 6) for p in inf.marginal]]
        for cell, inf in result.inferences.items())
    return {"repairs": result.num_repairs, "cells": len(rows),
            "sha256": _sha(rows)}


def run_repair(name: str, config_name: str):
    kwargs, seed = INSTANCES[name]
    generated = GENERATORS[name](seed=seed, **kwargs)
    config = HoloCleanConfig(
        tau=generated.recommended_tau,
        source_entity_attributes=generated.source_entity_attributes,
        epochs=20, seed=seed, **CONFIGS[config_name])
    return HoloClean(config).repair(generated.dirty, generated.constraints)


def compute_all() -> dict:
    return {name: {cfg: repair_digest(run_repair(name, cfg)) for cfg in CONFIGS}
            for name in INSTANCES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("name", list(INSTANCES))
def test_repair_matches_golden(name, config_name, golden):
    digest = repair_digest(run_repair(name, config_name))
    assert digest["cells"] > 0  # the lock is not vacuous
    assert digest == golden[name][config_name]


def test_repair_independent_of_hash_seed():
    """String hashing is salted per process; repairs must not depend on it."""
    digests = []
    for hash_seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": str(REPO / "src")}
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--digest", "hospital",
             "default"],
            env=env, cwd=REPO, capture_output=True, text=True, check=True)
        digests.append(json.loads(out.stdout))
    assert digests[0]["cells"] > 0
    assert digests[0] == digests[1]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    args = sys.argv[1:]
    if args[:1] == ["--digest"]:
        print(json.dumps(repair_digest(run_repair(args[1], args[2]))))
    elif "--write" in args:
        GOLDEN.write_text(json.dumps(compute_all(), indent=2) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        print(json.dumps(compute_all(), indent=2))

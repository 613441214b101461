"""Seeded workload inputs: datasets, constraints, configs and schedules.

Everything a workload hands the program is derived here from the
workload seed, so the same seed gives byte-identical inputs
(``tests/test_inputs.py`` checks it).  The workload seed is the
program's RNG seed (``HoloCleanConfig.seed``), and the feedback and read
schedules draw from their own ``numpy`` generators seeded from it.  The
generator seed is the workload seed too, except for workloads that pin
``dataset_seed`` (see :class:`Workload`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

#: Feedback cells per feedback request.
FEEDBACK_CELLS = 5
#: Point reads after each feedback on the batch workloads (the serving
#: workload sends one read per round, over HTTP).  Three rounds then give
#: 30 reads, enough for the tail rule to land above the median.
BATCH_READS = 10


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what is generated and how it is driven."""

    name: str
    why: str
    #: ``batch`` drives ``RepairPlan`` in-process; ``serve`` drives a
    #: ``RepairServer`` over HTTP.
    kind: str
    #: Repair F1 below this fails the output check.
    f1_floor: float
    #: Rounds a run makes at least, whatever ``--seconds`` says.
    min_rounds: int
    #: A fixed generator seed, for datasets whose repair cost and F1 swing
    #: with the generated data far more than the machine's own noise;
    #: ``None`` generates the dataset from the workload seed.
    dataset_seed: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hospital-batch",
            why="default-config Hospital repair: detect, Algorithm 2 "
                "pruning and featurization dominate; Gibbs never runs",
            kind="batch",
            f1_floor=0.85,
            min_rounds=1,
        ),
        Workload(
            name="physicians-gibbs",
            why="Physicians with DC factors and partitioning: the only "
                "workload where pair enumeration, factor tables and Gibbs "
                "sampling run",
            kind="batch",
            f1_floor=0.75,
            min_rounds=1,
            # Over seeds 31-60 a repair took 4.4-7.6 s and F1 ran from
            # 0.66 to 1.00: which of the organizations share a city decides
            # the DC-factor count.  The generator's default seed is kept.
            dataset_seed=31,
        ),
        Workload(
            name="flights-feedback",
            why="Section 2.2 loop against a live RepairServer: feedback "
                "writes (learn, apply, checkpoint) and point reads; "
                "grounding only in setup",
            kind="serve",
            f1_floor=0.80,
            min_rounds=20,
        ),
    )
}

HOSPITAL_ROWS = 2_000
PHYSICIANS_ROWS = 1_000
#: Every city the generated organizations use gets a systematic
#: misspelling, so the noisy-cell count does not hinge on which few
#: cities a seed happens to pick.
PHYSICIANS_MISSPELLED_CITIES = 1_000
PHYSICIANS_GIBBS = {"gibbs_burn_in": 2, "gibbs_sweeps": 8}
FLIGHTS = 36
FLIGHT_SOURCES = 34


def generate(name: str, seed: int):
    """The workload's generated dataset (dirty, clean, constraints)."""
    pinned = WORKLOADS[name].dataset_seed
    if pinned is not None:
        seed = pinned
    if name == "hospital-batch":
        from repro.data.generators.hospital import generate_hospital

        return generate_hospital(num_rows=HOSPITAL_ROWS, seed=seed)
    if name == "physicians-gibbs":
        from repro.data.generators.physicians import generate_physicians

        return generate_physicians(
            num_rows=PHYSICIANS_ROWS,
            num_misspelled_cities=PHYSICIANS_MISSPELLED_CITIES,
            seed=seed)
    if name == "flights-feedback":
        from repro.data.generators.flights import generate_flights

        return generate_flights(num_flights=FLIGHTS,
                                num_sources=FLIGHT_SOURCES, seed=seed)
    raise AssertionError(f"no generator for workload {name!r}")


def config_overrides(name: str, generated, seed: int) -> dict:
    """``HoloCleanConfig`` fields the workload sets (tracing always off)."""
    fields = {
        "seed": seed,
        "tau": generated.recommended_tau,
        "source_entity_attributes": tuple(generated.source_entity_attributes),
        "trace_level": "off",
    }
    if name == "physicians-gibbs":
        fields.update(use_dc_factors=True, use_partitioning=True,
                      **PHYSICIANS_GIBBS)
    return fields


def repair_payload(generated, overrides: dict) -> dict:
    """The ``POST /repair`` body for a generated dataset."""
    from repro.constraints.parser import format_dc

    dirty = generated.dirty
    config = dict(overrides)
    config["source_entity_attributes"] = list(
        config["source_entity_attributes"])
    dataset = {
        "name": dirty.name,
        "columns": list(dirty.schema.names),
        "rows": [list(dirty.row_ref(t)) for t in range(dirty.num_tuples)],
    }
    sources = dirty.schema.with_role("source")
    if sources:
        dataset["source_column"] = sources[0]
    return {
        "dataset": dataset,
        "constraints": [format_dc(dc) for dc in generated.constraints],
        "config": config,
    }


def _rng(seed: int, purpose: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{purpose}:{seed}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def feedback_cells(generated, noisy: set, seed: int) -> list[tuple]:
    """Error cells the program can take feedback on, in seeded order.

    Candidates are the generator's error cells that are also noisy cells
    of the repair (feedback on any other cell is refused); each comes
    with its true value from the clean data.
    """
    candidates = sorted(
        (cell.tid, cell.attribute) for cell in generated.error_cells
        if (cell.tid, cell.attribute) in noisy)
    order = _rng(seed, "feedback").permutation(len(candidates))
    clean = generated.clean
    return [(candidates[i][0], candidates[i][1],
             clean.value(candidates[i][0], candidates[i][1]))
            for i in order]


def feedback_round(cells: list[tuple], index: int) -> list[tuple]:
    """The cells of feedback round ``index`` (no cell is sent twice)."""
    start = index * FEEDBACK_CELLS
    chunk = cells[start:start + FEEDBACK_CELLS]
    if len(chunk) < FEEDBACK_CELLS:
        raise ValueError(f"feedback schedule exhausted at round {index}")
    return chunk


def read_cells(noisy: set, seed: int, count: int) -> list[tuple]:
    """``count`` noisy cells for point reads, in seeded order."""
    candidates = sorted(noisy)
    picks = _rng(seed, "reads").choice(len(candidates), size=count,
                                       replace=count > len(candidates))
    return [candidates[i] for i in picks]


def dataset_bytes(generated) -> bytes:
    """Canonical bytes of everything generated (for the seed tests)."""
    from repro.constraints.parser import format_dc

    dirty, clean = generated.dirty, generated.clean
    return json.dumps({
        "columns": list(dirty.schema.names),
        "dirty": [list(dirty.row_ref(t)) for t in range(dirty.num_tuples)],
        "clean": [list(clean.row_ref(t)) for t in range(clean.num_tuples)],
        "constraints": [format_dc(dc) for dc in generated.constraints],
        "errors": sorted((c.tid, c.attribute) for c in generated.error_cells),
    }).encode()

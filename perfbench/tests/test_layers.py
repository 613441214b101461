"""The layer wrappers observe a repair without changing it."""

import pytest

import layers
from spans import Recorder
from workloads import result_repairs


def _repair(generated, **overrides):
    from repro.core.config import HoloCleanConfig
    from repro.core.stages import RepairContext, RepairPlan

    config = HoloCleanConfig(tau=generated.recommended_tau, trace_level="off",
                             **overrides)
    ctx = RepairPlan.default().run(RepairContext(
        dataset=generated.dirty, constraints=list(generated.constraints),
        config=config))
    if ctx.engine is not None:
        ctx.engine.close()
    return ctx.result


@pytest.mark.parametrize("overrides", [
    {},
    {"use_dc_factors": True, "use_partitioning": True,
     "gibbs_burn_in": 1, "gibbs_sweeps": 2},
])
def test_traced_repair_matches_untraced_and_undo_restores(overrides):
    from repro.core import stages
    from repro.data.generators.hospital import generate_hospital

    generated = generate_hospital(num_rows=120, seed=3)
    before = {name: dict(vars(getattr(stages, name)))
              for name in ("DetectStage", "ApplyStage")}
    plain = _repair(generated, **overrides)

    recorder = Recorder()
    recorder.op = "op"
    uninstall = layers.install(recorder)
    try:
        traced = _repair(generated, **overrides)
    finally:
        uninstall()

    assert result_repairs(traced) == result_repairs(plain)
    assert {name: dict(vars(getattr(stages, name)))
            for name in before} == before
    metrics = layers.layer_metrics(recorder.spans, 1)
    assert set(metrics) == set(layers.UNITS) - {"trace.overhead_s"}
    assert metrics["stages.compile_s"] > 0
    assert metrics["detect.violations"] > 0
    assert metrics["apply.cells"] == len(plain.inferences)
    assert 0 < metrics["stages.compile_coverage"] <= 1
    if overrides:
        assert metrics["gibbs.samples"] > 0
        assert metrics["factor_tables.tables"] > 0
    else:
        assert metrics["gibbs.samples"] == 0
        assert metrics["softmax.marginals_s"] > 0

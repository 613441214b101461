"""Unit tests for `repro.obs.report`: fingerprints, round-trips, rendering."""

from dataclasses import dataclass, field

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.fingerprint import config_fingerprint
from repro.obs.report import RunReport, build_run_report
from repro.obs.trace import Tracer


@dataclass
class ToyConfig:
    tau: float = 0.5
    seed: int = 1
    extras: list = field(default_factory=list)


class TestConfigFingerprint:
    def test_stable_across_calls(self):
        assert config_fingerprint(ToyConfig()) == config_fingerprint(ToyConfig())

    def test_sensitive_to_values(self):
        assert config_fingerprint(ToyConfig()) != config_fingerprint(ToyConfig(seed=2))

    def test_accepts_mappings_and_none(self):
        assert config_fingerprint({"tau": 0.5}) == config_fingerprint({"tau": 0.5})
        assert len(config_fingerprint(None)) == 12

    def test_twelve_hex_digits(self):
        token = config_fingerprint(ToyConfig())
        assert len(token) == 12
        int(token, 16)  # raises if not hex


def make_report() -> RunReport:
    tracer = Tracer(level="deep")
    with tracer.span("detect", rows=3):
        pass
    with tracer.span("compile"):
        with tracer.span("ground", level="deep", pairs=2):
            pass
    metrics = MetricsRegistry()
    metrics.gauge("detect.noisy_cells", 4)
    metrics.label("infer.method", "softmax")
    metrics.extend("learn.epoch_loss", [2.0, 1.0])
    return RunReport(
        dataset={"name": "toy", "rows": 3, "attributes": 2},
        config={"tau": 0.5, "seed": 1},
        fingerprint="abc123abc123",
        stage_status={"detect": "ran", "compile": "ran"},
        timings={"detect": 0.25, "compile": 0.5},
        phase_timings={"detect": 0.25, "compile": 0.5, "repair": 0.0},
        metrics=metrics.as_dict(),
        trace=tracer.to_dict(),
    )


class TestRoundTrips:
    def test_json_round_trip(self):
        report = make_report()
        clone = RunReport.from_json(report.to_json())
        assert clone.to_dict() == report.to_dict()

    def test_save_and_load(self, tmp_path):
        report = make_report()
        path = report.save(tmp_path / "run.json")
        assert path.read_text().endswith("\n")
        clone = RunReport.load(path)
        assert clone.to_dict() == report.to_dict()

    def test_trace_spans_rebuilt(self):
        report = make_report()
        roots = report.trace_spans()
        assert report.stage_names_traced() == ["detect", "compile"]
        assert roots[1].children[0].name == "ground"
        assert roots[1].children[0].attributes == {"pairs": 2}

    def test_empty_trace(self):
        report = RunReport()
        assert report.trace_spans() == []
        assert report.stage_names_traced() == []


class TestRenderText:
    def test_render_mentions_everything(self):
        text = make_report().render_text()
        assert "dataset=toy" in text
        assert "config=abc123abc123" in text
        assert "detect=0.250s" in text
        assert "detect:ran" in text
        assert "trace (deep level, 3 spans):" in text
        assert "ground" in text
        assert "[pairs=2]" in text
        assert "detect.noisy_cells = 4" in text
        assert "infer.method = softmax" in text
        assert "learn.epoch_loss: n=2" in text

    def test_render_without_trace_or_metrics(self):
        text = RunReport(phase_timings={"detect": 0.0}).render_text()
        assert "trace" not in text
        assert "metrics" not in text


class _ToySchema:
    names = ("City", "State")


class _ToyDataset:
    name = "toy"
    num_tuples = 5
    schema = _ToySchema()


class _ToyCtx:
    def __init__(self):
        self.dataset = _ToyDataset()
        self.config = ToyConfig(extras=["x"])
        self.stage_status = {"detect": "ran"}
        self.timings = {"detect": 0.125, "learn": 0.25}
        self.metrics = MetricsRegistry()
        self.metrics.gauge("detect.noisy_cells", 2)
        self.tracer = Tracer(level="stage")
        with self.tracer.span("detect"):
            pass

    def phase_timings(self):
        repair = self.timings.get("learn", 0.0)
        return {"detect": self.timings["detect"], "compile": 0.0, "repair": repair}


class TestBuildRunReport:
    def test_duck_typed_assembly(self):
        report = build_run_report(_ToyCtx())
        assert report.dataset == {"name": "toy", "rows": 5, "attributes": 2}
        assert report.config["tau"] == 0.5
        # Non-scalar config values are stringified for JSON safety.
        assert report.config["extras"] == "['x']"
        assert report.fingerprint == config_fingerprint(ToyConfig(extras=["x"]))
        assert report.stage_status == {"detect": "ran"}
        assert report.phase_timings["repair"] == 0.25
        assert report.metrics["gauges"]["detect.noisy_cells"] == 2
        assert report.stage_names_traced() == ["detect"]
        assert report.created_at > 0

    def test_round_trips_after_build(self):
        report = build_run_report(_ToyCtx())
        clone = RunReport.from_json(report.to_json())
        assert clone.to_dict() == report.to_dict()

    def test_tracerless_context(self):
        ctx = _ToyCtx()
        ctx.tracer = None
        report = build_run_report(ctx)
        assert report.trace is None
        assert report.trace_spans() == []


@pytest.mark.parametrize("indent", [None, 2])
def test_to_json_indent_variants(indent):
    report = make_report()
    text = report.to_json(indent=indent) if indent else report.to_json()
    assert RunReport.from_json(text).to_dict() == report.to_dict()

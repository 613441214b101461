"""Run reports: one JSON-serializable record of where a repair went.

A :class:`RunReport` bundles the trace forest, the metrics registry,
the configuration (plus a stable fingerprint for cache keys and
cross-run comparison), the dataset shape, and per-stage timings/status.
It is attached to every :class:`~repro.core.repair.RepairResult` by the
apply stage, written to disk via ``repro --report out.json``, and
rendered as a text flamegraph-style summary by ``repro trace`` and
:meth:`render_text`.

The builder is duck-typed over :class:`~repro.core.stages.RepairContext`
so this module imports nothing from :mod:`repro.core` (no cycles:
``core`` imports ``obs``, never the reverse).
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.fingerprint import config_fingerprint
from repro.obs.trace import Span

__all__ = ["RunReport", "build_run_report"]

#: Character budget of the flamegraph bar column in :meth:`render_text`.
_BAR_WIDTH = 24


@dataclass
class RunReport:
    """Telemetry record of one repair run."""

    dataset: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    fingerprint: str = ""
    stage_status: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    phase_timings: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    trace: dict | None = None
    created_at: float = field(default_factory=time.time)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "dataset": dict(self.dataset),
            "config": dict(self.config),
            "fingerprint": self.fingerprint,
            "stage_status": dict(self.stage_status),
            "timings": dict(self.timings),
            "phase_timings": dict(self.phase_timings),
            "metrics": self.metrics,
            "trace": self.trace,
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        return cls(
            dataset=dict(payload.get("dataset", {})),
            config=dict(payload.get("config", {})),
            fingerprint=payload.get("fingerprint", ""),
            stage_status=dict(payload.get("stage_status", {})),
            timings=dict(payload.get("timings", {})),
            phase_timings=dict(payload.get("phase_timings", {})),
            metrics=payload.get("metrics", {}),
            trace=payload.get("trace"),
            created_at=payload.get("created_at", 0.0),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, default=str)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunReport":
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------
    def trace_spans(self) -> list[Span]:
        """The trace forest rebuilt as :class:`Span` objects."""
        if not self.trace:
            return []
        return [Span.from_dict(s) for s in self.trace.get("spans", ())]

    def stage_names_traced(self) -> list[str]:
        """Names of the root (stage-level) spans, in order."""
        return [span.name for span in self.trace_spans()]

    # ------------------------------------------------------------------
    def render_text(self) -> str:
        """A flamegraph-style text summary of the run."""
        lines: list[str] = []
        dataset = self.dataset or {}
        lines.append(
            "run report: dataset={name} rows={rows} attributes={attrs} "
            "config={fp}".format(
                name=dataset.get("name", "?"),
                rows=dataset.get("rows", "?"),
                attrs=dataset.get("attributes", "?"),
                fp=self.fingerprint or "?",
            )
        )
        total = sum(self.phase_timings.values())
        lines.append(
            "phases: "
            + "  ".join(f"{k}={v:.3f}s" for k, v in self.phase_timings.items())
            + f"  total={total:.3f}s"
        )
        if self.stage_status:
            lines.append(
                "stages: "
                + "  ".join(f"{k}:{v}" for k, v in self.stage_status.items())
            )

        roots = self.trace_spans()
        if roots:
            level = (self.trace or {}).get("level", "?")
            count = (self.trace or {}).get("span_count", len(roots))
            lines.append(f"\ntrace ({level} level, {count} spans):")
            scale = max((r.duration for r in roots), default=0.0) or 1.0
            for root in roots:
                self._render_span(root, root.duration or scale, 0, lines)

        metrics = self.metrics or {}
        gauges = metrics.get("gauges", {})
        counters = metrics.get("counters", {})
        labels = metrics.get("labels", {})
        summaries = metrics.get("series_summary", {})
        if gauges or counters or labels or summaries:
            lines.append("\nmetrics:")
            for name in sorted(counters):
                lines.append(f"  {name} = {counters[name]:g} (counter)")
            for name in sorted(gauges):
                lines.append(f"  {name} = {gauges[name]:g}")
            for name in sorted(labels):
                lines.append(f"  {name} = {labels[name]}")
            for name in sorted(summaries):
                s = summaries[name]
                lines.append(
                    f"  {name}: n={s['count']:g} first={s['first']:.4g} "
                    f"last={s['last']:.4g} min={s['min']:.4g} "
                    f"max={s['max']:.4g}"
                )
        return "\n".join(lines)

    def _render_span(
        self, span: Span, scale: float, depth: int, lines: list[str]
    ) -> None:
        filled = 0
        if scale > 0:
            filled = max(1, round(_BAR_WIDTH * span.duration / scale))
        bar = ("█" * min(filled, _BAR_WIDTH)).ljust(_BAR_WIDTH, "·")
        label = ("  " * depth + span.name).ljust(32)
        mem = ""
        if span.py_mem_peak is not None:
            mem = f"  peak={span.py_mem_peak / 1e6:.1f}MB"
        attrs = ""
        if span.attributes:
            rendered = " ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
            attrs = f"  [{rendered}]"
        lines.append(f"  {label} {bar} {span.duration:8.3f}s{mem}{attrs}")
        for child in span.children:
            self._render_span(child, scale, depth + 1, lines)


def build_run_report(ctx) -> RunReport:
    """Assemble a :class:`RunReport` from a repair context (duck-typed).

    ``ctx`` needs ``dataset`` (with ``name``/``num_tuples``/``schema``),
    ``config`` (a dataclass), ``stage_status``, ``timings``,
    ``phase_timings()``, ``metrics``, and optionally ``tracer``.
    """
    dataset = ctx.dataset
    shape = {
        "name": getattr(dataset, "name", "?"),
        "rows": getattr(dataset, "num_tuples", None),
        "attributes": len(getattr(dataset.schema, "names", ())),
    }
    if dataclasses.is_dataclass(ctx.config) and not isinstance(ctx.config, type):
        config = dataclasses.asdict(ctx.config)
    else:  # pragma: no cover - configs are always dataclasses today
        config = dict(ctx.config or {})
    tracer = getattr(ctx, "tracer", None)
    metrics = getattr(ctx, "metrics", None)
    scalars = (int, float, str, bool, type(None))
    safe_config = {
        k: v if isinstance(v, scalars) else str(v) for k, v in config.items()
    }
    return RunReport(
        dataset=shape,
        config=safe_config,
        fingerprint=config_fingerprint(ctx.config),
        stage_status=dict(getattr(ctx, "stage_status", {})),
        timings=dict(ctx.timings),
        phase_timings=ctx.phase_timings(),
        metrics=metrics.as_dict() if metrics is not None else {},
        trace=tracer.to_dict() if tracer is not None else None,
    )

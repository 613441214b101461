"""Per-layer timing spans around the program's public calls.

:func:`install` patches each layer's entry point (see ``_wrappers``)
with a :mod:`spans` wrapper and returns an undo function, so traced and
untraced rounds alternate within one process.  :func:`layer_metrics`
turns the spans of the traced primary operations (a full repair on the
batch workloads, a feedback round on ``flights-feedback``) into the
per-layer metrics, each a mean per operation.

Span names follow the metric names; the layer a metric belongs to is
the program module named in ``README.md``.
"""

from __future__ import annotations

import os
import time

from spans import Recorder, children_of, coverage, outermost, self_time
from spans import wrap_generator_method, wrap_method

#: Per-layer metric name → unit, in report order.
UNITS = {
    "stages.detect_s": "s",
    "stages.compile_s": "s",
    "stages.learn_s": "s",
    "stages.infer_s": "s",
    "stages.apply_s": "s",
    "stages.detect_coverage": "ratio",
    "stages.compile_coverage": "ratio",
    "engine.encode_s": "s",
    "engine.join_s": "s",
    "engine.join_calls": "count",
    "engine.join_pairs": "count",
    "engine.domain_index_s": "s",
    "engine.domain_index_calls": "count",
    "detect.self_s": "s",
    "detect.hypergraph_cells_s": "s",
    "detect.violations": "count",
    "detect.noisy_cells": "count",
    "detect.us_per_violation": "us",
    "prune.s": "s",
    "prune.cells": "count",
    "prune.candidates": "count",
    "prune.candidates_per_cell": "ratio",
    "featurize.s": "s",
    "featurize.rows": "count",
    "featurize.entries": "count",
    "featurize.naive_families": "count",
    "features.build_s": "s",
    "compiler.self_s": "s",
    "partition.s": "s",
    "partition.pairs": "count",
    "factor_tables.s": "s",
    "factor_tables.tables": "count",
    "factor_tables.yield": "ratio",
    "factor_tables.skipped": "count",
    "softmax.train_s": "s",
    "softmax.epochs": "count",
    "softmax.train_vars": "count",
    "softmax.epoch_s": "s",
    "softmax.marginals_s": "s",
    "gibbs.setup_s": "s",
    "gibbs.run_s": "s",
    "gibbs.samples": "count",
    "gibbs.move_rate": "ratio",
    "gibbs.us_per_sample": "us",
    "apply.cells": "count",
    "apply.repairs": "count",
    "serve.job_s": "s",
    "serve.rerun_s": "s",
    "serve.checkpoint_save_s": "s",
    "serve.checkpoint_bytes": "bytes",
    "serve.marginals_s": "s",
    "serve.http_s": "s",
    "serve.session_hit_rate": "ratio",
    "serve.rejected": "count",
    "serve.errors": "count",
    "trace.overhead_s": "s",
}

STAGES = ("detect", "compile", "learn", "infer", "apply")

#: Spans that split the compile stage; what is left is the compiler's own.
COMPILE_LAYERS = frozenset({
    "engine.encode", "engine.join", "engine.domain_index", "prune",
    "featurize", "features.build", "partition", "factor_tables",
})


def _dir_bytes(path) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def _count(key, fn):
    def on_result(span, args, kwargs, result):
        span.attrs[key] = fn(args, result)
    return on_result


def _wrappers():
    """(class, attribute, span name, on_result) for every wrapped call."""
    from repro.core import stages
    from repro.core.factor_tables import VectorFactorTableBuilder
    from repro.core.session import RepairSession
    from repro.core.vector_domain import VectorDomainPruner
    from repro.core.vector_featurize import VectorFeaturizer
    from repro.detect.hypergraph import ConflictHypergraph
    from repro.detect.violations import ViolationDetector
    from repro.engine.backend import NumpyBackend
    from repro.engine.stats import EngineStatistics
    from repro.engine.store import ColumnStore
    from repro.inference.features import FeatureMatrixBuilder
    from repro.inference.gibbs import GibbsSampler
    from repro.inference.softmax import SoftmaxTrainer
    from repro.serve.checkpoint import CheckpointStore
    from repro.serve.service import RepairService

    def detected(args, result):
        return (len(result.hypergraph), len(result.noisy_cells))

    def applied(args, result):
        if result.result is None:
            return (0, 0)
        return (len(result.result.inferences), result.result.num_repairs)

    def trained(args, result):
        trainer, train_vars = args[0], args[1]
        used = len(train_vars)
        if trainer.max_training_vars is not None:
            used = min(used, trainer.max_training_vars)
        return (len(result.losses), used)

    return [
        (stages.DetectStage, "run", "stage.detect", None),
        (stages.CompileStage, "run", "stage.compile", None),
        (stages.LearnStage, "run", "stage.learn", None),
        (stages.InferStage, "run", "stage.infer", None),
        (stages.ApplyStage, "run", "stage.apply", _count("counts", applied)),
        (ColumnStore, "__init__", "engine.encode", None),
        (EngineStatistics, "__init__", "engine.encode", None),
        (NumpyBackend, "join_pairs", "engine.join",
         _count("pairs", lambda a, r: len(r[0]))),
        (NumpyBackend, "domain_join_pairs", "engine.join",
         _count("pairs", lambda a, r: len(r[0]))),
        (ColumnStore, "domain_code_index", "engine.domain_index", None),
        (ViolationDetector, "detect", "detect", _count("counts", detected)),
        (ConflictHypergraph, "cells", "detect.hypergraph_cells", None),
        (VectorDomainPruner, "domains", "prune",
         _count("counts", lambda a, r: (len(a[1]),
                                        sum(len(d) for d in r.values())))),
        (VectorFeaturizer, "featurize", "featurize",
         _count("counts", lambda a, r: (r["feature_rows"],
                                        r["feature_entries"],
                                        r["feature_naive_families"]))),
        (FeatureMatrixBuilder, "build", "features.build", None),
        (VectorFactorTableBuilder, "ground_chunk", "factor_tables",
         _count("counts", lambda a, r: (len(a[2]), len(r[0]), r[1]))),
        (SoftmaxTrainer, "train", "softmax.train", _count("counts", trained)),
        (SoftmaxTrainer, "marginals", "softmax.marginals", None),
        (GibbsSampler, "__init__", "gibbs.setup", None),
        (GibbsSampler, "run", "gibbs.run",
         _count("counts", lambda a, r: (r.samples, r.moves))),
        (RepairSession, "rerun", "serve.rerun", None),
        (CheckpointStore, "save", "serve.checkpoint_save",
         _count("bytes", lambda a, r: _dir_bytes(r))),
        (RepairService, "marginals", "serve.marginals", None),
    ]


def install(recorder: Recorder):
    """Wrap every layer's entry point; returns the undo function."""
    from repro.core.partition import VectorPairEnumerator
    from repro.serve.service import RepairService

    undo = [wrap_method(recorder, cls, attr, name, on_result)
            for cls, attr, name, on_result in _wrappers()]

    def chunk_pairs(span, item):
        span.attrs["pairs"] = len(item[0])

    undo.append(wrap_generator_method(
        recorder, VectorPairEnumerator, "pair_chunks", "partition",
        on_item=chunk_pairs))

    # A feedback job runs on the service's job thread: time the future
    # from submission to completion (queueing included), which is what
    # the HTTP handler waits for.
    own = RepairService.__dict__["submit_feedback"]

    def submit_feedback(self, *args, **kwargs):
        started = time.perf_counter()
        future = own(self, *args, **kwargs)
        future.add_done_callback(
            lambda _f: recorder.add("serve.job", started, time.perf_counter()))
        return future

    RepairService.submit_feedback = submit_feedback
    undo.append(lambda: setattr(RepairService, "submit_feedback", own))

    def uninstall():
        for restore in reversed(undo):
            restore()

    return uninstall


def _total(spans, name) -> float:
    return sum(s.duration for s in outermost(spans, {name}))


def layer_metrics(spans, ops: int, client: dict | None = None) -> dict:
    """Per-operation means of every layer metric over ``spans``.

    ``spans`` are the traced primary operations' spans, ``ops`` how many
    operations they cover.  ``client`` carries what only the client
    sees: ``latency_s`` (summed client-side latency of the operations'
    HTTP requests) and the service's ``/metricsz`` counters.
    """
    ops = max(ops, 1)
    children = children_of(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name):
        return _total(spans, name)

    def attr_sum(name, key, index=None):
        out = 0
        for span in by_name.get(name, ()):
            value = span.attrs.get(key)
            if value is None:
                continue
            out += value if index is None else value[index]
        return out

    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"stages.{stage}_s"] = total(f"stage.{stage}") / ops
    for stage in ("detect", "compile"):
        runs = [s for s in by_name.get(f"stage.{stage}", ()) if s.duration > 0]
        wall = sum(s.duration for s in runs)
        hit = sum(coverage(s, children) * s.duration for s in runs)
        m[f"stages.{stage}_coverage"] = hit / wall if wall else 0.0

    m["engine.encode_s"] = total("engine.encode") / ops
    m["engine.join_s"] = total("engine.join") / ops
    m["engine.join_calls"] = len(by_name.get("engine.join", ())) / ops
    m["engine.join_pairs"] = attr_sum("engine.join", "pairs") / ops
    m["engine.domain_index_s"] = total("engine.domain_index") / ops
    m["engine.domain_index_calls"] = (
        len(by_name.get("engine.domain_index", ())) / ops)

    detect_runs = by_name.get("detect", ())
    violations = attr_sum("detect", "counts", 0)
    m["detect.self_s"] = sum(
        self_time(s, children, only=lambda c: c.name.startswith("engine."))
        for s in detect_runs) / ops
    m["detect.hypergraph_cells_s"] = total("detect.hypergraph_cells") / ops
    m["detect.violations"] = violations / ops
    m["detect.noisy_cells"] = attr_sum("detect", "counts", 1) / ops
    m["detect.us_per_violation"] = (
        1e6 * total("detect") / violations if violations else 0.0)

    cells = attr_sum("prune", "counts", 0)
    candidates = attr_sum("prune", "counts", 1)
    m["prune.s"] = total("prune") / ops
    m["prune.cells"] = cells / ops
    m["prune.candidates"] = candidates / ops
    m["prune.candidates_per_cell"] = candidates / cells if cells else 0.0

    m["featurize.s"] = total("featurize") / ops
    m["featurize.rows"] = attr_sum("featurize", "counts", 0) / ops
    m["featurize.entries"] = attr_sum("featurize", "counts", 1) / ops
    m["featurize.naive_families"] = attr_sum("featurize", "counts", 2) / ops
    m["features.build_s"] = total("features.build") / ops

    m["compiler.self_s"] = sum(
        self_time(s, children, only=lambda c: c.name in COMPILE_LAYERS)
        for s in by_name.get("stage.compile", ())) / ops

    consumed = attr_sum("factor_tables", "counts", 0)
    tables = attr_sum("factor_tables", "counts", 1)
    m["partition.s"] = total("partition") / ops
    m["partition.pairs"] = attr_sum("partition", "pairs") / ops
    m["factor_tables.s"] = total("factor_tables") / ops
    m["factor_tables.tables"] = tables / ops
    m["factor_tables.yield"] = tables / consumed if consumed else 0.0
    m["factor_tables.skipped"] = attr_sum("factor_tables", "counts", 2) / ops

    epochs = attr_sum("softmax.train", "counts", 0)
    train_s = total("softmax.train")
    m["softmax.train_s"] = train_s / ops
    m["softmax.epochs"] = epochs / ops
    m["softmax.train_vars"] = attr_sum("softmax.train", "counts", 1) / ops
    m["softmax.epoch_s"] = train_s / epochs if epochs else 0.0
    m["softmax.marginals_s"] = total("softmax.marginals") / ops

    samples = attr_sum("gibbs.run", "counts", 0)
    run_s = total("gibbs.run")
    m["gibbs.setup_s"] = total("gibbs.setup") / ops
    m["gibbs.run_s"] = run_s / ops
    m["gibbs.samples"] = samples / ops
    m["gibbs.move_rate"] = (
        attr_sum("gibbs.run", "counts", 1) / samples if samples else 0.0)
    m["gibbs.us_per_sample"] = 1e6 * run_s / samples if samples else 0.0

    m["apply.cells"] = attr_sum("stage.apply", "counts", 0) / ops
    m["apply.repairs"] = attr_sum("stage.apply", "counts", 1) / ops

    job_s = total("serve.job")
    marginals_s = total("serve.marginals")
    m["serve.job_s"] = job_s / ops
    m["serve.rerun_s"] = total("serve.rerun") / ops
    m["serve.checkpoint_save_s"] = total("serve.checkpoint_save") / ops
    m["serve.checkpoint_bytes"] = (
        attr_sum("serve.checkpoint_save", "bytes") / ops)
    m["serve.marginals_s"] = marginals_s / ops
    client = client or {}
    latency = client.get("latency_s")
    m["serve.http_s"] = (
        (latency - job_s - marginals_s) / ops if latency is not None else 0.0)
    m["serve.session_hit_rate"] = client.get("session_hit_rate", 0.0)
    m["serve.rejected"] = client.get("rejected", 0)
    m["serve.errors"] = client.get("errors", 0)
    return m

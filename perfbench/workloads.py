"""The three workload drivers and their output checks.

Each workload is a closed loop: one client, one request at a time, the
next sent only when the previous one returned.  A *round* is one
primary operation plus what follows it:

* batch workloads (``hospital-batch``, ``physicians-gibbs``): a full
  ``RepairPlan.default().run(RepairContext(...))`` repair, then one
  Section 2.2 feedback request on that repair (``RepairSession``
  re-entry at ``learn``), then point reads of cell marginals;
* ``flights-feedback``: one ``POST /sessions/{id}/feedback`` and one
  ``GET /sessions/{id}/marginals?tid=&attribute=`` against a live
  ``RepairServer``, whose cold ``POST /repair`` ran in setup.

Rounds repeat until ``--seconds`` have passed and the workload's
minimum round count is reached.  In a traced run odd rounds install the
layer wrappers and even rounds do not, so the tracing overhead is the
difference between the two within one process.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote

import inputs
import layers
from spans import Recorder

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: The flights round after which F1 and the state digest are taken (a
#: fixed round, so the figures do not depend on how fast rounds ran).
FLIGHTS_CHECK_ROUND = 12
#: Client-side budget for one HTTP request.
HTTP_TIMEOUT_S = 150.0


def repairs_digest(repairs: dict) -> str:
    """sha256 over the sorted (tid, attribute, chosen value) triples."""
    triples = sorted((tid, attr, value) for (tid, attr), value in repairs.items())
    return hashlib.sha256(json.dumps(triples).encode()).hexdigest()


def result_repairs(result) -> dict:
    """(tid, attribute) → chosen value of every repair in a ``RepairResult``."""
    return {(c.tid, c.attribute): inf.chosen_value
            for c, inf in result.repairs.items()}


def repair_f1(repairs: dict, generated) -> float:
    """Repair F1 against the generator's clean data (Section 6.1)."""
    clean = generated.clean
    correct = sum(1 for (tid, attr), value in repairs.items()
                  if value == clean.value(tid, attr))
    precision = correct / len(repairs) if repairs else 0.0
    recall = correct / len(generated.error_cells) if generated.error_cells else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@dataclass
class Outcome:
    """What one run measured, before it is turned into metrics."""

    setup_s: list[float] = field(default_factory=list)
    repair_s: list[float] = field(default_factory=list)
    feedback_s: list[float] = field(default_factory=list)
    read_s: list[float] = field(default_factory=list)
    f1: float | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: label → repairs digest; every later result under a label must match.
    digests: dict[str, str] = field(default_factory=dict)
    rounds: int = 0
    #: Traced runs: the traced rounds' primary-operation latencies, the
    #: untraced ones', the traced primary operation ids and the client's
    #: view of the service.
    traced_s: list[float] = field(default_factory=list)
    untraced_s: list[float] = field(default_factory=list)
    traced_ops: set = field(default_factory=set)
    client: dict = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check_digest(self, label: str, digest: str) -> bool:
        expected = self.digests.setdefault(label, digest)
        if expected != digest:
            self.fail(f"{label}: repairs digest {digest[:12]} != {expected[:12]}")
            return False
        return True


class Tracing:
    """Installs the layer wrappers for odd rounds of a traced run.

    Round 0 is a warm-up for the overhead comparison: it pays the
    process's first-call costs, so only later untraced rounds are
    compared with the traced ones.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.recorder = Recorder()
        self._undo = None

    def begin_round(self, index: int) -> bool:
        traced = self.enabled and index % 2 == 1
        if traced:
            self._undo = layers.install(self.recorder)
        return traced

    def end_round(self) -> None:
        if self._undo is not None:
            self._undo()
            self._undo = None


def _keep_going(started: float, seconds: float, rounds: int, workload,
                tracing: Tracing) -> bool:
    # A traced run needs a warm-up, a traced and an untraced round.
    minimum = max(workload.min_rounds, 3 if tracing.enabled else 1)
    return rounds < minimum or time.perf_counter() - started < seconds


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def run_batch(workload, seed: int, seconds: float, tracing: Tracing,
              out: Outcome) -> None:
    from repro.core.config import HoloCleanConfig
    from repro.core.session import RepairSession
    from repro.core.stages import RepairContext, RepairPlan
    from repro.dataset.dataset import Cell

    for _ in range(SETUPS):
        started = time.perf_counter()
        generated = inputs.generate(workload.name, seed)
        out.setup_s.append(time.perf_counter() - started)
    config = HoloCleanConfig(
        **inputs.config_overrides(workload.name, generated, seed))

    fed = reads = None
    started = time.perf_counter()
    while _keep_going(started, seconds, out.rounds, workload, tracing):
        index = out.rounds
        traced = tracing.begin_round(index)
        try:
            tracing.recorder.op = ("repair", index)
            out.attempted += 1
            ctx = None
            try:
                began = time.perf_counter()
                ctx = RepairPlan.default().run(RepairContext(
                    dataset=generated.dirty,
                    constraints=list(generated.constraints),
                    config=config))
                elapsed = time.perf_counter() - began
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                out.fail(f"repair: {type(exc).__name__}: {exc}")
                continue
            finally:
                if ctx is not None and ctx.engine is not None:
                    ctx.engine.close()
            out.repair_s.append(elapsed)
            if traced or index:
                (out.traced_s if traced else out.untraced_s).append(elapsed)
            if traced:
                out.traced_ops.add(("repair", index))
            result = ctx.result
            repairs = result_repairs(result)
            f1 = repair_f1(repairs, generated)
            ok = out.check_digest("repair", repairs_digest(repairs))
            if out.f1 is None:
                out.f1 = f1
            if f1 < workload.f1_floor:
                out.fail(f"repair: F1 {f1:.4f} below floor {workload.f1_floor}")
                ok = False
            if not ok:
                continue

            if fed is None:
                noisy = {(c.tid, c.attribute) for c in result.inferences}
                fed = inputs.feedback_round(
                    inputs.feedback_cells(generated, noisy, seed), 0)
                reads = inputs.read_cells(noisy, seed, inputs.BATCH_READS)

            tracing.recorder.op = ("feedback", index)
            out.attempted += 1
            try:
                session = RepairSession.from_context(ctx)
                for tid, attr, value in fed:
                    session.feedback(Cell(tid, attr), value)
                began = time.perf_counter()
                result = session.rerun()
                out.feedback_s.append(time.perf_counter() - began)
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                out.fail(f"feedback: {type(exc).__name__}: {exc}")
                continue
            wrong = [(tid, attr) for tid, attr, value in fed
                     if result.inferences[Cell(tid, attr)].chosen_value != value]
            if wrong:
                out.fail(f"feedback: verified cells not applied: {wrong}")
            out.check_digest("feedback", repairs_digest(result_repairs(result)))

            tracing.recorder.op = ("read", index)
            for tid, attr in reads:
                out.attempted += 1
                try:
                    began = time.perf_counter()
                    inference = result.inferences[Cell(tid, attr)]
                    view = {
                        "chosen": inference.chosen_value,
                        "confidence": inference.confidence,
                        "marginal": dict(zip(inference.domain,
                                             inference.marginal.tolist())),
                    }
                    out.read_s.append(time.perf_counter() - began)
                except Exception as exc:  # noqa: BLE001
                    out.fail(f"read: {type(exc).__name__}: {exc}")
                    continue
                _check_marginal(out, view, tid, attr)
        finally:
            tracing.end_round()
            out.rounds += 1


def _check_marginal(out: Outcome, view: dict, tid, attr) -> None:
    marginal = view["marginal"]
    total = sum(marginal.values())
    best = max(marginal, key=marginal.get) if marginal else None
    if abs(total - 1.0) > 1e-6 or marginal.get(view["chosen"]) != marginal.get(best):
        out.fail(f"read ({tid}, {attr}): marginal sums to {total} "
                 f"or chosen {view['chosen']!r} is not its mode")


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------
class _ServerThread:
    """A ``RepairServer`` on an ephemeral port, its loop on a thread."""

    def __init__(self, checkpoint_dir: Path):
        from repro.core.config import HoloCleanConfig
        from repro.serve.server import RepairServer
        from repro.serve.service import RepairService

        service = RepairService(HoloCleanConfig(
            serve_workers=0, serve_checkpoint_dir=str(checkpoint_dir)))
        self.server = RepairServer(service, port=0)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="bench-server", daemon=True)
        self.thread.start()
        try:
            self._call(self.server.start())
        except BaseException:
            self._halt()
            service.close()
            raise

    @property
    def port(self) -> int:
        return self.server.port

    def _call(self, coro, timeout: float = HTTP_TIMEOUT_S):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def stop(self) -> None:
        try:
            self._call(self.server.stop())
            self._call(self.loop.shutdown_default_executor())
        finally:
            self._halt()

    def _halt(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=60)
        if self.thread.is_alive():
            raise RuntimeError("server loop did not stop within 60 s")
        self.loop.close()


def http_request(port: int, method: str, path: str, body=None):
    """One request on a fresh connection: (status, JSON body, seconds)."""
    payload = None if body is None else json.dumps(body).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        began = time.perf_counter()
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - began
    finally:
        conn.close()
    return response.status, json.loads(raw) if raw else None, elapsed


def _response_repairs(body: dict) -> dict:
    return {(r["tid"], r["attribute"]): r["new"] for r in body["repairs"]}


def run_serve(workload, seed: int, seconds: float, tracing: Tracing,
              out: Outcome, scratch: Path) -> None:
    server = None
    try:
        for number in range(SETUPS):
            if server is not None:
                server.stop()
                server = None
            checkpoints = scratch / f"checkpoints-{number}"
            shutil.rmtree(checkpoints, ignore_errors=True)
            started = time.perf_counter()
            generated = inputs.generate(workload.name, seed)
            payload = inputs.repair_payload(
                generated, inputs.config_overrides(workload.name, generated, seed))
            server = _ServerThread(checkpoints)
            out.attempted += 1
            status, body, elapsed = http_request(server.port, "POST",
                                                 "/repair", payload)
            if status != 200 or body.get("path") != "cold":
                out.fail(f"cold repair: HTTP {status}: {str(body)[:200]}")
                raise RuntimeError("cold repair failed; nothing to drive")
            sid = body["session"]
            status, cells, _ = http_request(server.port, "GET",
                                            f"/sessions/{sid}/marginals")
            if status != 200:
                out.fail(f"marginals listing: HTTP {status}")
                raise RuntimeError("no noisy-cell listing; nothing to drive")
            out.setup_s.append(time.perf_counter() - started)
            out.repair_s.append(elapsed)
            repairs = _response_repairs(body)
            out.check_digest("cold", repairs_digest(repairs))
            f1 = repair_f1(repairs, generated)
            if f1 < workload.f1_floor:
                out.fail(f"cold repair: F1 {f1:.4f} below floor")

        noisy = {(c["tid"], c["attribute"]) for c in cells["cells"]}
        schedule = inputs.feedback_cells(generated, noisy, seed)
        _serve_rounds(workload, seconds, tracing, out, server, sid,
                      generated, schedule)
        status, snapshot, _ = http_request(server.port, "GET", "/metricsz")
        if status == 200:
            gauges = snapshot["gauges"]
            hits = gauges.get("serve.session_hits", 0)
            lookups = hits + gauges.get("serve.session_misses", 0)
            out.client.update(
                session_hit_rate=hits / lookups if lookups else 0.0,
                rejected=gauges.get("serve.rejected_total", 0),
                errors=gauges.get("serve.errors_total", 0))
            if out.client["errors"] or out.client["rejected"]:
                out.fail(f"service counted {out.client['errors']} errors, "
                         f"{out.client['rejected']} rejections")
    finally:
        if server is not None:
            server.stop()


def _serve_rounds(workload, seconds, tracing, out, server, sid, generated,
                  schedule) -> None:
    latency = 0.0
    started = time.perf_counter()
    while _keep_going(started, seconds, out.rounds, workload, tracing):
        index = out.rounds
        traced = tracing.begin_round(index)
        try:
            tracing.recorder.op = ("round", index)
            fed = inputs.feedback_round(schedule, index)
            body = {"cells": [{"tid": t, "attribute": a, "value": v}
                              for t, a, v in fed]}
            out.attempted += 1
            try:
                status, reply, elapsed = http_request(
                    server.port, "POST", f"/sessions/{sid}/feedback", body)
            except (OSError, http.client.HTTPException) as exc:
                out.fail(f"feedback: {type(exc).__name__}: {exc}")
                continue
            if status != 200:
                out.fail(f"feedback: HTTP {status}: {str(reply)[:200]}")
                continue
            out.feedback_s.append(elapsed)
            if traced or index:
                (out.traced_s if traced else out.untraced_s).append(elapsed)
            round_latency = elapsed
            repairs = _response_repairs(reply)
            wrong = [(t, a) for t, a, v in fed if repairs.get((t, a)) != v]
            if wrong or reply.get("feedback_count") != (index + 1) * len(fed):
                out.fail(f"feedback: verified cells not applied: {wrong}")
            if index + 1 == FLIGHTS_CHECK_ROUND:
                out.f1 = repair_f1(repairs, generated)
                out.check_digest(f"round{FLIGHTS_CHECK_ROUND}",
                                 repairs_digest(repairs))
                if out.f1 < workload.f1_floor:
                    out.fail(f"feedback: F1 {out.f1:.4f} below floor")

            tid, attr = fed[0][0], fed[0][1]
            out.attempted += 1
            try:
                status, view, elapsed = http_request(
                    server.port, "GET",
                    f"/sessions/{sid}/marginals?tid={tid}&attribute={quote(attr)}")
            except (OSError, http.client.HTTPException) as exc:
                out.fail(f"read: {type(exc).__name__}: {exc}")
                continue
            if status != 200 or len(view["cells"]) != 1:
                out.fail(f"read ({tid}, {attr}): HTTP {status}")
                continue
            out.read_s.append(elapsed)
            round_latency += elapsed
            cell = view["cells"][0]
            _check_marginal(out, {
                "chosen": cell["chosen"],
                "marginal": dict(zip(cell["domain"], cell["marginal"])),
            }, tid, attr)
            if traced:
                out.traced_ops.add(("round", index))
                latency += round_latency
        finally:
            tracing.end_round()
            out.rounds += 1
    out.client["latency_s"] = latency

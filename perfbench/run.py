"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hospital-batch --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that prints the per-layer
metrics.  Human-readable lines go first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Records of every run (metrics, machine,
digests, and a traced run's spans) are written under
``.perfbench-runs/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import median, tail  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench-runs"

#: The seed used when ``--seed`` is not given.
DEFAULT_SEED = 1

#: End-to-end metric name → unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "repair_s": "s",
    "peak_rss_mb": "MB",
    "f1": "ratio",
    "feedback_p50_s": "s",
    "feedback_tail_s": "s",
    "marginals_p50_s": "s",
    "marginals_tail_s": "s",
}


def _import_program() -> float:
    """Import the program from the checkout's ``src``; returns seconds."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401

    import repro.core.stages  # noqa: F401
    import repro.serve.server  # noqa: F401

    return time.perf_counter() - _PROCESS_T0


def code_fingerprint() -> str:
    """sha256 over the program's and the benchmark's source files."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record() -> dict:
    """Where the run happened, and a fixed-seed calibration kernel.

    The kernel (argsort + bincount over one million seeded integers)
    does the same work on every commit, so its median separates machine
    drift from code drift.  Metadata only: nothing is gated on it.
    """
    import numpy as np

    data = np.random.default_rng(20_170_901).integers(0, 1 << 20, 1_000_000)
    times = []
    for _ in range(7):
        began = time.perf_counter()
        order = np.argsort(data, kind="stable")
        np.bincount(data[order] & 0xFFFF)
        times.append(time.perf_counter() - began)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
        "calibration_s": median(times),
    }


def check_history(workload: str, seed: int, digests: dict, out) -> None:
    """Same code and seed must give the same digests in every run.

    Traced and untraced runs share the record, so a traced run whose
    repairs differ from the untraced run's fails here too.
    """
    path = STATE / "digests.json"
    history = json.loads(path.read_text()) if path.exists() else {}
    prefix = f"{workload}|{seed}|{code_fingerprint()}"
    for label, digest in sorted(digests.items()):
        key = f"{prefix}|{label}"
        seen = history.setdefault(key, digest)
        if seen != digest:
            out.fail(f"{label}: digest {digest[:12]} differs from an earlier "
                     f"run of the same code and seed ({seen[:12]})")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(history, indent=1, sort_keys=True))
    tmp.replace(path)


def end_to_end(out, import_s: float) -> tuple[dict, dict]:
    metrics = {
        "setup_s": import_s + median(out.setup_s),
        "repair_s": median(out.repair_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "f1": out.f1,
        "feedback_p50_s": median(out.feedback_s),
        "marginals_p50_s": median(out.read_s),
    }
    notes = {}
    for key, samples in (("feedback", out.feedback_s), ("marginals", out.read_s)):
        value, percentile, n = tail(samples)
        metrics[f"{key}_tail_s"] = value
        notes[f"{key}_tail_s"] = f"p{percentile:.1f} of n={n}"
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_program()
    workload = inputs.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"pick one of {sorted(inputs.WORKLOADS)}")

    out = workloads.Outcome()
    tracing = workloads.Tracing(bool(args.trace))
    scratch = STATE / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if workload.kind == "batch":
            workloads.run_batch(workload, args.seed, args.seconds, tracing, out)
        else:
            workloads.run_serve(workload, args.seed, args.seconds, tracing,
                                out, scratch)
    except Exception as exc:  # noqa: BLE001 - reported, never a result line
        print(f"perfbench: {args.workload} aborted: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        for problem in out.problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    check_history(args.workload, args.seed, out.digests, out)
    if not (out.repair_s and out.feedback_s and out.read_s) or out.f1 is None:
        print(f"perfbench: {args.workload} measured nothing: "
              f"{out.problems}", file=sys.stderr)
        return 1

    machine = machine_record()
    e2e, notes = end_to_end(out, import_s)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "rounds": out.rounds,
        "machine": machine, "digests": out.digests, "end_to_end": e2e,
        "problems": out.problems,
    }
    if args.trace:
        spans = [s for s in tracing.recorder.spans if s.op in out.traced_ops]
        per_layer = layers.layer_metrics(spans, len(out.traced_ops), out.client)
        if out.traced_s and out.untraced_s:
            per_layer["trace.overhead_s"] = (
                median(out.traced_s) - median(out.untraced_s))
        else:
            per_layer["trace.overhead_s"] = 0.0
        record["per_layer"] = per_layer
        record["traced_ops"] = len(out.traced_ops)
        (STATE / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps([s.to_dict() for s in tracing.recorder.spans],
                       default=str))
        reported = {k: (per_layer[k], unit) for k, unit in layers.UNITS.items()}
    else:
        reported = {k: (e2e[k], unit) for k, unit in END_TO_END.items()}

    with open(STATE / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record, default=str) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{out.rounds} rounds, {out.attempted} operations, "
          f"{out.failed} failed (fail_ratio {out.failed / out.attempted:.4g})")
    for name, (value, unit) in reported.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<28} {value:>14.6g} {unit}{note}")
    print(f"  digests {json.dumps(out.digests)}")
    print(f"  machine {json.dumps(machine)}")
    for problem in out.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

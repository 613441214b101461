"""Gate benchmark results against the committed baselines.

Compares every entry of ``benchmarks/baselines.json`` with the matching
``benchmarks/results/BENCH_<name>.json`` produced by a benchmark run and
fails (exit 1) when any pinned metric regresses by more than the
tolerance (default 20%).  Baselines pin *ratio* metrics (speedups), which
are stable across machines; absolute wall times live in each result's
``meta`` block and are informational only.

Baseline format::

    {
      "factor_grounding": {
        "metrics": {
          "speedup_numpy": {"value": 5.6, "direction": "higher"}
        }
      }
    }

``direction`` is ``"higher"`` (bigger is better, fail when value drops
below ``baseline * (1 - tolerance)``) or ``"lower"`` (smaller is better,
fail when value rises above ``baseline * (1 + tolerance)``).

Stdlib only — runnable in CI before any project dependency is installed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_BASELINES = BENCH_DIR / "baselines.json"
DEFAULT_RESULTS = BENCH_DIR / "results"


def compare(value: float, baseline: float, direction: str,
            tolerance: float) -> tuple[bool, str]:
    """Whether ``value`` is acceptable, plus a human-readable verdict."""
    if direction == "higher":
        floor = baseline * (1.0 - tolerance)
        ok = value >= floor
        detail = f"{value:.3g} vs baseline {baseline:.3g} (floor {floor:.3g})"
    elif direction == "lower":
        ceiling = baseline * (1.0 + tolerance)
        ok = value <= ceiling
        detail = (f"{value:.3g} vs baseline {baseline:.3g} "
                  f"(ceiling {ceiling:.3g})")
    else:
        return False, f"unknown direction {direction!r}"
    return ok, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when BENCH_*.json results regress vs baselines")
    parser.add_argument("--baselines", type=Path, default=DEFAULT_BASELINES)
    parser.add_argument("--results", type=Path, default=DEFAULT_RESULTS,
                        help="directory holding BENCH_<name>.json files")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed relative regression (default 0.20)")
    args = parser.parse_args(argv)

    try:
        baselines = json.loads(args.baselines.read_text())
    except OSError as exc:
        print(f"error: cannot read baselines: {exc}", file=sys.stderr)
        return 2

    failures = 0
    checked = 0
    for name, spec in sorted(baselines.items()):
        result_path = args.results / f"BENCH_{name}.json"
        try:
            result = json.loads(result_path.read_text())
        except OSError:
            print(f"FAIL {name}: missing result file {result_path}")
            failures += 1
            continue
        metrics = result.get("metrics", {})
        for metric, pin in sorted(spec.get("metrics", {}).items()):
            checked += 1
            if metric not in metrics:
                print(f"FAIL {name}.{metric}: not in {result_path.name}")
                failures += 1
                continue
            ok, detail = compare(float(metrics[metric]), float(pin["value"]),
                                 pin.get("direction", "higher"),
                                 args.tolerance)
            status = "ok  " if ok else "FAIL"
            print(f"{status} {name}.{metric}: {detail}")
            if not ok:
                failures += 1

    if failures:
        print(f"\n{failures} regression(s) beyond "
              f"{args.tolerance:.0%} tolerance", file=sys.stderr)
        return 1
    print(f"\nall {checked} pinned metric(s) within "
          f"{args.tolerance:.0%} tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

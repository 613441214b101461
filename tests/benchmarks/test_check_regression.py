"""The CI regression gate: compare() math and exit codes."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# compare()
# ---------------------------------------------------------------------------
def test_compare_higher_direction(gate):
    ok, _ = gate.compare(5.0, 5.0, "higher", 0.20)
    assert ok
    ok, _ = gate.compare(4.0, 5.0, "higher", 0.20)  # floor is 4.0
    assert ok
    ok, detail = gate.compare(3.9, 5.0, "higher", 0.20)
    assert not ok
    assert "floor" in detail


def test_compare_lower_direction(gate):
    ok, _ = gate.compare(5.9, 5.0, "lower", 0.20)  # ceiling is 6.0
    assert ok
    ok, detail = gate.compare(6.1, 5.0, "lower", 0.20)
    assert not ok
    assert "ceiling" in detail


def test_compare_unknown_direction_fails(gate):
    ok, detail = gate.compare(1.0, 1.0, "sideways", 0.20)
    assert not ok
    assert "sideways" in detail


# ---------------------------------------------------------------------------
# main()
# ---------------------------------------------------------------------------
def write_setup(tmp_path, baselines, results):
    baselines_path = tmp_path / "baselines.json"
    baselines_path.write_text(json.dumps(baselines))
    results_dir = tmp_path / "results"
    results_dir.mkdir()
    for name, payload in results.items():
        (results_dir / f"BENCH_{name}.json").write_text(json.dumps(payload))
    return ["--baselines", str(baselines_path), "--results", str(results_dir)]


PIN = {"bench": {"metrics": {"speedup": {"value": 5.0, "direction": "higher"}}}}


def test_within_tolerance_exit_zero(gate, tmp_path, capsys):
    argv = write_setup(tmp_path, PIN, {"bench": {"metrics": {"speedup": 4.5}}})
    assert gate.main(argv) == 0
    assert "all 1 pinned metric(s)" in capsys.readouterr().out


def test_regression_exit_one(gate, tmp_path, capsys):
    argv = write_setup(tmp_path, PIN, {"bench": {"metrics": {"speedup": 2.0}}})
    assert gate.main(argv) == 1
    assert "FAIL bench.speedup" in capsys.readouterr().out


def test_custom_tolerance_changes_verdict(gate, tmp_path):
    argv = write_setup(tmp_path, PIN, {"bench": {"metrics": {"speedup": 3.0}}})
    assert gate.main(argv + ["--tolerance", "0.5"]) == 0
    assert gate.main(argv + ["--tolerance", "0.1"]) == 1


def test_missing_result_file_exit_one(gate, tmp_path, capsys):
    argv = write_setup(tmp_path, PIN, {})
    assert gate.main(argv) == 1
    assert "missing result file" in capsys.readouterr().out


def test_missing_metric_key_exit_one(gate, tmp_path, capsys):
    argv = write_setup(tmp_path, PIN, {"bench": {"metrics": {"other": 1.0}}})
    assert gate.main(argv) == 1
    assert "not in BENCH_bench.json" in capsys.readouterr().out


def test_unreadable_baselines_exit_two(gate, tmp_path):
    assert gate.main(["--baselines", str(tmp_path / "absent.json")]) == 2


def test_repo_baselines_file_is_well_formed(gate):
    baselines = json.loads((REPO_ROOT / "benchmarks" / "baselines.json").read_text())
    for name, spec in baselines.items():
        for metric, pin in spec["metrics"].items():
            assert "value" in pin, (name, metric)
            assert pin.get("direction", "higher") in ("higher", "lower")

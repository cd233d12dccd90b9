"""Smoke test of the end-to-end benchmark at tiny sizes with 2 s phases.

    PYTHONPATH=src python -m pytest benchmarks/e2e

Checks that every workload runs clean in both modes, that the names and
units it prints are exactly those in ``BENCHMARK.json``, that one wrong
reference answer fails the run, and that ``compare.py`` flags drift.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _last_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert set(layers.LAYER_MAP) == set(run.PER_LAYER)
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_is_clean(tmp_path, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "2", "--tiny",
         "--trace", str(trace), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = _last_line(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    tag = f"{workload}-seed{SEED}" + ("-traced" if trace else "")
    report = json.loads((tmp_path / f"{tag}.json").read_text())
    assert report["extras"].get("oracle_mismatches", 0) == 0
    if trace:
        shares = report["extras"]["wall_shares"]
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        assert min(shares.values()) >= 0.0
        trace_doc = json.loads((tmp_path / f"{tag}.trace.json").read_text())
        assert trace_doc["traceEvents"]


def test_wrong_reference_answer_fails_the_run(tmp_path, monkeypatch, capsys):
    real = run.attach_reference

    def off_by_one(engine, stream):
        real(engine, stream)
        stream[0].expect = stream[0].expect + 1.0

    monkeypatch.setattr(run, "attach_reference", off_by_one)
    # main() only fills these in when unset; keep them scoped to this test.
    monkeypatch.setenv("SIEF_KERNELS_CACHE", str(run.BUILD_DIR / "sief-kernels"))
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(run.ROOT.parent))
    code = run.main(
        ["--workload", "case4-batch", "--seed", str(SEED), "--seconds", "2",
         "--tiny", "--out", str(tmp_path)]
    )
    line = _last_line(capsys.readouterr().out)
    assert code == 1
    assert not line["correct"] and line["failed"] >= 1


def _report(workload, seed, traced, metrics):
    return {"workload": workload, "seed": seed, "traced": traced, "metrics": metrics}


def test_compare_flags_drift_and_unequal_counts():
    base = {m["name"]: 100.0 for m in SPEC["end_to_end"]}
    a = [_report("w", s, False, dict(base)) for s in (1, 2, 3)]
    assert not any(x.startswith("FAIL") for x in compare.compare(a, a, SPEC))
    slower = [_report("w", s, False, {**base, "p50_ms": 200.0}) for s in (1, 2, 3)]
    assert any("p50_ms" in x and x.startswith("FAIL") for x in compare.compare(a, slower, SPEC))
    noisy = [_report("w", s, False, {**base, "p50_ms": v}) for s, v in ((1, 60.0), (2, 100.0), (3, 140.0))]
    assert any("p50_ms" in x and x.startswith("WIDE") for x in compare.compare(a, noisy, SPEC))
    resized = [_report("w", s, False, {**base, "store_bytes_per_case": 101.0}) for s in (1, 2, 3)]
    lines = compare.compare(a, resized, SPEC)
    assert any("seed 1 store_bytes_per_case" in x and x.startswith("FAIL") for x in lines)

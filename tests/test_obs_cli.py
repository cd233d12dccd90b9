"""CLI coverage: ``sief metrics`` and ``sief build --progress``."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.graph import generators
from repro.graph.io import write_edge_list
from repro.obs import hooks, read_json_lines, validate_trace_events


@pytest.fixture(autouse=True)
def _no_leaked_hooks():
    before = hooks._state()
    yield
    assert hooks._state() == before


def _small_workload_args():
    return [
        "metrics",
        "--vertices",
        "60",
        "--cases",
        "3",
        "--queries",
        "120",
        "--scalar-queries",
        "10",
    ]


def test_parser_metrics_defaults():
    args = build_parser().parse_args(["metrics"])
    assert args.command == "metrics"
    assert args.format == "jsonl"
    assert args.out == "-"
    assert args.vertices == 400


def test_metrics_jsonl_to_stdout(capsys):
    assert main(_small_workload_args()) == 0
    out = capsys.readouterr().out
    objs = [json.loads(line) for line in out.splitlines() if line.strip()]
    names = {o["name"] for o in objs if "name" in o}
    # The workload touches every instrumented layer.
    assert "pll.build.bfs" in names
    assert "sief.build.cases" in names
    assert "sief.query.batch_calls" in names
    assert "sief.query.scalar" in names
    (summary,) = [o for o in objs if o["type"] == "trace_summary"]
    assert summary["balanced"] is True
    by_name = {o["name"]: o for o in objs if "name" in o}
    assert by_name["sief.build.cases"]["value"] == 3
    assert by_name["sief.query.batch_calls"]["value"] == 3


def test_metrics_prometheus_to_file(tmp_path, capsys):
    out_file = tmp_path / "metrics.prom"
    rc = main(_small_workload_args() + ["--format", "prom", "--out", str(out_file)])
    assert rc == 0
    text = out_file.read_text()
    assert "# TYPE sief_build_cases counter" in text
    assert 'sief_query_batch_size_bucket{le="+Inf"}' in text
    assert "sief_query_scalar_seconds_count" in text


def test_metrics_from_graph_file(tmp_path, capsys):
    g = generators.erdos_renyi_gnm(30, 60, seed=8)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    rc = main(
        [
            "metrics",
            "--graph",
            str(path),
            "--cases",
            "2",
            "--queries",
            "40",
        ]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "n=30" in err


def test_metrics_chrome_trace_with_profile(tmp_path, capsys):
    out_file = tmp_path / "trace.json"
    folded = tmp_path / "folded.txt"
    rc = main(
        _small_workload_args()
        + [
            "--format",
            "chrome",
            "--profile",
            "--folded-out",
            str(folded),
            "--out",
            str(out_file),
        ]
    )
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert validate_trace_events(doc) == []
    span_names = {
        e["name"] for e in doc["traceEvents"] if e["ph"] == "X"
    }
    assert "pll.build" in span_names
    assert "sief.build.case" in span_names
    assert folded.exists()
    err = capsys.readouterr().err
    # --profile prints the rollup; a sub-interval workload legitimately
    # yields no samples, and that must render as such, not crash.
    assert "incl%" in err or "(no samples)" in err


def test_metrics_chrome_parallel_build_has_worker_tracks(tmp_path):
    out_file = tmp_path / "trace.json"
    rc = main(
        _small_workload_args()
        + [
            "--cases",
            "8",  # above the builder's 4-case pool threshold
            "--jobs",
            "2",
            "--format",
            "chrome",
            "--out",
            str(out_file),
        ]
    )
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert validate_trace_events(doc) == []
    workers = [
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e["ph"] == "M"
        and e["name"] == "thread_name"
        and e["args"]["name"].startswith("worker-")
    ]
    assert len(workers) >= 1


def test_build_progress_renders_to_stderr(tmp_path, capsys):
    g = generators.erdos_renyi_gnm(25, 40, seed=3)
    graph = tmp_path / "g.txt"
    write_edge_list(g, graph)
    rc = main(
        [
            "build",
            str(graph),
            "-o",
            str(tmp_path / "g.sief"),
            "--progress",
        ]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "sief build:" in err
    assert "/s" in err
    assert err.endswith("\n")


def test_fuzz_metrics_sidecar(tmp_path, capsys):
    sidecar = tmp_path / "fuzz.metrics.jsonl"
    rc = main(
        [
            "fuzz",
            "--budget",
            "2s",
            "--seed",
            "0",
            "--no-corpus",
            "--no-shrink",
            "--adapter",
            "sief-scalar",
            "--adapter",
            "sief-batch",
            "--metrics-out",
            str(sidecar),
        ]
    )
    assert rc == 0
    objs = read_json_lines(sidecar)
    assert objs, "sidecar is empty"
    (summary,) = [o for o in objs if o["type"] == "trace_summary"]
    assert summary["balanced"] is True
    names = {o.get("name") for o in objs}
    assert "sief.build.cases" in names  # fuzz builds indexes under the hooks
    out = capsys.readouterr().out
    assert "metrics sidecar written" in out

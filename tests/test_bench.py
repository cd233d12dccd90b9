"""Unit tests for the benchmark harness (datasets, runner, reporting)."""

from __future__ import annotations

import pytest

from repro.exceptions import DatasetError, ReproError
from repro.bench.datasets import DATASETS, DATASET_ORDER, load_dataset, load_snap_file
from repro.bench.reporting import (
    render_grouped_bars,
    render_ratio_line,
    render_table,
)
from repro.bench.runner import BenchContext, clear_cache, get_context
from repro.bench.workloads import (
    dual_failure_workload,
    node_failure_workload,
    table4_workload,
)
from repro.graph.components import is_connected
from repro.graph import generators


class TestDatasets:
    def test_registry_has_all_six(self):
        assert set(DATASETS) == {
            "gnutella",
            "facebook",
            "wiki_vote",
            "oregon",
            "ca_hepth",
            "ca_grqc",
        }
        assert DATASET_ORDER == list(DATASETS)

    def test_paper_references_complete(self):
        for spec in DATASETS.values():
            assert spec.paper.num_vertices > 1000
            assert spec.paper.num_edges > spec.paper.num_vertices
            assert spec.paper.sief_query_us < spec.paper.bfs_query_us

    @pytest.mark.parametrize("name", DATASET_ORDER)
    def test_generation_connected_and_deterministic(self, name):
        a = load_dataset(name)
        b = load_dataset(name)
        assert a == b
        assert is_connected(a)
        assert a.num_vertices >= 100

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            load_dataset("twitter")

    def test_load_snap_file(self, tmp_path):
        from repro.graph.io import write_edge_list

        g = generators.compose_disjoint(
            [generators.cycle_graph(12), generators.path_graph(3)]
        )
        path = tmp_path / "snap.txt"
        write_edge_list(g, path)
        loaded = load_snap_file(path)
        assert loaded.num_vertices == 12  # giant component only
        assert is_connected(loaded)


class TestRunnerCache:
    def test_context_memoized(self):
        clear_cache()
        a = get_context("ca_grqc")
        b = get_context("ca_grqc")
        assert a is b
        clear_cache()

    def test_lazy_graph(self):
        clear_cache()
        ctx = get_context("ca_grqc")
        assert ctx._graph is None
        graph = ctx.graph
        assert ctx._graph is graph
        clear_cache()


class TestWorkloads:
    def test_table4_workload_size(self, paper_graph):
        triples = table4_workload(paper_graph, count=77)
        assert len(triples) == 77

    def test_dual_failure_edges_distinct(self, paper_graph):
        for s, t, e1, e2 in dual_failure_workload(paper_graph, 25):
            assert e1 != e2
            assert s != t

    def test_node_failure_all_distinct(self, paper_graph):
        for s, t, w in node_failure_workload(paper_graph, 25):
            assert len({s, t, w}) == 3


class TestReporting:
    def test_render_table_contains_everything(self):
        out = render_table(
            "Table X",
            ["name", "count", "ratio"],
            [["alpha", 1234, 0.5], ["beta", 7, float("inf")]],
            note="hello",
        )
        assert "Table X" in out
        assert "1,234" in out
        assert "inf" in out
        assert "note: hello" in out

    def test_render_table_alignment(self):
        out = render_table("T", ["a"], [["x"], ["longer"]])
        lines = out.splitlines()
        assert len(set(map(len, lines[1:4]))) == 1  # fixed width

    def test_grouped_bars_log_scale(self):
        out = render_grouped_bars(
            "Figure Y",
            ["Gnu", "Fac"],
            ["naive", "aff", "all"],
            [[1000.0, 100.0, 1.0], [2000.0, 50.0, 2.0]],
            log_scale=True,
            unit="s",
        )
        assert "Figure Y" in out and "log scale" in out
        assert out.count("|") >= 6

    def test_grouped_bars_empty(self):
        out = render_grouped_bars("Z", ["g"], ["s"], [[0.0]])
        assert "no data" in out

    def test_ratio_line(self):
        line = render_ratio_line("IT", 2.0, 0.5)
        assert "x4.00" in line


def test_env_metadata_keys_match_the_report_stamp():
    # benchmarks/e2e/run.py stamps exactly these into every report's "env".
    from repro.bench.history import env_metadata

    meta = env_metadata()
    assert set(meta) == {
        "python",
        "implementation",
        "numpy",
        "platform",
        "machine",
        "cpu_count",
        "hostname",
        "git_sha",
        "kernel_tier",
        "peak_rss_bytes",
    }
    assert meta["hostname"]
    assert meta["kernel_tier"] in ("numpy", "cext")

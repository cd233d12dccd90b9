"""Table 5 — total identification time for all single-edge failure cases.

Paper reference (Table 5): 4.3 s (Ca-GrQc) to 612 s (Wiki-Vote); the
paper attributes the speed to identifying affected vertices "in a BFS
manner" against one endpoint of the failed edge.  Our column is the
summed IDENTIFY stage of the full build (same definition), on the
analogue datasets.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.datasets import DATASET_ORDER, DATASETS
from repro.bench.reporting import render_table
from repro.core.builder import SIEFBuilder


@pytest.mark.parametrize("name", DATASET_ORDER)
def test_identification_sample(benchmark, context, name):
    """Measured operation: IDENTIFY over a 50-edge sample (fresh builder)."""
    ctx = context(name)
    edges = list(ctx.graph.edges())
    sample = random.Random(2).sample(edges, min(50, len(edges)))
    builder = SIEFBuilder(ctx.graph, ctx.labeling, algorithm="bfs_all")

    def run():
        for u, v in sample:
            builder.build_case(u, v)

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_print_table5(benchmark, context, emit):
    rows = []
    for name in DATASET_ORDER:
        ctx = context(name)
        paper = DATASETS[name].paper
        rows.append(
            [
                name,
                ctx.report.identify_seconds,
                ctx.graph.num_edges,
                ctx.report.identify_seconds / ctx.graph.num_edges * 1e3,
                paper.identification_seconds,
            ]
        )
    table = benchmark.pedantic(
        render_table,
        args=(
            "Table 5: total identification time (all failure cases)",
            [
                "dataset",
                "identify (s)",
                "cases",
                "per case (ms)",
                "paper total (s)",
            ],
            rows,
        ),
        kwargs={
            "note": "IDENTIFY = distance vectors + Algorithm 1 flood, "
            "summed over every edge of the graph"
        },
        rounds=1,
        iterations=1,
    )
    emit("table5_identification", table)

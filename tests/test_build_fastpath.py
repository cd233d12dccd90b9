"""Construction fast-path: speedup smoke and CLI flag plumbing."""

from __future__ import annotations

import time

import pytest

from repro.cli import build_parser
from repro.core.builder import SIEFBuilder
from repro.graph.generators import barabasi_albert
from repro.labeling.pll import build_pll


@pytest.mark.slow
def test_batched_build_at_least_2x_faster_than_scalar():
    """The headline guarantee of the fast path, on a small BA graph.

    This smoke keeps CI honest at a size it can afford, where the
    vectorization win is smaller than at scale but must still clear 2×.
    """
    g = barabasi_albert(1200, 3, seed=7)
    labeling = build_pll(g)
    import random

    edges = sorted(random.Random(42).sample(sorted(g.edges()), 12))

    t0 = time.perf_counter()
    idx_scalar, _ = SIEFBuilder(g, labeling, "bfs_all").build(edges=edges)
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    idx_batched, _ = SIEFBuilder(g, labeling, "batched").build(edges=edges)
    batched_s = time.perf_counter() - t0

    # Equality first — a fast wrong answer is not a speedup.
    assert set(idx_scalar.supplements) == set(idx_batched.supplements)
    for edge, si in idx_scalar.supplements.items():
        assert si == idx_batched.supplements[edge]

    speedup = scalar_s / batched_s if batched_s else float("inf")
    assert speedup >= 2.0, (
        f"batched build only {speedup:.2f}x faster "
        f"({scalar_s:.2f}s scalar vs {batched_s:.2f}s batched)"
    )


class TestCLIFlags:
    def test_build_accepts_jobs_and_batched(self):
        args = build_parser().parse_args(
            ["build", "g.txt", "--algorithm", "batched", "--jobs", "4"]
        )
        assert args.jobs == 4
        assert args.algorithm == "batched"

    def test_build_algorithm_batched_choice(self):
        args = build_parser().parse_args(
            ["build", "g.txt", "--algorithm", "batched"]
        )
        assert args.algorithm == "batched"

    @pytest.mark.parametrize("algorithm", ["bfs_aff", "bfs_all"])
    def test_paper_algorithms_stay_selectable(self, algorithm):
        args = build_parser().parse_args(
            ["build", "g.txt", "--algorithm", algorithm]
        )
        assert args.algorithm == algorithm

    def test_default_is_batched_serial(self):
        args = build_parser().parse_args(["build", "g.txt"])
        assert args.jobs == 1
        assert args.algorithm == "batched"

    @pytest.mark.parametrize("flag", ["--batched", "--no-batched"])
    def test_batched_flags_are_gone(self, flag):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["build", "g.txt", flag])
        assert exc.value.code == 2

    def test_metrics_has_same_flags(self):
        args = build_parser().parse_args(["metrics", "--jobs", "2"])
        assert args.jobs == 2
        assert args.algorithm == "batched"


def test_cli_default_build_matches_paper_reference(tmp_path, capsys):
    """A bare ``sief build`` writes the bytes ``--algorithm bfs_all`` does."""
    from repro.cli import main
    from repro.core.index import SIEFIndex
    from repro.core.serialize import index_to_bytes
    from repro.graph.io import write_edge_list

    path = tmp_path / "g.txt"
    write_edge_list(barabasi_albert(60, 2, seed=3), path)
    default_out = tmp_path / "default.sief"
    reference_out = tmp_path / "reference.sief"
    assert main(["build", str(path), "-o", str(default_out)]) == 0
    assert "SIEF (batched" in capsys.readouterr().out
    assert main(
        ["build", str(path), "--algorithm", "bfs_all", "-o", str(reference_out)]
    ) == 0
    assert index_to_bytes(SIEFIndex.load(default_out)) == index_to_bytes(
        SIEFIndex.load(reference_out)
    )

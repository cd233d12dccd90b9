"""Benchmark harness: datasets, workloads, runner, reporting.

The modules here are what the ``benchmarks/`` suite drives:

* :mod:`repro.bench.datasets` — the six synthetic analogues of the
  paper's SNAP graphs, plus each dataset's published reference numbers
  so every table prints "paper vs measured" side by side.
* :mod:`repro.bench.workloads` — query/failure workload construction.
* :mod:`repro.bench.runner` — cached dataset/labeling/index pipeline so a
  single pytest session builds each dataset exactly once.
* :mod:`repro.bench.reporting` — fixed-width table and bar-chart text
  renderers matching the paper's rows and series.
* :mod:`repro.bench.history` — :func:`env_metadata`, the host/toolchain
  fingerprint stamped into every benchmark report.
"""

from repro.bench.datasets import (
    DATASETS,
    DatasetSpec,
    PaperReference,
    load_dataset,
)
from repro.bench.history import env_metadata
from repro.bench.runner import BenchContext, get_context, clear_cache
from repro.bench.reporting import render_table, render_grouped_bars

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "PaperReference",
    "load_dataset",
    "BenchContext",
    "get_context",
    "clear_cache",
    "render_table",
    "render_grouped_bars",
    "env_metadata",
]

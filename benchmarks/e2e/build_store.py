"""Build one workload's index in a fresh process, as an operator would.

    PYTHONPATH=src python benchmarks/e2e/build_store.py \
        --workload paged-zipf --out DIR [--tiny] [--traced | --setup-only]

Generates the workload's graph, runs ``build_pll`` and then either
``SIEFBuilder`` + ``save_npz`` (``.npz`` workloads) or
``build_sief_sharded`` (``.siefseg`` workloads) into ``DIR``, and prints
one JSON line of timings.  ``graph_ready`` is a ``time.perf_counter``
stamp, which on Linux is the system-wide monotonic clock, so the parent
can subtract its own spawn time from it.  ``--setup-only`` stops there.

``--traced`` runs the build under ``obs.hooks.installed`` and adds the
build-layer figures taken from the ``sief.build.*`` and ``sief.ooc.*``
series, plus the spans for the benchmark's Chrome trace.  For ``.npz``
workloads it also writes the same cases to a scratch segment store so
the spill and paging layers are measured on every workload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.core.builder import SIEFBuilder  # noqa: E402
from repro.core.segstore import SegmentWriter, build_sief_sharded  # noqa: E402
from repro.labeling.pll import build_pll  # noqa: E402
from repro.obs import hooks  # noqa: E402
from repro.obs.events import peak_rss_bytes  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.obs.trace import TraceRecorder  # noqa: E402

import workloads as wl  # noqa: E402


class _CaseTicks:
    """Progress hook recording when each failure case finishes."""

    def __init__(self) -> None:
        self.stamps = []

    def advance(self, n: int = 1) -> None:
        self.stamps.append(time.perf_counter())


def _spill(index, path: Path) -> dict:
    """Write ``index``'s cases to a segment store, timed like a spill."""
    t0 = time.perf_counter()
    with SegmentWriter(path, index.labeling) as writer:
        for edge, si in index.iter_cases():
            writer.append_case(edge, si)
    return {
        "spill_s": time.perf_counter() - t0,
        "bytes_written": writer.bytes_written,
        "segstore": str(path),
    }


def _build_layers(reg: MetricsRegistry, tracer: TraceRecorder) -> dict:
    hist = reg.histograms
    counters = reg.counters
    affected = hist["sief.build.affected_per_case"]
    return {
        "identify_s": hist["sief.build.identify_seconds"].sum,
        "relabel_s": hist["sief.build.relabel_seconds"].sum,
        "affected_per_case": affected.sum / affected.count,
        "relabel_expanded": counters["sief.build.relabel_expanded"].value,
        "case_build_s": sum(
            r.seconds for r in tracer.records() if r.name == "sief.build"
        ),
    }


def build(w: wl.Workload, out: Path, traced: bool, setup_only: bool) -> dict:
    graph = wl.make_graph(w)
    doc = {"graph_ready": time.perf_counter()}
    if setup_only:
        return doc
    edges = wl.case_edges(graph, w)
    path = wl.store_path(out, w)
    reg = tracer = None
    ctx = nullcontext()
    if traced:
        reg, tracer = MetricsRegistry(), TraceRecorder(capacity=1 << 16)
        ctx = hooks.installed(reg, tracer)
    ticks = _CaseTicks()
    with ctx:
        t0 = time.perf_counter()
        with (tracer.span("bench.build_pll") if traced else nullcontext()):
            labeling = build_pll(graph, freeze=True)
        t1 = time.perf_counter()
        hooks.progress = ticks
        try:
            if w.store == "npz":
                index, _ = SIEFBuilder(graph, labeling, "batched").build(edges=edges)
                t2 = time.perf_counter()
                index.save_npz(path)
            else:
                with (
                    tracer.span("bench.build_sief_sharded") if traced else nullcontext()
                ):
                    build_sief_sharded(
                        graph,
                        path,
                        labeling=labeling,
                        algorithm="batched",
                        edges=edges,
                        shard_size=w.shard_size,
                        jobs=1,
                    )
                t2 = time.perf_counter()
        finally:
            hooks.progress = None
        t3 = time.perf_counter()
    stamps = [t1] + ticks.stamps
    doc.update(
        pll_s=t1 - t0,
        cases_s=t2 - t1,
        write_s=t3 - t2,
        build_s=t3 - t0,
        store=str(path),
        store_bytes=wl.store_bytes(path),
        num_cases=len(edges),
        case_gaps_s=[b - a for a, b in zip(stamps, stamps[1:])],
        peak_rss_bytes=peak_rss_bytes(),
    )
    if traced:
        layers = _build_layers(reg, tracer)
        if w.store == "npz":
            layers.update(_spill(index, out / "scratch.siefseg"))
        else:
            # Everything the sharded build spent outside building cases:
            # writer set-up, record appends and the TOC.
            layers["spill_s"] = doc["cases_s"] - layers["case_build_s"]
            layers["bytes_written"] = reg.counters["sief.ooc.spilled_bytes"].value
            layers["segstore"] = str(path)
        doc["layers"] = layers
        doc["spans"] = [
            [r.name, r.depth, r.seconds, r.start] for r in tracer.records()
        ]
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--tiny", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--traced", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    w = wl.get_workload(args.workload, args.tiny)
    print(json.dumps(build(w, args.out, args.traced, args.setup_only)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

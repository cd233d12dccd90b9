"""One-command end-to-end benchmark of SIEF's serving and build paths.

    PYTHONPATH=src python benchmarks/e2e/run.py --workload {all|NAME} \
        --seed N [--seconds S] [--out DIR] [--traced | --trace 0|1]

Drives the production paths from outside: ``sief serve --workers 1`` as
a subprocess under an asyncio load generator with at most two keep-alive
connections, and ``build_pll`` + ``build_sief_sharded`` in fresh
processes.  ``--workload all`` runs each workload in its own process.

An untraced run prints every end-to-end metric; ``--traced`` (or
``--trace 1``) prints the per-layer metrics instead, and writes a Chrome
trace plus the full per-layer report to ``--out``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any wrong answer, non-200 response or
transport error makes the run exit nonzero.

Statistics.  The reference box's cores run about a third slower whenever
a neighbour is busy, in spells from a second to a minute, so a median
over a run moves with the share of slow spells in it.  Each measured
phase is therefore cut into ``WINDOWS`` windows of consecutive requests,
and a latency or rate metric is the window at the fastest tenth
(``FAST_SHARE``): a low order statistic, like the min-of-k of ``sief
bench compare``, but one that a single outlying window cannot set.
build-spill takes each failure case's fastest build.  Set-up runs
``SETUPS`` times, one before the load and the rest after it, and reports
the median.  Every window's values and the median window are kept in the
report.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BUILD_DIR = Path(__file__).resolve().parent / ".bench_build"

if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"run.py: no SIEF source tree at {SRC}; run it from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.bench.history import env_metadata  # noqa: E402
from repro.core.index import SIEFIndex  # noqa: E402
from repro.core.lazy import PagedSIEFIndex  # noqa: E402
from repro.core.query import SIEFQueryEngine  # noqa: E402
from repro.core.segstore import SegmentStore  # noqa: E402
from repro.failures.model import cross_side_query_triples  # noqa: E402
from repro.kernels import effective_tier  # noqa: E402
from repro.obs.chrometrace import write_chrome_trace  # noqa: E402
from repro.obs.trace import SpanRecord, TraceRecorder  # noqa: E402
from repro.testing.oracles import undirected_truth  # noqa: E402

import layers  # noqa: E402
import loadgen  # noqa: E402
import workloads as wl  # noqa: E402

DEFAULT_SECONDS = 16
WINDOWS = 32
FAST_SHARE = 0.1
SETUPS = 5
MIN_BUILDS = 2
OPEN_RATES = (150.0, 450.0)
LATE_LIMIT_MS = 5.0
LOAD_ATTEMPTS = 3

END_TO_END = {
    "setup_s": "s",
    "store_bytes_per_case": "bytes",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "ops_per_s": "1/s",
}
PER_LAYER = {
    "serve.server.residual_ms": "ms",
    "serve.server.parse_ms": "ms",
    "serve.server.serialize_ms": "ms",
    "serve.batcher.queue_ms": "ms",
    "serve.batcher.queue_p90_ms": "ms",
    "serve.batcher.batch_ms": "ms",
    "serve.batcher.deadline_flush_frac": "ratio",
    "serve.batcher.pairs_per_flush": "count",
    "serve.batcher.groups_per_flush": "count",
    "core.query.compute_ms": "ms",
    "core.query.compute_p99_ms": "ms",
    "core.query.case4_pairs_per_s": "1/s",
    "core.query.case123_pairs_per_s": "1/s",
    "core.query.hubs_per_case4_pair": "count",
    "core.query.call_us": "us",
    "core.query.case4_share": "ratio",
    "labeling.query.pairs_per_s": "1/s",
    "serve.protocol.codec_us": "us",
    "core.lazy.miss_frac": "ratio",
    "core.lazy.pages_faulted_per_request": "count",
    "core.segstore.load_case_us": "us",
    "core.segstore.spill_s": "s",
    "core.segstore.bytes_written": "bytes",
    "labeling.pll.build_s": "s",
    "core.builder.identify_s": "s",
    "core.builder.affected_per_case": "count",
    "core.batched.relabel_s": "s",
    "core.batched.relabel_expanded": "count",
    "obs.trace_overhead_frac": "ratio",
    "loadgen.cpu_frac": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_build_store(w, out: Path, tiny: bool, mode: str = "") -> tuple:
    """``build_store.py`` in a fresh process; returns ``(doc, spawned_at, wall)``."""
    cmd = [sys.executable, str(Path(__file__).with_name("build_store.py")),
           "--workload", w.name, "--out", str(out)]
    if tiny:
        cmd.append("--tiny")
    if mode:
        cmd.append(mode)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env())
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"build_store.py failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), t0, wall


# -- statistics ------------------------------------------------------------


def q(values, p: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), p))


def med(values) -> float:
    return float(statistics.median(values))


def window_stats(samples, key) -> dict:
    """p50/p90 latency and completion rate of each window of a phase.

    The phase's requests, in ``key`` order (due time for an open loop,
    completion time for a closed one), are cut into up to ``WINDOWS``
    runs of equal count, about half a second each at the default length.
    """
    ordered = sorted(samples, key=key)
    size = max(2, len(ordered) // WINDOWS)
    wins = [ordered[i : i + size] for i in range(0, len(ordered) - size + 1, size)]
    return {
        "p50_ms": [q([s.latency for s in w], 0.5) * 1e3 for w in wins],
        "p90_ms": [q([s.latency for s in w], 0.9) * 1e3 for w in wins],
        "ops_per_s": [
            (size - 1) / (max(s.end for s in w) - min(s.end for s in w)) for w in wins
        ],
        "window_size": size,
        "samples": len(ordered),
    }


def fast(values, higher_is_better: bool = False) -> float:
    """The window at the ``FAST_SHARE`` quantile of speed: where the
    fastest tenth of a phase's windows begins.  Slow spells of the box
    move it only when they cover nearly the whole phase."""
    ordered = sorted(values, reverse=higher_is_better)
    return ordered[int(FAST_SHARE * len(ordered))]


# -- correctness -----------------------------------------------------------


def load_engine(w, store: Path) -> SIEFQueryEngine:
    """The store opened exactly as ``sief serve`` opens it."""
    if w.store == "npz":
        return SIEFQueryEngine(SIEFIndex.load(store, mmap_mode="r").freeze())
    return SIEFQueryEngine(PagedSIEFIndex(SegmentStore(store), capacity=w.cache_cases))


def attach_reference(engine, stream) -> None:
    """Reference answers: ``batch_query`` on the same store, per request."""
    for req in stream:
        req.expect = engine.batch_query(req.edge, req.pairs)


def oracle_mismatches(graph, engine, triples) -> int:
    """Engine answers that differ from a BFS avoiding the failed edge."""
    bad = 0
    for edge, pairs in wl.group_triples(triples).items():
        got = engine.batch_query(edge, pairs)
        truth = np.asarray(undirected_truth(graph, edge, [tuple(p) for p in pairs]))
        bad += int(np.sum(got != truth))
    return bad


def verify_stream(graph, cases, store, seed: int):
    """build-spill's check: uniform and cross-side triples, one request per edge."""
    rng = random.Random(seed)
    n = graph.num_vertices
    triples = [
        (rng.randrange(n), rng.randrange(n), rng.choice(cases))
        for _ in range(wl.ORACLE_TRIPLES // 2)
    ]
    triples += [
        (t.s, t.t, t.edge)
        for t in cross_side_query_triples(store, wl.ORACLE_TRIPLES // 2, seed=seed + 2)
    ]
    return [wl.batch_request(e, p) for e, p in sorted(wl.group_triples(triples).items())]


def client_track(tracer: TraceRecorder, samples) -> None:
    """One timeline row of client request spans (requests overlap across
    connections, so they are recorded as a track, not as nested spans)."""
    tracer.add_track(
        "client requests",
        [SpanRecord("bench.request", 0, s.wall, s.sent) for s in samples],
    )


# -- serve workloads -------------------------------------------------------


class ServeRun:
    """Set-up, reference answers and load for one serve workload."""

    def __init__(self, w, args, work: Path) -> None:
        self.w, self.args, self.work = w, args, work
        self.graph = wl.make_graph(w)
        self.cases = wl.case_edges(self.graph, w)
        self.setup_s, self.builds = [], []
        self.server = None

    def build_and_serve(self, k: int, traced: bool = False):
        """One set-up; returns the running server.

        Set-up time is the fresh-process build plus the server spawn up to
        its first ``/healthz`` 200.  After the first build the reference
        answers and the oracle check run between the two, untimed.
        """
        doc, _, wall = run_build_store(
            self.w, self.work / f"setup{k}", self.args.tiny, "--traced" if traced else ""
        )
        self.builds.append(doc)
        store = Path(doc["store"])
        if k == 0:
            self.engine = load_engine(self.w, store)
            self.cases_view = (
                self.engine.index if self.w.store == "npz" else SegmentStore(store)
            )
            self.stream = wl.make_stream(
                self.w, self.graph, self.cases, self.cases_view, self.args.seed
            )
            attach_reference(self.engine, self.stream)
            self.oracle_bad = oracle_mismatches(
                self.graph,
                self.engine,
                wl.oracle_triples(self.stream, self.cases_view, self.args.seed),
            )
        server = loadgen.ServerProcess(
            store, self.w.cache_cases, child_env(), self.work / "server.log"
        )
        t0 = time.perf_counter()
        try:
            server.start()
        except BaseException:
            server.stop()
            raise
        self.setup_s.append(wall + time.perf_counter() - t0)
        return server

    def setup(self, traced: bool) -> None:
        self.server = self.build_and_serve(0, traced)

    def repeat_setup(self) -> int:
        """The other ``SETUPS - 1`` set-ups, run after the load so that the
        set-ups of one run are spread over it rather than bunched at its
        start.  Returns how many servers failed to drain cleanly."""
        return sum(self.build_and_serve(k).stop() != 0 for k in range(1, SETUPS))

    async def load(self, seconds: float, debug_every: int = 0):
        """The measured traffic; returns ``(phases, lateness, cpu_frac)``.

        ``phases`` maps a phase name to ``(samples, key)``.  A
        traced run measures only the reference load, with every second
        request asking for the server's stage decomposition.
        """
        w, seed = self.w, self.args.seed
        phases, lateness = {}, []
        async with loadgen.LoadGenerator(
            self.server.host, self.server.port, self.stream, w.route
        ) as gen:
            cpu0, t0 = time.process_time(), time.perf_counter()
            if w.traffic == "open":
                plan = [(OPEN_RATES[0], seconds)] if debug_every else [
                    (OPEN_RATES[0], 0.6 * seconds), (OPEN_RATES[1], 0.2 * seconds)
                ]
                for k, (rate, length) in enumerate(plan):
                    samples, late = await gen.open_loop(rate, length, seed + k, debug_every)
                    phases[f"{rate:g}qps"] = (samples, lambda s: s.due)
                    lateness += late
                if not debug_every:
                    phases["closed"] = (await gen.closed_loop(0.2 * seconds), lambda s: s.end)
            else:
                samples = await gen.closed_loop(seconds, debug_every)
                phases["closed"] = (samples, lambda s: s.end)
            cpu_frac = (time.process_time() - cpu0) / (time.perf_counter() - t0)
        return phases, lateness, cpu_frac

    def close(self) -> int:
        return self.server.stop() if self.server is not None else 0


def run_serve(w, args, work: Path) -> dict:
    run = ServeRun(w, args, work)
    try:
        run.setup(traced=bool(args.trace))
        result = (_serve_traced if args.trace else _serve_timed)(run, args)
    finally:
        exit_code = run.close()
    # An unclean drain is a failure in either mode.
    result["failed"] += exit_code != 0
    if not args.trace:
        result["failed"] += run.repeat_setup()
        result["metrics"]["setup_s"] = med(run.setup_s)
        result["detail"]["setup_s"] = run.setup_s
    result["extras"]["server_exit_code"] = exit_code
    result["extras"]["error_frac"] = result["failed"] / result["attempted"]
    return result


def _serve_timed(run: ServeRun, args) -> dict:
    w = run.w
    # A measurement during which the generator itself fell behind its
    # schedule is discarded and repeated, at most LOAD_ATTEMPTS times.
    attempts = []
    while True:
        phases, lateness, cpu_frac = asyncio.run(run.load(args.seconds))
        late_ms = q(lateness, 0.99) * 1e3 if lateness else 0.0
        attempts.append((phases, late_ms))
        if late_ms <= LATE_LIMIT_MS or len(attempts) == LOAD_ATTEMPTS:
            break
    peak_rss = run.server.metrics()["gauges"]["process_peak_rss_bytes"]

    served = [s for ph, _ in attempts for samples, _ in ph.values() for s in samples]
    failed = sum(not s.ok for s in served) + run.oracle_bad
    attempted = len(served) + wl.ORACLE_TRIPLES
    stats = {name: window_stats(*ph) for name, ph in phases.items()}
    ref_phase = f"{OPEN_RATES[0]:g}qps" if w.traffic == "open" else "closed"
    ref, closed = stats[ref_phase], stats["closed"]
    metrics = {
        "store_bytes_per_case": run.builds[0]["store_bytes"] / run.builds[0]["num_cases"],
        "peak_rss_mb": peak_rss / 2**20,
        "p50_ms": fast(ref["p50_ms"]),
        "p90_ms": fast(ref["p90_ms"]),
        "ops_per_s": fast(closed["ops_per_s"], higher_is_better=True),
    }
    extras = {
        "build_s": run.builds[0]["build_s"],
        "p50_ms_median_window": med(ref["p50_ms"]),
        "p90_ms_median_window": med(ref["p90_ms"]),
        "ops_per_s_median_window": med(closed["ops_per_s"]),
        "p99_ms": q([s.latency for s in phases[ref_phase][0]], 0.99) * 1e3,
        "pairs_per_s": metrics["ops_per_s"] * len(run.stream[0].pairs),
        "loadgen.cpu_frac": cpu_frac,
        "load_attempts": len(attempts),
        "oracle_mismatches": run.oracle_bad,
    }
    if w.traffic == "open":
        high = stats[f"{OPEN_RATES[1]:g}qps"]
        extras["p50_ms_450qps"] = fast(high["p50_ms"])
        extras["p90_ms_450qps"] = fast(high["p90_ms"])
        extras["loadgen.late_p99_ms"] = late_ms
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extras": extras,
        "detail": {
            "windows": stats,
            "late_p99_ms_per_attempt": [late for _, late in attempts],
        },
        "late": late_ms > LATE_LIMIT_MS,
    }


def _serve_traced(run: ServeRun, args) -> dict:
    tracer = TraceRecorder(capacity=1 << 16)
    tracer.add_track("build_store.py", layers.span_records(run.builds[0]["spans"]))
    before = run.server.metrics()
    phases, _, cpu_frac = asyncio.run(run.load(args.seconds, debug_every=2))
    after = run.server.metrics()
    (samples, _), = phases.values()
    client_track(tracer, samples)
    server_vals, extras = layers.server_layers(samples, before, after)
    # The traced stream interleaves ?debug=1 requests with plain ones, so
    # the overhead is measured against requests sent at the same moments.
    plain = [s.latency for s in samples if s.debug is None and s.ok]
    debugged = [s.latency for s in samples if s.debug is not None]
    replayed = layers.replay(
        run.w, run.engine, run.cases_view, run.stream,
        Path(run.builds[0]["layers"]["segstore"]), run.cases, args.seed, tracer,
    )
    return {
        "attempted": len(samples) + wl.ORACLE_TRIPLES,
        "failed": sum(not s.ok for s in samples) + run.oracle_bad,
        "metrics": {
            **server_vals,
            **replayed,
            **layers.build_layers(run.builds[0]),
            "obs.trace_overhead_frac": q(debugged, 0.5) / q(plain, 0.5) - 1.0,
            "loadgen.cpu_frac": cpu_frac,
        },
        "extras": extras,
        "tracer": tracer,
    }


# -- build workload --------------------------------------------------------


def run_build(w, args, work: Path) -> dict:
    """Fresh-process builds; a traced run does one plain and one traced."""
    graph = wl.make_graph(w)
    cases = wl.case_edges(graph, w)
    docs, setups = [], []

    def build(mode: str = "") -> None:
        doc, spawned, _ = run_build_store(w, work / f"build{len(docs)}", args.tiny, mode)
        docs.append(doc)
        setups.append(doc["graph_ready"] - spawned)

    if args.trace:
        build()
        build("--traced")
    else:
        t_start = time.perf_counter()
        while len(docs) < MIN_BUILDS or time.perf_counter() - t_start < args.seconds:
            build()
        while len(setups) < SETUPS:
            doc, spawned, _ = run_build_store(w, work / "setup-only", args.tiny, "--setup-only")
            setups.append(doc["graph_ready"] - spawned)

    store = SegmentStore(docs[-1]["store"])
    engine = SIEFQueryEngine(PagedSIEFIndex(store, capacity=w.cache_cases))
    stream = verify_stream(graph, cases, store, args.seed)
    attach_reference(engine, stream)
    triples = [(int(s), int(t), r.edge) for r in stream for s, t in r.pairs]
    failed = oracle_mismatches(graph, engine, triples)
    failed += len({d["store_bytes"] for d in docs}) - 1  # every build writes the same store
    attempted = len(triples) + sum(d["num_cases"] for d in docs)
    if args.trace:
        return _build_traced(w, args, work, docs, engine, store, stream, cases, failed, attempted)

    # Each case's fastest build across the run: the case set is fixed, so
    # per-case minima are comparable from run to run.
    gaps = np.min([d["case_gaps_s"] for d in docs], axis=0)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": med(setups),
            "store_bytes_per_case": docs[-1]["store_bytes"] / docs[-1]["num_cases"],
            "peak_rss_mb": med([d["peak_rss_bytes"] for d in docs]) / 2**20,
            "p50_ms": q(gaps, 0.5) * 1e3,
            "p90_ms": q(gaps, 0.9) * 1e3,
            "ops_per_s": len(gaps) / float(gaps.sum()),
        },
        "extras": {
            "build_s": min(d["build_s"] for d in docs),
            "build_s_median": med([d["build_s"] for d in docs]),
            "pll_s": min(d["pll_s"] for d in docs),
            "error_frac": failed / attempted,
            "oracle_mismatches": failed,
        },
        "detail": {
            "setup_s": setups,
            "build_s": [d["build_s"] for d in docs],
            "case_gaps_s": [d["case_gaps_s"] for d in docs],
        },
    }


def _build_traced(w, args, work, docs, engine, store, stream, cases, failed, attempted) -> dict:
    """Layers from the traced build, then the fresh store served and checked."""
    plain, traced = docs
    tracer = TraceRecorder(capacity=1 << 16)
    tracer.add_track("build_store.py", layers.span_records(traced["spans"]))
    server = loadgen.ServerProcess(
        Path(traced["store"]), w.cache_cases, child_env(), work / "server.log"
    )
    try:
        server.start()
        before = server.metrics()

        async def load():
            async with loadgen.LoadGenerator(
                server.host, server.port, stream, "/batch.bin"
            ) as gen:
                cpu0, t0 = time.process_time(), time.perf_counter()
                samples = await gen.closed_loop(min(2.0, args.seconds), debug_every=2)
                return samples, (time.process_time() - cpu0) / (time.perf_counter() - t0)

        samples, cpu_frac = asyncio.run(load())
        after = server.metrics()
    finally:
        exit_code = server.stop()
    client_track(tracer, samples)
    server_vals, extras = layers.server_layers(samples, before, after)
    replayed = layers.replay(
        w, engine, store, stream, Path(traced["store"]), cases, args.seed, tracer
    )
    return {
        "attempted": attempted + len(samples),
        "failed": failed + sum(not s.ok for s in samples) + (exit_code != 0),
        "metrics": {
            **server_vals,
            **replayed,
            **layers.build_layers(traced),
            "obs.trace_overhead_frac": traced["build_s"] / plain["build_s"] - 1.0,
            "loadgen.cpu_frac": cpu_frac,
        },
        "extras": extras,
        "tracer": tracer,
    }


# -- entry points ----------------------------------------------------------


def run_one(args) -> int:
    w = wl.get_workload(args.workload, args.tiny)
    effective_tier()  # compile the kernel tier before anything is timed
    work = BUILD_DIR / "e2e-work" / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_build if w.traffic == "build" else run_serve
        result = runner(w, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    late = result.pop("late", False)
    tracer = result.pop("tracer", None)
    tag = f"{w.name}-seed{args.seed}" + ("-traced" if args.trace else "")
    args.out.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        write_chrome_trace(tracer, args.out / f"{tag}.trace.json", process_name="sief-e2e")
    correct = result["failed"] == 0
    report = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "tiny": args.tiny,
        "env": {
            **env_metadata(),
            "connections": loadgen.CONNECTIONS,
            "kernel_tier_env": os.environ.get("SIEF_KERNELS"),
        },
        "correct": correct,
        **result,
    }
    if args.trace:
        report["layer_map"] = layers.LAYER_MAP
    (args.out / f"{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"{w.name} seed={args.seed} {'traced' if args.trace else 'untraced'}")
    for name, unit in units.items():
        print(f"  {name:38s} {result['metrics'][name]:14.6g} {unit}")
    for name, value in result["extras"].items():
        if isinstance(value, (int, float)):
            print(f"  ({name:36s} {value:14.6g})")
    if late:
        print(
            f"load generator ran late in {LOAD_ATTEMPTS} attempts: p99 lateness "
            f"{result['extras']['loadgen.late_p99_ms']:.2f} ms > {LATE_LIMIT_MS:g} ms",
            file=sys.stderr,
        )
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct and not late else 1


def run_all(argv) -> int:
    """Each workload in its own fresh process; one summary line at the end."""
    lines, ok = {}, True
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, *_with_workload(argv, name)],
            capture_output=True, text=True, env=child_env(),
        )
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        ok &= proc.returncode == 0
        lines[name] = json.loads(out[-1]) if out else {
            "correct": False, "attempted": 1, "failed": 1, "metrics": {}
        }
    print(json.dumps({
        "correct": all(v["correct"] for v in lines.values()),
        "attempted": sum(v["attempted"] for v in lines.values()),
        "failed": sum(v["failed"] for v in lines.values()),
        "metrics": {k: v["metrics"] for k, v in lines.items()},
    }))
    return 0 if ok else 1


def _with_workload(argv, name: str) -> list:
    """``argv`` with the ``--workload`` value replaced by ``name``."""
    out = list(argv)
    for i, a in enumerate(out):
        if a == "--workload":
            out[i + 1] = name
        elif a.startswith("--workload="):
            out[i] = f"--workload={name}"
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["all", *wl.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="measured seconds per run (dist-open splits them 60/20/20 "
        "over 150 qps, 450 qps and the closed loop)",
    )
    parser.add_argument("--out", type=Path, default=BUILD_DIR / "e2e")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test sizes (not comparable)"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    # Everything the benchmark builds or writes stays inside the checkout:
    # the compiled kernel tier, and git's search for the commit stamp.
    os.environ.setdefault("SIEF_KERNELS_CACHE", str(BUILD_DIR / "sief-kernels"))
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
    if args.workload == "all":
        return run_all(argv)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

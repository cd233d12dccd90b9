"""Exporters: registry snapshots as JSON-lines and Prometheus text.

Two formats cover the two consumers this library has today:

* **JSON-lines** — one self-describing object per line (``{"type":
  "counter", "name": ..., "value": ...}``), the sidecar format the
  bench runner and ``sief fuzz --metrics-out`` write next to their
  results.  Line-oriented so sidecars concatenate and grep cleanly.
* **Prometheus text exposition (0.0.4)** — for scraping a future
  serving deployment.  Metric names are sanitized (dots and dashes to
  underscores), histograms render the cumulative ``_bucket{le=...}`` /
  ``_sum`` / ``_count`` triplet with a closing ``+Inf`` bucket.

Both exporters read one :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
so a single consistent view feeds every output.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_name(name: str, taken: Optional[Dict[str, str]] = None) -> str:
    """Map an internal dotted metric name to a Prometheus-legal one.

    Names that would start with a digit (or sanitize to nothing) get a
    ``_`` prefix.  Pass the same ``taken`` dict (sanitized -> original)
    across a batch of names to make the mapping injective: when two
    *distinct* originals sanitize to the same string, the later one
    gets a short content-hash suffix instead of silently colliding —
    two metrics must never merge into one exposition series.
    """
    out = _NAME_RE.sub("_", name)
    if not out or out[0].isdigit():
        out = "_" + out
    if taken is not None:
        prev = taken.get(out)
        if prev is not None and prev != name:
            out = f"{out}_{hashlib.sha1(name.encode()).hexdigest()[:6]}"
        taken.setdefault(out, name)
    return out


# ---------------------------------------------------------------------------
# JSON lines
# ---------------------------------------------------------------------------


def to_json_lines(
    registry: MetricsRegistry, tracer: Optional[TraceRecorder] = None
) -> str:
    """One JSON object per line for every instrument (and span, if given)."""
    snap = registry.snapshot()
    lines: List[str] = []
    for name, value in snap["counters"].items():
        lines.append(
            json.dumps({"type": "counter", "name": name, "value": value})
        )
    for name, value in snap["gauges"].items():
        lines.append(
            json.dumps({"type": "gauge", "name": name, "value": value})
        )
    for name, data in snap["histograms"].items():
        lines.append(
            json.dumps(
                {
                    "type": "histogram",
                    "name": name,
                    "edges": data["edges"],
                    "counts": data["counts"],
                    "sum": data["sum"],
                    "count": data["count"],
                }
            )
        )
    if tracer is not None:
        if "trace.dropped_spans" not in snap["counters"]:
            # Surface ring-buffer overflow even when nobody synced the
            # recorder into the registry (see TraceRecorder.sync_registry).
            lines.append(
                json.dumps(
                    {
                        "type": "counter",
                        "name": "trace.dropped_spans",
                        "value": tracer.dropped_spans,
                    }
                )
            )
        for rec in tracer.records():
            lines.append(
                json.dumps(
                    {
                        "type": "span",
                        "name": rec.name,
                        "depth": rec.depth,
                        "seconds": rec.seconds,
                        "start": rec.start,
                    }
                )
            )
        lines.append(
            json.dumps(
                {
                    "type": "trace_summary",
                    "started": tracer.total_started,
                    "finished": tracer.total_finished,
                    "balanced": tracer.balanced,
                    "dropped": tracer.dropped_spans,
                }
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def write_json_lines(
    registry: MetricsRegistry,
    path: Union[str, Path],
    tracer: Optional[TraceRecorder] = None,
) -> Path:
    """Write :func:`to_json_lines` output to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_json_lines(registry, tracer), encoding="utf-8")
    return path


def read_json_lines(path: Union[str, Path]) -> List[dict]:
    """Parse a JSON-lines sidecar back into a list of dicts."""
    out: List[dict] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            out.append(json.loads(line))
    return out


def registry_from_json_lines(records: List[dict]) -> MetricsRegistry:
    """Rebuild a :class:`MetricsRegistry` from parsed JSON-lines records.

    The inverse of the metrics half of :func:`to_json_lines`:
    ``registry_from_json_lines(read_json_lines(write_json_lines(reg,
    p))).snapshot() == reg.snapshot()`` — the round-trip contract that
    lets a metrics sidecar be re-read and merged later.  Span, summary
    and foreign (``env`` etc.) lines are ignored.
    """
    reg = MetricsRegistry()
    for obj in records:
        kind = obj.get("type")
        if kind == "counter":
            reg.counter(obj["name"]).inc(obj["value"])
        elif kind == "gauge":
            reg.gauge(obj["name"]).set(obj["value"])
        elif kind == "histogram":
            h = reg.histogram(obj["name"], obj["edges"])
            for i, c in enumerate(obj["counts"]):
                h.counts[i] += c
            h.sum += obj["sum"]
            h.count += obj["count"]
    return reg


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        # Prometheus spells the IEEE specials exactly like this; Python's
        # repr ("nan"/"inf") is not legal exposition output.
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def escape_label_value(value: str) -> str:
    """A string made safe for a ``name{label="..."}`` position.

    The 0.0.4 text format escapes exactly three characters inside label
    values: backslash, double quote and newline.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def unescape_label_value(value: str) -> str:
    """Inverse of :func:`escape_label_value`."""
    out: List[str] = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        if nxt == "n":
            out.append("\n")
        elif nxt in ('"', "\\"):
            out.append(nxt)
        else:  # lone backslash before anything else passes through
            out.append(ch + nxt)
    return "".join(out)


def to_prometheus_text(
    registry: MetricsRegistry, tracer: Optional[TraceRecorder] = None
) -> str:
    """The registry in Prometheus text exposition format 0.0.4.

    Sanitized names are de-collided across the whole exposition (see
    :func:`sanitize_name`).  When a ``tracer`` is given, its ring-buffer
    overflow tally is appended as a ``trace_dropped_spans`` counter
    (unless the registry already carries ``trace.dropped_spans``).
    """
    snap = registry.snapshot()
    taken: Dict[str, str] = {}
    lines: List[str] = []
    counters = dict(snap["counters"])
    if tracer is not None and "trace.dropped_spans" not in counters:
        counters["trace.dropped_spans"] = tracer.dropped_spans
    for name, value in counters.items():
        pname = sanitize_name(name, taken)
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {_fmt(value)}")
    for name, value in snap["gauges"].items():
        pname = sanitize_name(name, taken)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_fmt(value)}")
    for name, data in snap["histograms"].items():
        pname = sanitize_name(name, taken)
        lines.append(f"# TYPE {pname} histogram")
        cumulative = 0
        for edge, count in zip(data["edges"], data["counts"]):
            cumulative += count
            lines.append(
                f'{pname}_bucket{{le="{_fmt(edge)}"}} {cumulative}'
            )
        cumulative += data["counts"][-1]
        lines.append(f'{pname}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{pname}_sum {_fmt(data['sum'])}")
        lines.append(f"{pname}_count {data['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(text: str) -> dict:
    """Parse 0.0.4 text exposition back into a snapshot-shaped dict.

    The inverse of :func:`to_prometheus_text` over the subset this
    library emits (no labels except histogram ``le``): the result has
    the same ``{"counters", "gauges", "histograms"}`` shape as
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, keyed by the
    *sanitized* names from the exposition, with histogram bucket counts
    de-cumulated.  ``sief top`` builds its dashboard from this, and the
    round-trip tests pin render → parse → render equality.
    """
    types: Dict[str, str] = {}
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    hist_raw: Dict[str, dict] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"unparseable exposition line: {line!r}")
        name, labels_raw, value_raw = (
            m.group("name"), m.group("labels"), m.group("value")
        )
        value = float(value_raw)
        labels = {
            k: unescape_label_value(v)
            for k, v in _LABEL_RE.findall(labels_raw or "")
        }
        base = None
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and types.get(name[: -len(suffix)]) == (
                "histogram"
            ):
                base = name[: -len(suffix)]
                break
        if base is not None:
            h = hist_raw.setdefault(
                base, {"buckets": [], "sum": 0.0, "count": 0}
            )
            if name.endswith("_bucket"):
                h["buckets"].append((labels.get("le", "+Inf"), value))
            elif name.endswith("_sum"):
                h["sum"] = value
            else:
                h["count"] = int(value)
        elif types.get(name) == "gauge":
            gauges[name] = value
        else:
            counters[name] = value
    histograms: Dict[str, dict] = {}
    for name, h in hist_raw.items():
        edges = [float(le) for le, _ in h["buckets"] if le != "+Inf"]
        cumulative = [v for _, v in h["buckets"]]
        counts = [
            int(c - (cumulative[i - 1] if i else 0))
            for i, c in enumerate(cumulative)
        ]
        histograms[name] = {
            "edges": edges,
            "counts": counts,
            "sum": h["sum"],
            "count": h["count"],
        }
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def quantile_from_buckets(hist: dict, q: float) -> float:
    """Estimate the ``q`` quantile from a parsed histogram dict.

    Linear interpolation within the containing bucket, Prometheus
    ``histogram_quantile`` style: exact only at bucket edges, bounded
    by the bucket width in between — which is why
    :data:`~repro.obs.metrics.REQUEST_LATENCY_EDGES` spaces edges
    1-2.5-5 per decade.  Returns ``nan`` with no observations; a
    quantile landing in the overflow bucket returns the top edge.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    edges, counts = hist["edges"], hist["counts"]
    total = sum(counts)
    if total == 0 or not edges:
        return math.nan
    rank = q * total
    cumulative = 0.0
    for i, count in enumerate(counts):
        prev = cumulative
        cumulative += count
        if cumulative >= rank and count:
            if i >= len(edges):  # overflow bucket: no upper edge
                return float(edges[-1])
            lo = float(edges[i - 1]) if i else 0.0
            hi = float(edges[i])
            return lo + (hi - lo) * ((rank - prev) / count)
    return float(edges[-1])


def write_prometheus_text(
    registry: MetricsRegistry,
    path: Union[str, Path],
    tracer: Optional[TraceRecorder] = None,
) -> Path:
    """Write :func:`to_prometheus_text` output to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_prometheus_text(registry, tracer), encoding="utf-8")
    return path

"""Span tracing around the serve path's layers, from outside the program.

The traced run drives an in-process ``MeasurementDaemon``; :class:`Tracer`
wraps the public functions of each layer (on their classes or modules)
so every call records a span -- name, start, end, parent span, thread --
in memory.  Nothing inside ``src/`` changes.  Spans are written out when
the run ends, and :func:`layer_metrics` reduces them to the per-layer
metrics, each defined as in the benchmark notes.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.rcc import RCCSketch
from repro.core.instameasure import InstaMeasure
from repro.core.wsaf import WSAFTable
from repro.kernels.wsaf_batched import BatchedWSAFTable
from repro.pipeline import driver, sharded, streaming
from repro.service import checkpoint, daemon
from repro.state import ShardRouter, codec

#: Spans that run on the control threads, concurrently with ingest.
CONTROL_SPANS = ("control.query", "control.stats", "sharded.estimates")

#: Names of the WSAF accumulate entry points (nested calls count once).
WSAF_SPAN = "wsaf.accumulate"


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: int  # time.monotonic_ns()
    end: int
    thread: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Records spans while ``enabled``; :meth:`uninstall` undoes the wraps."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: "list[tuple[object, str, object]]" = []

    def _stack(self) -> "list[int]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Record a span per call of ``owner.attr``; ``info(args, result)``
        may attach counts to it."""
        original = owner.__dict__[attr]
        function = getattr(original, "__func__", original)  # classmethods
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            stack = tracer._stack()
            span = Span(
                next(tracer._ids),
                stack[-1] if stack else 0,
                name,
                time.monotonic_ns(),
                0,
                threading.get_ident(),
            )
            stack.append(span.id)
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.monotonic_ns()
                stack.pop()
                tracer.spans.append(span)
            if info is not None:
                span.info = info(args, result)
            return result

        is_classmethod = function is not original
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, original))

    def wrap_iterator(self, owner, attr: str, name: str) -> None:
        """Record a span per ``next()`` of the iterator ``owner.attr``
        returns (the source's read, cut and parse for one chunk)."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(source):
            inner = original(source)
            try:
                while True:
                    if not tracer.enabled:
                        try:
                            chunk = next(inner)
                        except StopIteration:
                            return
                        yield chunk
                        continue
                    stack = tracer._stack()
                    span = Span(
                        next(tracer._ids),
                        stack[-1] if stack else 0,
                        name,
                        time.monotonic_ns(),
                        0,
                        threading.get_ident(),
                    )
                    stack.append(span.id)
                    try:
                        chunk = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span.end = time.monotonic_ns()
                        stack.pop()
                        tracer.spans.append(span)
                    span.info = {"packets": chunk.num_packets}
                    yield chunk
            finally:
                inner.close()

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _packets(args, _result):
    return {"packets": int(args[1].num_packets)}


def _engine_ingest(args, result):
    return {"packets": int(result.packets), "insertions": int(result.insertions)}


def install_layers(tracer: Tracer) -> None:
    """Wrap each serve-path layer's public entry points."""
    tracer.wrap_iterator(streaming.StreamingChunkSource, "__iter__", "streaming.next")
    tracer.wrap(
        streaming,
        "trace_from_records",
        "streaming.parse",
        info=lambda args, result: {"flows": int(result.num_flows)},
    )
    tracer.wrap(driver.Pipeline, "step", "driver.step", info=_packets)
    tracer.wrap(
        sharded.ShardedStreamingMeasurer, "ingest", "sharded.ingest", info=_packets
    )
    tracer.wrap(
        ShardRouter,
        "split_chunk",
        "sharded.split",
        info=lambda args, result: {
            "shards": [int(sub.num_packets) for sub, _positions in result]
        },
    )
    tracer.wrap(InstaMeasure, "ingest", "instameasure.ingest", info=_engine_ingest)
    tracer.wrap(InstaMeasure, "process_trace", "instameasure.process_trace")
    tracer.wrap(RCCSketch, "place_array", "rcc.place_array")
    one = lambda args, result: {"events": 1}  # noqa: E731
    many = lambda args, result: {"events": len(args[1])}  # noqa: E731
    tracer.wrap(WSAFTable, "accumulate", WSAF_SPAN, info=one)
    tracer.wrap(WSAFTable, "accumulate_batch", WSAF_SPAN, info=many)
    tracer.wrap(BatchedWSAFTable, "accumulate_batch", WSAF_SPAN, info=many)
    tracer.wrap(BatchedWSAFTable, "accumulate_batch_arrays", WSAF_SPAN, info=many)
    tracer.wrap(
        sharded.ShardedStreamingMeasurer, "snapshot_shards", "snapshot.capture"
    )
    tracer.wrap(
        codec,
        "to_bytes",
        "snapshot.encode",
        info=lambda args, result: {"bytes": len(result)},
    )
    tracer.wrap(checkpoint.CheckpointStore, "save", "checkpoint.save")
    tracer.wrap(checkpoint.CheckpointStore, "latest", "checkpoint.latest")
    tracer.wrap(checkpoint.CheckpointStore, "load", "checkpoint.load")
    tracer.wrap(
        sharded.ShardedStreamingMeasurer, "from_snapshots", "checkpoint.restore"
    )
    tracer.wrap(daemon.MeasurementDaemon, "query", "control.query")
    tracer.wrap(daemon.MeasurementDaemon, "stats", "control.stats")
    tracer.wrap(
        sharded.ShardedStreamingMeasurer, "estimates", "sharded.estimates"
    )


# -- reduction -----------------------------------------------------------------


def _overlap(span: Span, windows) -> int:
    return sum(
        max(0, min(span.end, hi) - max(span.start, lo)) for lo, hi in windows
    )


def _union_overlap(spans, windows) -> int:
    """Nanoseconds of ``windows`` covered by at least one span."""
    intervals = sorted(
        (max(span.start, lo), min(span.end, hi))
        for span in spans
        for lo, hi in windows
        if span.end > lo and span.start < hi
    )
    covered, cur_lo, cur_hi = 0, None, None
    for lo, hi in intervals:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans, lifetimes) -> "dict[str, tuple[float, str]]":
    """Per-layer metrics over the traced lifetimes.

    ``lifetimes`` lists, per traced daemon lifetime, a dict with
    ``windows`` (monotonic-ns intervals from control-ready to end of
    stream), ``packets`` (stream packets in them), ``load_factor`` and
    ``replayed`` (packets a recovery replayed).
    """
    windows = [w for life in lifetimes for w in life["windows"]]
    wall = sum(hi - lo for lo, hi in windows)
    packets = sum(life["packets"] for life in lifetimes)
    names = {span.id: span.name for span in spans}
    control_threads = {s.thread for s in spans if s.name in CONTROL_SPANS}
    ingest = [s for s in spans if s.thread not in control_threads]

    def total(name, parent=None) -> int:
        return sum(
            _overlap(s, windows)
            for s in ingest
            if s.name == name
            and (parent is None or names.get(s.parent) == parent)
        )

    def per_pkt(ns: float) -> float:
        return ns / packets if packets else 0.0

    # The engine's own WSAF calls (a batch call's nested calls have a WSAF
    # parent and so are left out, as are a restore's).
    wsaf_calls = [
        s
        for s in ingest
        if s.name == WSAF_SPAN and names.get(s.parent) == "instameasure.process_trace"
    ]
    wsaf_ns = sum(_overlap(s, windows) for s in wsaf_calls)
    wsaf_events = sum(s.info.get("events", 0) for s in wsaf_calls)
    engine_spans = [s for s in ingest if s.name == "instameasure.ingest" and s.info]
    engine_total = sum(s.info["packets"] for s in engine_spans)
    insertions = sum(s.info["insertions"] for s in engine_spans)
    shard_packets = np.sum(
        [s.info["shards"] for s in ingest if s.name == "sharded.split" and s.info],
        axis=0,
    )
    skew = (
        float(shard_packets.max() / shard_packets.mean()) if shard_packets.size else 0.0
    )
    parses = [s for s in ingest if s.name == "streaming.parse" and s.info]

    encode = [s for s in spans if s.name == "snapshot.encode"]
    saves = [s for s in spans if s.name == "checkpoint.save"]
    captures = [s for s in spans if s.name == "snapshot.capture"]
    loads = [
        s for s in spans if s.name in ("checkpoint.latest", "checkpoint.load")
    ]
    handlers = [s for s in spans if s.name in ("control.query", "control.stats")]
    estimate_ns: "dict[int, int]" = {}
    for s in spans:
        if s.name == "sharded.estimates":
            estimate_ns[s.parent] = estimate_ns.get(s.parent, 0) + s.duration
    lock_wait = [(h.duration - estimate_ns.get(h.id, 0)) / 1e6 for h in handlers]
    recoveries = max(1, sum(1 for s in spans if s.name == "checkpoint.restore"))
    checkpointing = total("snapshot.capture") + total("checkpoint.save")
    attributed = _union_overlap(ingest, windows)

    step, routed = total("driver.step"), total("sharded.ingest")
    engines = total("instameasure.ingest")
    processed = total("instameasure.process_trace")
    place = total("rcc.place_array", parent="instameasure.process_trace")
    parsed = total("streaming.parse")
    ms = 1e6
    return {
        "streaming.read_ns_per_pkt": (
            per_pkt(total("streaming.next") - parsed),
            "ns/pkt",
        ),
        "streaming.parse_ns_per_pkt": (per_pkt(parsed), "ns/pkt"),
        "streaming.flows_per_chunk": (
            float(np.mean([s.info["flows"] for s in parses])) if parses else 0.0,
            "count",
        ),
        "driver.self_ns_per_pkt": (per_pkt(step - routed), "ns/pkt"),
        "sharded.route_ns_per_pkt": (per_pkt(routed - engines), "ns/pkt"),
        "sharded.shard_skew": (skew, "ratio"),
        "instameasure.stream_ns_per_pkt": (per_pkt(engines - processed), "ns/pkt"),
        "instameasure.engine_ns_per_pkt": (
            per_pkt(processed - place - wsaf_ns),
            "ns/pkt",
        ),
        "rcc.place_ns_per_pkt": (per_pkt(place), "ns/pkt"),
        "instameasure.regulation_rate": (
            insertions / engine_total if engine_total else 0.0,
            "ratio",
        ),
        "wsaf.accumulate_ns_per_event": (
            wsaf_ns / wsaf_events if wsaf_events else 0.0,
            "ns/event",
        ),
        "wsaf.events": (wsaf_events / len(lifetimes), "count"),
        "wsaf.load_factor": (
            float(np.median([life["load_factor"] for life in lifetimes])),
            "ratio",
        ),
        "snapshot.capture_ms": (_pct([s.duration / ms for s in captures], 50), "ms"),
        "snapshot.encode_ms": (_pct([s.duration / ms for s in encode], 50), "ms"),
        "snapshot.bytes": (
            sum(s.info["bytes"] for s in encode) / len(saves) if saves else 0.0,
            "bytes",
        ),
        "checkpoint.save_ms_p50": (_pct([s.duration / ms for s in saves], 50), "ms"),
        "checkpoint.save_ms_p99": (_pct([s.duration / ms for s in saves], 99), "ms"),
        "checkpoint.load_ms": (
            sum(s.duration for s in loads) / ms / recoveries,
            "ms",
        ),
        "checkpoint.replayed_packets": (
            float(np.median([life["replayed"] for life in lifetimes])),
            "count",
        ),
        "control.handler_ms_p50": (_pct([h.duration / ms for h in handlers], 50), "ms"),
        "control.handler_ms_p99": (_pct([h.duration / ms for h in handlers], 99), "ms"),
        "control.lock_wait_ms_p50": (_pct(lock_wait, 50), "ms"),
        "control.lock_wait_ms_p99": (_pct(lock_wait, 99), "ms"),
        "daemon.busy_share": (step / wall if wall else 0.0, "ratio"),
        "daemon.checkpoint_share": (checkpointing / wall if wall else 0.0, "ratio"),
        "trace.unattributed_share": (1.0 - attributed / wall if wall else 0.0, "ratio"),
    }

"""The serve-path benchmark's workloads, their seeded inputs and the oracle.

Each workload fixes the traffic (one shape, its addresses anonymized by
the workload seed), the ``serve`` settings and how the load arrives.  The
program under test only ever sees the generated pcap-lite bytes -- as a
capture it tails or as a TCP record feed; the seed, the ground truth and
the reference estimates stay on the benchmark's side.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core import InstaMeasureConfig
from repro.pipeline import ShardedStreamingMeasurer
from repro.pipeline.source import Chunk
from repro.pipeline.streaming import trace_from_records
from repro.traffic import CaidaLikeConfig, build_caida_like_trace
from repro.traffic.packet import FlowTable, Trace
from repro.traffic.pcaplite import RECORD_DTYPE, PacketRecordWriter

#: ``serve``'s default chunk size -- the live path's unit of work.
CHUNK = 8192

#: ``serve``'s default L1 budget (``--l1-kb 8``).
L1_KB = 8

#: Generator seed of every workload's traffic shape (seed 1 draws the lab
#: trace of 625,711 packets).
SHAPE_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the ``serve`` settings it runs under.

    ``feed`` is ``"file"`` (closed loop: the whole stream is appended to a
    tailed capture at once) or ``"tcp"`` (open loop at ``rate`` packets/s).
    ``crash_chunk`` SIGKILLs the daemon once it has ingested that many
    chunks, then restarts it on the same checkpoint directory.

    The traffic's shape -- flow sizes, timing, packet sizes -- is the
    trace the generator draws at :data:`SHAPE_SEED`; the workload seed
    re-anonymizes its addresses and ports (see :func:`anonymize`).  So a
    seed moves every flow key, and with it hashing, L1 placement, shard
    routing and WSAF slots, but not the amount of work: drawn per seed,
    the lab trace's heavy tail alone spreads its size over 0.5-1.5M
    packets.
    """

    name: str
    why: str
    num_flows: int
    zipf_alpha: float
    max_flow_size: int
    shards: int = 1
    wsaf_bits: int = 16
    checkpoint_every: "int | None" = None
    crash_chunk: "int | None" = None
    feed: str = "file"
    rate: "float | None" = None

    def trace(self, seed: int) -> Trace:
        """The workload's traffic, anonymized with ``seed``."""
        shape = build_caida_like_trace(
            CaidaLikeConfig(
                num_flows=self.num_flows,
                duration=60.0,
                zipf_alpha=self.zipf_alpha,
                max_flow_size=self.max_flow_size,
                seed=SHAPE_SEED,
            )
        )
        return anonymize(shape, seed)

    def engine_config(self, engine: str = "auto") -> InstaMeasureConfig:
        """The engine ``serve`` builds from these settings."""
        return InstaMeasureConfig(
            l1_memory_bytes=L1_KB * 1024,
            wsaf_entries=1 << self.wsaf_bits,
            seed=0,
            wsaf_backend="flat",
            engine=engine,
        )

    def serve_args(self, source: str, checkpoint_dir: "str | None") -> "list[str]":
        """``instameasure serve`` arguments (``source`` is a path or tcp URL)."""
        args = [source, "--control-port", "0", "--chunk-size", str(CHUNK)]
        args += ["--shards", str(self.shards), "--l1-kb", str(L1_KB)]
        args += ["--wsaf-bits", str(self.wsaf_bits), "--load-policy", "none"]
        if self.feed == "file":
            args.append("--follow")
        if self.checkpoint_every is not None:
            args += ["--checkpoint-dir", checkpoint_dir]
            args += ["--checkpoint-every", str(self.checkpoint_every)]
        return args


WORKLOADS = {
    # The ROADMAP headline number: the lab capture at serve's defaults,
    # every chunk first-touch.  Source parsing and the regulator kernels do
    # nearly all the work; WSAF, state, checkpoint and control do almost
    # none.  Engine and source optimisations show here, and checkpoint or
    # control changes must not move it.
    "lab-replay": Workload(
        name="lab-replay",
        why="closed-loop replay of the lab capture at serve defaults; "
        "parsing and regulator kernels dominate",
        num_flows=30_000,
        zipf_alpha=1.8,
        max_flow_size=200_000,
    ),
    # Many short flows (~1.15 packets per flow per chunk), so inputs share
    # little work and per-flow caching or dedupe cannot help.  Routing,
    # per-shard snapshots, the codec, checkpoint writes and recovery all
    # run: a per-flow cache that speeds up lab-replay, or durable
    # checkpoints (CRC, fsync), show their cost here.
    "flow-churn": Workload(
        name="flow-churn",
        why="closed loop over ~300k short flows on 2 shards with 2^20 WSAF, "
        "checkpoints and a SIGKILL plus recovery mid-stream",
        num_flows=300_000,
        zipf_alpha=1.2,
        max_flow_size=30,
        shards=2,
        wsaf_bits=20,
        checkpoint_every=8,
        # Four chunks past the 13th checkpoint: recovery replays 4 chunks.
        crash_chunk=8 * 13 + 4,
    ),
    # The daemon is mostly idle: what matters is how long a chunk takes
    # to fill, the ingest lock control handlers wait on during
    # Pipeline.step, and socket parsing.  Any throughput change that
    # batches more (bigger chunks, coalescing) shows its staleness cost
    # here.
    "live-feed": Workload(
        name="live-feed",
        why="open loop: lab records over TCP at a fixed 150k pps; "
        "query latency and result staleness while ingesting",
        num_flows=30_000,
        zipf_alpha=1.8,
        max_flow_size=200_000,
        feed="tcp",
        rate=150_000.0,
    ),
}


@dataclass
class Inputs:
    """One workload's generated stream and what the benchmark knows of it."""

    total: int  # packets in the stream
    stream_path: str  # the whole stream as a pcap-lite file
    aligned: int  # packets in whole chunks: what end of stream waits for
    crash_at: "int | None"  # stream position of the SIGKILL
    keys: "list[int]"  # query keys: the heaviest true flows
    reference: "dict[int, tuple[float, float]]"


def anonymize(trace: Trace, seed: int) -> Trace:
    """``trace`` with every address and port XORed with a seeded mask.

    XOR with a fixed mask is a bijection per field, so distinct flows
    stay distinct and sizes and timing are untouched.
    """
    rng = np.random.default_rng(seed)
    flows = trace.flows
    masks = rng.integers(0, 1 << 32, size=2, dtype=np.uint32)
    ports = rng.integers(0, 1 << 16, size=2, dtype=np.uint16)
    anonymized = FlowTable(
        flows.src_ip ^ masks[0],
        flows.dst_ip ^ masks[1],
        flows.src_port ^ ports[0],
        flows.dst_port ^ ports[1],
        flows.protocol,
    )
    return Trace(
        timestamps=trace.timestamps,
        flow_ids=trace.flow_ids,
        sizes=trace.sizes,
        flows=anonymized,
    )


def trace_records(trace: Trace) -> np.ndarray:
    """A columnar trace as pcap-lite records (vectorized)."""
    flows, ids = trace.flows, trace.flow_ids
    records = np.zeros(trace.num_packets, dtype=RECORD_DTYPE)
    records["timestamp"] = trace.timestamps
    records["src_ip"] = flows.src_ip[ids]
    records["dst_ip"] = flows.dst_ip[ids]
    records["src_port"] = flows.src_port[ids]
    records["dst_port"] = flows.dst_port[ids]
    records["protocol"] = flows.protocol[ids]
    records["size"] = trace.sizes
    return records


def write_capture(path, records: "np.ndarray | None" = None) -> None:
    """A pcap-lite capture of ``records`` (just the header for ``None``)."""
    PacketRecordWriter(path).close()
    if records is not None:
        with open(path, "ab") as handle:
            handle.write(records.tobytes())


def stream_chunks(records: np.ndarray):
    """The chunk grid ``serve`` cuts: every ``CHUNK`` stream positions."""
    for index, begin in enumerate(range(0, len(records), CHUNK)):
        block = records[begin : begin + CHUNK]
        yield Chunk(
            trace=trace_from_records(block),
            index=index,
            begin=begin,
            end=begin + len(block),
        )


def reference_estimates(
    workload: Workload, records: np.ndarray
) -> "dict[int, tuple[float, float]]":
    """What the served table must hold after ``records``.

    Computed with ``engine="scalar"`` -- the fidelity anchor -- on the
    same records, chunk grid and shard count.  The shard count must match:
    on an unbounded stream a 2-shard daemon does not reproduce 1-shard
    estimates.  No crash happens here, so on flow-churn the recovered
    daemon must equal an uninterrupted run.
    """
    measurer = ShardedStreamingMeasurer(
        workload.engine_config("scalar"), num_shards=workload.shards
    )
    for chunk in stream_chunks(records):
        measurer.ingest(chunk)
    return measurer.estimates()


def build_inputs(workload: Workload, seed: int, directory: str) -> Inputs:
    """Generate the workload's stream from ``seed`` into ``directory``."""
    trace = workload.trace(seed)
    records = trace_records(trace)
    stream_path = os.path.join(directory, "stream.impl")
    write_capture(stream_path, records)
    aligned = len(records) // CHUNK * CHUNK
    crash_at = None
    if workload.crash_chunk is not None:
        crash_at = workload.crash_chunk * CHUNK
        if crash_at >= aligned:
            raise ValueError(f"crash position {crash_at} is past the stream end")
    heaviest = np.argsort(-trace.ground_truth_packets(), kind="stable")[:32]
    keys = [int(key) for key in trace.flows.key64[heaviest]]
    return Inputs(
        total=len(records),
        stream_path=stream_path,
        aligned=aligned,
        crash_at=crash_at,
        keys=keys,
        reference=reference_estimates(workload, records[:aligned]),
    )

"""Unbounded chunk sources: pcap-lite tailing and socket feeds.

The contract under test: a streaming source cutting chunks out of a
byte stream must reproduce *exactly* the chunks a batch
:class:`TraceChunkSource` would cut from the equivalent loaded trace —
same packet order, same epoch indices, same per-packet flow keys — no
matter how the bytes dribble in, and an engine fed from one must land
on the same estimates regardless of chunk geometry (the unknown-length
block-draw guarantee).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import InstaMeasure, InstaMeasureConfig
from repro.errors import ConfigurationError, TraceFormatError
from repro.pipeline import (
    PacketRecordChunkSource,
    Pipeline,
    SocketChunkSource,
    TraceChunkSource,
    trace_from_records,
)
from repro.pipeline import streaming
from repro.traffic import (
    CaidaLikeConfig,
    FlowTable,
    Trace,
    build_caida_like_trace,
)
from repro.traffic.pcaplite import (
    HEADER_BYTES,
    RECORD_BYTES,
    RECORD_DTYPE,
    PacketRecordReader,
    PacketRecordWriter,
    write_pcaplite,
)


@pytest.fixture(scope="module")
def trace():
    return build_caida_like_trace(
        CaidaLikeConfig(num_flows=600, duration=5.0, seed=23)
    )


@pytest.fixture(scope="module")
def capture(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("capture") / "trace.impl"
    write_pcaplite(trace, path)
    return str(path)


def _config() -> InstaMeasureConfig:
    return InstaMeasureConfig(
        l1_memory_bytes=2_048, wsaf_entries=1 << 11, seed=9
    )


def _chunk_signature(chunk):
    trace = chunk.trace
    keys = trace.flows.key64[trace.flow_ids]
    return (
        chunk.index,
        chunk.begin,
        chunk.end,
        chunk.epoch,
        trace.timestamps.tolist(),
        trace.sizes.tolist(),
        keys.tolist(),
    )


_U32 = st.integers(0, (1 << 32) - 1)
_PORT = st.integers(0, (1 << 16) - 1)
_TUPLE = st.tuples(_U32, _U32, _PORT, _PORT, st.integers(0, 255))


def _records(tuples) -> np.ndarray:
    """pcap-lite records for ``(src, dst, sport, dport, proto)`` tuples."""
    records = np.zeros(len(tuples), dtype=RECORD_DTYPE)
    for index, column in enumerate(
        ("src_ip", "dst_ip", "src_port", "dst_port", "protocol")
    ):
        records[column] = [t[index] for t in tuples]
    records["timestamp"] = np.arange(len(tuples)) * 1e-3
    records["size"] = 64 + np.arange(len(tuples)) % 1400
    return records


@st.composite
def _record_blocks(draw) -> np.ndarray:
    """Record blocks whose flows collide on one packed half.

    The dedupe packs each 5-tuple into a (hi, lo) u64 pair: hi holds the
    source address and the destination's top byte, lo the rest.  Every
    drawn base flow gets siblings sharing its hi but not its lo, and
    sharing its lo but not its hi, so ordering on both columns matters.
    """
    base = draw(st.lists(_TUPLE, min_size=1, max_size=5))
    pool = list(base)
    for src, dst, sport, dport, proto in base:
        same_hi_dst = (dst & 0xFF000000) | draw(st.integers(0, 0xFFFFFF))
        pool.append((src, same_hi_dst, draw(_PORT), dport, proto))
        same_lo_dst = (draw(st.integers(0, 0xFF)) << 24) | (dst & 0xFFFFFF)
        pool.append((draw(_U32), same_lo_dst, sport, dport, proto))
    picks = draw(st.lists(st.sampled_from(pool), max_size=80))
    return _records(picks)


def _reference_trace(records: np.ndarray, hash_seed: int) -> Trace:
    """The structured-dtype ``np.unique`` dedupe, kept as the oracle."""
    src = records["src_ip"].astype(np.uint64)
    dst = records["dst_ip"].astype(np.uint64)
    pairs = np.empty(len(records), dtype=[("hi", "<u8"), ("lo", "<u8")])
    pairs["hi"] = (src << np.uint64(8)) | (dst >> np.uint64(24))
    pairs["lo"] = (
        ((dst & np.uint64(0xFFFFFF)) << np.uint64(40))
        | (records["src_port"].astype(np.uint64) << np.uint64(24))
        | (records["dst_port"].astype(np.uint64) << np.uint64(8))
        | records["protocol"].astype(np.uint64)
    )
    unique, inverse = np.unique(pairs, return_inverse=True)
    uhi, ulo = unique["hi"], unique["lo"]
    flows = FlowTable(
        src_ip=(uhi >> np.uint64(8)).astype(np.uint32),
        dst_ip=(
            ((uhi & np.uint64(0xFF)) << np.uint64(24)) | (ulo >> np.uint64(40))
        ).astype(np.uint32),
        src_port=((ulo >> np.uint64(24)) & np.uint64(0xFFFF)).astype(np.uint16),
        dst_port=((ulo >> np.uint64(8)) & np.uint64(0xFFFF)).astype(np.uint16),
        protocol=(ulo & np.uint64(0xFF)).astype(np.uint8),
        hash_seed=hash_seed,
    )
    return Trace(
        timestamps=records["timestamp"].astype(np.float64),
        flow_ids=inverse.reshape(-1).astype(np.int64),
        sizes=records["size"].astype(np.int64),
        flows=flows,
    )


def _assert_matches_reference(records: np.ndarray) -> None:
    rebuilt = trace_from_records(records, hash_seed=7)
    want = _reference_trace(records, hash_seed=7)
    assert rebuilt.flow_ids.dtype == np.int64
    np.testing.assert_array_equal(rebuilt.flow_ids, want.flow_ids)
    for column in (
        "src_ip",
        "dst_ip",
        "src_port",
        "dst_port",
        "protocol",
        "key64",
    ):
        got = getattr(rebuilt.flows, column)
        expected = getattr(want.flows, column)
        assert got.dtype == expected.dtype, column
        np.testing.assert_array_equal(got, expected, err_msg=column)
    np.testing.assert_array_equal(rebuilt.timestamps, want.timestamps)
    np.testing.assert_array_equal(rebuilt.sizes, want.sizes)


class TestTraceFromRecords:
    def test_round_trips_packets_and_flows(self, trace, capture):
        with PacketRecordReader(capture) as reader:
            records = reader.read_block(trace.num_packets)
        rebuilt = trace_from_records(np.array(records))
        assert rebuilt.num_packets == trace.num_packets
        np.testing.assert_allclose(rebuilt.timestamps, trace.timestamps)
        np.testing.assert_array_equal(rebuilt.sizes, trace.sizes)
        # Flow indices may be renumbered but the per-packet key stream
        # (what the engine hashes) must be identical.
        np.testing.assert_array_equal(
            rebuilt.flows.key64[rebuilt.flow_ids],
            trace.flows.key64[trace.flow_ids],
        )

    def test_empty_block(self):
        rebuilt = trace_from_records(np.empty(0, dtype=RECORD_DTYPE))
        assert rebuilt.num_packets == 0

    @given(records=_record_blocks())
    @example(records=np.empty(0, dtype=RECORD_DTYPE))
    @example(records=_records([(1, 2, 3, 4, 6)]))
    @example(records=_records([(0xC0A80001, 0x0A000001, 443, 51000, 6)] * 9))
    @settings(max_examples=150, deadline=None)
    def test_matches_structured_unique_reference(self, records):
        _assert_matches_reference(records)

    @given(records=_record_blocks())
    @example(records=np.empty(0, dtype=RECORD_DTYPE))
    @example(records=_records([(1, 2, 3, 4, 6)]))
    @settings(max_examples=100, deadline=None)
    def test_wide_block_key_matches_reference(self, records):
        """Blocks past 2^24 records key on both halves' ranks; lowering
        the limit runs that branch on small blocks."""
        with mock.patch.object(streaming, "_NARROW_KEY_RECORDS", 0):
            _assert_matches_reference(records)

    @pytest.mark.parametrize("narrow_limit", [1 << 24, 0], ids=["narrow", "wide"])
    def test_large_block_matches_reference(self, narrow_limit):
        rng = np.random.default_rng(3)
        base = rng.integers(0, 1 << 32, size=(3_000, 2), dtype=np.uint64)
        # Siblings sharing the hi half (source + destination top byte)
        # and siblings sharing the lo half, interleaved at random.
        src = np.concatenate([base[:, 0], base[:, 0], base[::-1, 0]])
        dst = np.concatenate(
            [base[:, 1], base[:, 1] ^ 0x00ABCDEF, base[:, 1] ^ 0x5A000000]
        )
        picks = rng.integers(0, len(src), size=40_000)
        tuples = [
            (int(src[i]), int(dst[i]), 80, 443, 6) for i in picks.tolist()
        ]
        with mock.patch.object(streaming, "_NARROW_KEY_RECORDS", narrow_limit):
            _assert_matches_reference(_records(tuples))


class TestPacketRecordChunkSource:
    def test_matches_batch_source_exactly(self, trace, capture):
        batch = TraceChunkSource(trace, chunk_size=700, epoch_seconds=1.0)
        stream = PacketRecordChunkSource(
            capture, chunk_size=700, epoch_seconds=1.0
        )
        batch_chunks = [_chunk_signature(c) for c in batch]
        stream_chunks = [_chunk_signature(c) for c in stream]
        assert stream_chunks == batch_chunks

    def test_unbounded_metadata(self, capture):
        source = PacketRecordChunkSource(capture, chunk_size=512)
        assert source.total_packets is None
        assert source.start_time is None
        chunks = list(source)
        assert source.start_time is not None
        assert chunks[0].total_packets is None

    def test_engine_chunk_geometry_invariant(self, trace, capture):
        estimates = []
        for chunk_size in (311, 4_096):
            engine = InstaMeasure(_config())
            Pipeline(engine).run(
                PacketRecordChunkSource(capture, chunk_size=chunk_size)
            )
            estimates.append(engine.estimates())
        assert estimates[0] == estimates[1]

    def test_start_record_resumes_numbering(self, trace, capture):
        whole = list(PacketRecordChunkSource(capture, chunk_size=900))
        source = PacketRecordChunkSource(
            capture, chunk_size=900, start_record=1_800
        )
        tail = list(source)
        assert tail[0].begin == 1_800
        assert sum(c.num_packets for c in tail) == trace.num_packets - 1_800
        np.testing.assert_allclose(
            tail[0].trace.timestamps, whole[2].trace.timestamps
        )

    def test_seek_packets_equivalent_to_start_record(self, capture):
        source = PacketRecordChunkSource(capture, chunk_size=900)
        source.seek_packets(1_800)
        assert next(iter(source)).begin == 1_800

    def test_follow_mode_tails_a_growing_file(self, trace, tmp_path):
        path = tmp_path / "grow.impl"
        full = trace
        cut = full.num_packets // 2
        writer = PacketRecordWriter(path)
        tuples = [full.flows.five_tuple(i) for i in range(full.num_flows)]
        for p in range(cut):
            writer.write(
                full.timestamps[p], tuples[full.flow_ids[p]], int(full.sizes[p])
            )
        writer.flush()

        source = PacketRecordChunkSource(
            path, chunk_size=1_000, follow=True, poll_interval=0.01
        )
        seen = []
        done = threading.Event()

        def consume():
            for chunk in source:
                seen.append(chunk.num_packets)
            done.set()

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        # A follow-mode source holds back a partial chunk (more data may
        # come), so it can only have emitted down to the last full budget.
        visible = cut - (cut % 1_000)
        deadline = time.monotonic() + 10.0
        while sum(seen) < visible and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sum(seen) == visible
        for p in range(cut, full.num_packets):
            writer.write(
                full.timestamps[p], tuples[full.flow_ids[p]], int(full.sizes[p])
            )
        writer.flush()
        writer.close()
        visible = full.num_packets - (full.num_packets % 1_000)
        deadline = time.monotonic() + 10.0
        while sum(seen) < visible and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sum(seen) == visible
        # stop() flushes the buffered partial tail as final chunks.
        source.stop()
        assert done.wait(10.0)
        thread.join(timeout=10.0)
        assert sum(seen) == full.num_packets

    def test_non_follow_stops_at_eof(self, trace, capture):
        chunks = list(PacketRecordChunkSource(capture, chunk_size=10_000))
        assert sum(c.num_packets for c in chunks) == trace.num_packets

    def test_rejects_bad_parameters(self, capture):
        with pytest.raises(ConfigurationError):
            PacketRecordChunkSource(capture, chunk_size=0)
        with pytest.raises(ConfigurationError):
            PacketRecordChunkSource(capture, epoch_seconds=0.0)
        with pytest.raises(ConfigurationError):
            PacketRecordChunkSource(capture, start_record=-1)


class _ScriptedSource(streaming.StreamingChunkSource):
    """Serves a fixed list of reads (``None`` ends the stream)."""

    def __init__(self, reads, **kwargs) -> None:
        super().__init__(chunk_size=4, **kwargs)
        self._reads = list(reads)

    def _open(self) -> None:
        pass

    def _close(self) -> None:
        pass

    def _read_more(self):
        return self._reads.pop(0)


class _RecordingStop:
    """A stop event that never fires and records every wait timeout."""

    def __init__(self) -> None:
        self.waits: "list[float]" = []

    def is_set(self) -> bool:
        return False

    def wait(self, timeout: float) -> bool:
        self.waits.append(timeout)
        return False


class TestPollBackoff:
    def test_waits_double_up_to_poll_interval_and_reset_on_data(self):
        empty = np.empty(0, dtype=RECORD_DTYPE)
        records = _records([(1, 2, 3, 4, 6)] * 3)
        source = _ScriptedSource(
            [empty] * 6 + [records] + [empty] * 2 + [None], poll_interval=0.005
        )
        source._stop = _RecordingStop()
        chunks = list(source)
        assert sum(chunk.num_packets for chunk in chunks) == 3
        assert source._stop.waits == pytest.approx(
            [0.001, 0.002, 0.004, 0.005, 0.005, 0.005, 0.001, 0.002]
        )

    def test_poll_interval_below_first_wait_caps_every_wait(self):
        empty = np.empty(0, dtype=RECORD_DTYPE)
        source = _ScriptedSource([empty] * 3 + [None], poll_interval=0.0004)
        source._stop = _RecordingStop()
        assert list(source) == []
        assert source._stop.waits == pytest.approx([0.0004] * 3)


class TestSocketChunkSource:
    def _serve_bytes(self, payload: bytes, dribble: int):
        """Serve ``payload`` over a one-shot TCP socket in ragged pieces."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def run():
            conn, _ = listener.accept()
            with conn:
                for at in range(0, len(payload), dribble):
                    conn.sendall(payload[at : at + dribble])
            listener.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return listener.getsockname()[1], thread

    def test_matches_file_source(self, trace, capture):
        payload = open(capture, "rb").read()
        port, thread = self._serve_bytes(payload, dribble=1_009)
        stream = SocketChunkSource(
            "127.0.0.1", port, chunk_size=700, epoch_seconds=1.0,
            poll_interval=0.01,
        )
        got = [_chunk_signature(c) for c in stream]
        thread.join(timeout=10.0)
        want = [
            _chunk_signature(c)
            for c in PacketRecordChunkSource(
                capture, chunk_size=700, epoch_seconds=1.0
            )
        ]
        assert got == want

    def test_rejects_bad_header(self):
        port, thread = self._serve_bytes(b"NOPE" + b"\x00" * 12, dribble=16)
        stream = SocketChunkSource("127.0.0.1", port, poll_interval=0.01)
        with pytest.raises(TraceFormatError):
            list(stream)
        thread.join(timeout=10.0)

    def test_rejects_mid_record_eof(self, capture):
        payload = open(capture, "rb").read()
        torn = payload[: HEADER_BYTES + RECORD_BYTES * 3 + 7]
        port, thread = self._serve_bytes(torn, dribble=4_096)
        stream = SocketChunkSource("127.0.0.1", port, poll_interval=0.01)
        with pytest.raises(TraceFormatError):
            list(stream)
        thread.join(timeout=10.0)

    def test_cannot_seek(self):
        source = SocketChunkSource("127.0.0.1", 1)
        with pytest.raises(ConfigurationError):
            source.seek_packets(10)

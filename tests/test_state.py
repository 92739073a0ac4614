"""The serializable measurement-state layer: capture, codec, merge.

The contracts under test are the state layer's tentpole guarantees:

* ``capture_engine`` → ``to_bytes``/``save`` → ``from_bytes``/``load`` →
  ``restore_engine`` is an exact round trip for both WSAF backing stores,
  including a mid-stream RNG cursor (save → load → resume-ingest is
  bit-identical to an uninterrupted run).
* The wire format is versioned and self-describing: wrong magic, wrong
  version, truncation, and trailing garbage are all rejected loudly.
* ``merge`` has well-defined semantics: disjoint key ranges concatenate
  (and ``mode="disjoint"`` refuses overlapping inputs), overlapping
  ranges counter-sum per key with insertion/update reconciliation.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import InstaMeasure, InstaMeasureConfig
from repro.errors import SnapshotError
from repro.kernels.wsaf_batched import BatchedWSAFTable
from repro.pipeline import TraceChunkSource, run_pipeline
from repro.state import (
    MeasurementSnapshot,
    SNAPSHOT_VERSION,
    capture_engine,
    capture_regulator,
    from_bytes,
    load,
    merge,
    regulator_sketches,
    restore_engine,
    restore_regulator,
    save,
    to_bytes,
)
from repro.state.codec import MAGIC
from repro.traffic import CaidaLikeConfig, build_caida_like_trace


@pytest.fixture(scope="module")
def trace():
    return build_caida_like_trace(
        CaidaLikeConfig(num_flows=900, duration=6.0, seed=13)
    )


#: Both engines, with test ids naming the trace path each one runs:
#: ``engine="auto"`` resolves to the batched kernel (and, for the flat
#: backend, the batch-probed table).
ENGINES = pytest.mark.parametrize(
    "engine_kind", ["scalar", "auto"], ids=["scalar", "batched"]
)


def _config(engine: str, **overrides) -> InstaMeasureConfig:
    base = dict(
        l1_memory_bytes=2 * 1024,
        wsaf_entries=1 << 11,
        seed=3,
        engine=engine,
    )
    base.update(overrides)
    return InstaMeasureConfig(**base)


def _measured(trace, engine_kind: str, **overrides) -> InstaMeasure:
    engine = InstaMeasure(_config(engine_kind, **overrides))
    engine.process_trace(trace)
    return engine


def _tamper_header(payload: bytes, **fields) -> bytes:
    """Re-encode ``payload`` with header fields overwritten."""
    header_len = int.from_bytes(payload[len(MAGIC) : len(MAGIC) + 8], "little")
    body_start = len(MAGIC) + 8 + header_len
    header = json.loads(payload[len(MAGIC) + 8 : body_start].decode())
    header.update(fields)
    encoded = json.dumps(header, separators=(",", ":")).encode()
    return (
        MAGIC
        + len(encoded).to_bytes(8, "little")
        + encoded
        + payload[body_start:]
    )


class TestRoundTrip:
    @ENGINES
    def test_bytes_round_trip_is_exact(self, trace, engine_kind):
        engine = _measured(trace, engine_kind)
        snapshot = capture_engine(engine)
        recovered = from_bytes(to_bytes(snapshot))

        assert to_bytes(recovered) == to_bytes(snapshot)
        assert recovered.estimates() == engine.estimates()
        restored = restore_engine(recovered)
        assert restored.estimates() == engine.estimates()
        assert len(restored.wsaf) == len(engine.wsaf)
        assert restored.wsaf.insertions == engine.wsaf.insertions
        assert restored.regulator.stats.packets == engine.regulator.stats.packets
        for live, back in zip(
            regulator_sketches(engine.regulator),
            regulator_sketches(restored.regulator),
        ):
            assert np.array_equal(live.words_array(), back.words_array())

    @ENGINES
    def test_file_round_trip(self, trace, engine_kind, tmp_path):
        engine = _measured(trace, engine_kind)
        snapshot = capture_engine(engine)
        path = tmp_path / "state.snap"
        save(snapshot, path)
        assert load(path).estimates() == snapshot.estimates()

    def test_restored_engine_keeps_measuring_identically(self, trace):
        """A restored engine is a drop-in: same future behavior."""
        first = trace.time_slice(0.0, 3.0)
        second = trace.time_slice(3.0, trace.duration + 1.0)
        straight = InstaMeasure(_config("scalar"))
        straight.process_trace(first)
        straight.process_trace(second)

        engine = InstaMeasure(_config("scalar"))
        engine.process_trace(first)
        resumed = restore_engine(from_bytes(to_bytes(capture_engine(engine))))
        resumed.process_trace(second)
        assert resumed.estimates() == straight.estimates()

    def test_cross_store_restore(self, trace):
        """Scalar capture restores into the batched store exactly."""
        snapshot = capture_engine(_measured(trace, "scalar"))
        snapshot.config["engine"] = "auto"
        restored = restore_engine(snapshot)
        assert isinstance(restored.wsaf, BatchedWSAFTable)
        assert restored.estimates() == _measured(trace, "scalar").estimates()

    def test_multilayer_regulator_round_trip(self, trace):
        engine = _measured(trace, "scalar", num_layers=3)
        snapshot = from_bytes(to_bytes(capture_engine(engine)))
        restored = restore_engine(snapshot)
        for live, back in zip(
            regulator_sketches(engine.regulator),
            regulator_sketches(restored.regulator),
        ):
            assert np.array_equal(live.words_array(), back.words_array())
        assert restored.estimates() == engine.estimates()

    def test_probe_placement_restore(self, trace):
        """Records whose slot is unknown re-probe to the same estimates."""
        snapshot = capture_engine(_measured(trace, "scalar"))
        snapshot.wsaf.slots = np.full(
            snapshot.wsaf.num_records, -1, dtype=np.int64
        )
        restored = restore_engine(snapshot)
        assert restored.estimates() == snapshot.estimates()

    def test_regulator_capture_restore_standalone(self, trace):
        engine = _measured(trace, "scalar")
        fresh = InstaMeasure(_config("scalar"))
        restore_regulator(fresh.regulator, capture_regulator(engine.regulator))
        for live, back in zip(
            regulator_sketches(engine.regulator),
            regulator_sketches(fresh.regulator),
        ):
            assert np.array_equal(live.words_array(), back.words_array())
        assert fresh.regulator.stats.insertions == engine.regulator.stats.insertions


class TestMidStreamResume:
    @ENGINES
    def test_save_load_resume_bit_identical(self, trace, engine_kind, tmp_path):
        chunks = list(TraceChunkSource(trace, chunk_size=1_500))
        assert len(chunks) >= 4

        reference = InstaMeasure(_config(engine_kind))
        for chunk in chunks:
            reference.ingest(chunk)
        reference.finalize()

        engine = InstaMeasure(_config(engine_kind))
        for chunk in chunks[:2]:
            engine.ingest(chunk)
        path = tmp_path / "midstream.snap"
        save(engine.snapshot(), path)

        resumed = InstaMeasure.from_snapshot(load(path))
        for chunk in chunks[2:]:
            resumed.ingest(chunk)
        result = resumed.finalize()

        assert result.packets == trace.num_packets
        assert resumed.estimates() == reference.estimates()
        assert to_bytes(capture_engine(resumed)) == to_bytes(
            capture_engine(reference)
        )

    @ENGINES
    def test_unknown_length_save_load_resume_bit_identical(
        self, trace, engine_kind, tmp_path
    ):
        """Unbounded streams checkpoint mid-flight via the block cursor."""
        chunks = list(TraceChunkSource(trace, chunk_size=1_500))
        assert len(chunks) >= 4

        reference = InstaMeasure(_config(engine_kind))
        reference.begin_stream()
        for chunk in chunks:
            reference.ingest(chunk)
        reference.finalize()

        engine = InstaMeasure(_config(engine_kind))
        engine.begin_stream()
        for chunk in chunks[:2]:
            engine.ingest(chunk)
        path = tmp_path / "midstream-unknown.snap"
        save(engine.snapshot(), path)

        resumed = InstaMeasure.from_snapshot(load(path))
        for chunk in chunks[2:]:
            resumed.ingest(chunk)
        result = resumed.finalize()

        assert result.packets == trace.num_packets
        assert resumed.estimates() == reference.estimates()
        assert to_bytes(capture_engine(resumed)) == to_bytes(
            capture_engine(reference)
        )

    def test_unknown_length_chunking_invariant(self, trace):
        """Block draws make unbounded streams independent of chunking."""

        def run(chunk_size):
            engine = InstaMeasure(_config("scalar"))
            engine.begin_stream()
            for chunk in TraceChunkSource(trace, chunk_size=chunk_size):
                engine.ingest(chunk)
            engine.finalize()
            return engine

        small, large = run(700), run(2_900)
        assert small.estimates() == large.estimates()
        assert to_bytes(capture_engine(small)) == to_bytes(
            capture_engine(large)
        )


class TestCodecRejection:
    @pytest.fixture(scope="class")
    def payload(self, trace):
        return to_bytes(capture_engine(_measured(trace, "scalar")))

    def test_version_mismatch_rejected(self, payload):
        tampered = _tamper_header(payload, version=SNAPSHOT_VERSION + 1)
        with pytest.raises(SnapshotError, match="version"):
            from_bytes(tampered)

    def test_bad_magic_rejected(self, payload):
        with pytest.raises(SnapshotError):
            from_bytes(b"NOTSNAP\x00" + payload[len(MAGIC) :])

    def test_truncated_payload_rejected(self, payload):
        with pytest.raises(SnapshotError):
            from_bytes(payload[: len(payload) - 16])

    def test_trailing_garbage_rejected(self, payload):
        with pytest.raises(SnapshotError):
            from_bytes(payload + b"\x00" * 8)

    def test_empty_input_rejected(self):
        with pytest.raises(SnapshotError):
            from_bytes(b"")


class TestMerge:
    def test_overlap_merge_counter_sums(self, trace):
        """Two full-trace runs merge to per-key doubled estimates."""
        a = capture_engine(_measured(trace, "scalar"))
        b = capture_engine(_measured(trace, "auto"))
        merged = merge([a, b], mode="overlap")

        base = a.estimates()
        assert b.estimates() == base  # the stores are state-identical
        got = merged.estimates()
        assert set(got) == set(base)
        for key, (packets, bytes_) in base.items():
            assert got[key] == (2 * packets, 2 * bytes_)

        duplicates = (
            a.wsaf.num_records + b.wsaf.num_records - merged.wsaf.num_records
        )
        assert merged.wsaf.num_records == len(set(base))
        assert merged.wsaf.insertions == (
            a.wsaf.insertions + b.wsaf.insertions - duplicates
        )
        assert merged.wsaf.updates == (
            a.wsaf.updates + b.wsaf.updates + duplicates
        )
        assert merged.regulator.packets == (
            a.regulator.packets + b.regulator.packets
        )
        assert merged.shards_merged == 2
        # The merged state is restorable: all slots re-probe.
        assert restore_engine(merged).estimates() == got

    def test_disjoint_mode_rejects_overlap(self, trace):
        a = capture_engine(_measured(trace, "scalar"))
        b = capture_engine(_measured(trace, "scalar"))
        with pytest.raises(SnapshotError, match="share flow keys"):
            merge([a, b], mode="disjoint")

    def test_auto_mode_picks_overlap(self, trace):
        a = capture_engine(_measured(trace, "scalar"))
        b = capture_engine(_measured(trace, "scalar"))
        merged = merge([a, b])
        base = a.estimates()
        assert merged.estimates() == {
            key: (2 * p, 2 * b_) for key, (p, b_) in base.items()
        }

    def test_geometry_mismatch_rejected(self, trace):
        a = capture_engine(_measured(trace, "scalar"))
        b = capture_engine(_measured(trace, "scalar", wsaf_entries=1 << 12))
        with pytest.raises(SnapshotError, match="wsaf_entries"):
            merge([a, b])

    def test_seed_mismatch_rejected_for_disjoint(self, trace):
        a = capture_engine(_measured(trace, "scalar"))
        b = capture_engine(_measured(trace, "scalar", seed=99))
        with pytest.raises(SnapshotError, match="seed"):
            merge([a, b], mode="disjoint")
        # Overlap mode tolerates differing seeds (counters still sum).
        merged = merge([a, b], mode="overlap")
        assert merged.wsaf.num_records >= a.wsaf.num_records

    def test_in_progress_stream_rejected(self, trace):
        engine = InstaMeasure(_config("scalar"))
        chunks = list(TraceChunkSource(trace, chunk_size=2_000))
        engine.ingest(chunks[0])
        mid = capture_engine(engine)
        with pytest.raises(SnapshotError, match="in-progress"):
            merge([mid, mid])

    def test_merge_nothing_rejected(self):
        with pytest.raises(SnapshotError, match="zero"):
            merge([])

    def test_single_snapshot_merge_is_identity_on_estimates(self, trace):
        a = capture_engine(_measured(trace, "scalar"))
        merged = merge([a])
        assert merged.estimates() == a.estimates()
        assert merged.wsaf.insertions == a.wsaf.insertions


class TestSnapshotEstimates:
    def test_estimates_match_live_table(self, trace):
        engine = _measured(trace, "scalar")
        snapshot = capture_engine(engine)
        assert snapshot.estimates() == engine.estimates()
        keys = trace.flows.key64[:50]
        assert snapshot.estimates(flow_keys=keys) == engine.estimates(
            flow_keys=keys
        )

    def test_pipeline_snapshot_path(self, trace):
        """``engine.snapshot()`` after a pipeline run captures everything."""
        engine = InstaMeasure(_config("auto"))
        run_pipeline(engine, trace, chunk_size=2_500)
        snapshot = engine.snapshot()
        assert isinstance(snapshot, MeasurementSnapshot)
        assert snapshot.stream is None  # finalize closed the stream
        assert snapshot.estimates() == engine.estimates()

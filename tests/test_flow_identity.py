"""Flow identity on the batched path: per-event 5-tuples, one placement.

Two contracts keep per-chunk identity work proportional to what the
chunk actually needs:

* The batched kernel packs 5-tuples only for its WSAF insertion events
  (``packed_tuples_at``), never the whole table (``packed_tuples``), and
  the per-event packer agrees with the whole-table list element for
  element — on a :class:`FlowTable` and on a forked worker's
  :class:`_ShardFlowDirectory` alike.
* A chunk's flow table is placed in L1 once, whatever the shard count:
  the router and every shard engine read the placement cached on the
  table (:meth:`RCCSketch.place_flows`), and a one-shard router hands the
  chunk through untouched.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import InstaMeasure, InstaMeasureConfig
from repro.core.rcc import RCCSketch
from repro.pipeline.sharded import (
    ShardedStreamingMeasurer,
    _fresh_flow_columns,
    _ShardFlowDirectory,
)
from repro.pipeline.source import Chunk
from repro.pipeline.streaming import trace_from_records
from repro.state import ShardRouter
from repro.traffic import CaidaLikeConfig, build_caida_like_trace
from repro.traffic.packet import FiveTuple, FlowTable
from repro.traffic.pcaplite import RECORD_DTYPE

_TUPLE = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**16 - 1),
    st.integers(0, 2**16 - 1),
    st.integers(0, 2**8 - 1),
)

_EDGE_TABLE = [
    (0, 0, 0, 0, 0),
    (2**32 - 1, 2**32 - 1, 2**16 - 1, 2**16 - 1, 2**8 - 1),
    (0xC0A80001, 0x0A000001, 443, 51000, 6),
]


@st.composite
def _tables_and_ids(draw):
    """A flow table plus flow ids into it (repeats and empty included)."""
    tuples = draw(st.lists(_TUPLE, min_size=1, max_size=30))
    ids = draw(st.lists(st.integers(0, len(tuples) - 1), max_size=60))
    return tuples, ids


def _table(tuples) -> FlowTable:
    return FlowTable.from_five_tuples([FiveTuple(*t) for t in tuples], hash_seed=5)


def _directory(flows: FlowTable) -> _ShardFlowDirectory:
    """A worker directory fed in two frames, the way the parent ships it."""
    directory = _ShardFlowDirectory()
    cut = len(flows) // 2
    for index in (np.arange(cut), np.arange(cut, len(flows))):
        directory.extend(*_fresh_flow_columns(flows, index))
    return directory


class TestPerEventPacking:
    @given(case=_tables_and_ids())
    @example(case=(_EDGE_TABLE, []))
    @example(case=(_EDGE_TABLE, [1, 1, 0, 1, 2, 2]))
    @settings(max_examples=150, deadline=None)
    def test_flow_table_packer_matches_whole_table(self, case):
        tuples, ids = case
        flows = _table(tuples)
        flow_ids = np.asarray(ids, dtype=np.int64)
        whole = flows.packed_tuples()
        assert whole == [FiveTuple(*t).packed() for t in tuples]
        assert flows.packed_tuples_at(flow_ids) == [whole[i] for i in ids]

    @given(case=_tables_and_ids())
    @example(case=(_EDGE_TABLE, []))
    @example(case=(_EDGE_TABLE, [2, 0, 2, 2]))
    @settings(max_examples=150, deadline=None)
    def test_directory_packer_matches_whole_table(self, case):
        tuples, ids = case
        flows = _table(tuples)
        directory = _directory(flows)
        flow_ids = np.asarray(ids, dtype=np.int64)
        whole = directory.packed_tuples()
        assert whole == flows.packed_tuples()
        assert directory.packed_tuples_at(flow_ids) == [whole[i] for i in ids]

    @given(tuples=st.lists(_TUPLE, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_table_from_packed_halves_matches_columns(self, tuples):
        flows = _table(tuples)
        rebuilt = FlowTable.from_packed_halves(*flows._halves(), hash_seed=5)
        for column in ("src_ip", "dst_ip", "src_port", "dst_port", "protocol", "key64"):
            got, want = getattr(rebuilt, column), getattr(flows, column)
            assert got.dtype == want.dtype, column
            np.testing.assert_array_equal(got, want, err_msg=column)


# -- placement -----------------------------------------------------------------


@pytest.fixture(scope="module")
def trace():
    return build_caida_like_trace(
        CaidaLikeConfig(num_flows=2_000, duration=4.0, seed=21)
    )


def _config(engine: str = "auto") -> InstaMeasureConfig:
    return InstaMeasureConfig(
        l1_memory_bytes=4 * 1024, wsaf_entries=1 << 12, seed=3, engine=engine
    )


def _parsed_chunks(trace, chunk_size: int) -> "list[Chunk]":
    """Chunks that each carry their own flow table, as the serve path's
    record parser builds them."""
    records = np.zeros(trace.num_packets, dtype=RECORD_DTYPE)
    for column in ("src_ip", "dst_ip", "src_port", "dst_port", "protocol"):
        records[column] = getattr(trace.flows, column)[trace.flow_ids]
    records["timestamp"] = trace.timestamps
    records["size"] = trace.sizes
    return [
        Chunk(
            trace=trace_from_records(records[begin : begin + chunk_size]),
            index=index,
            begin=begin,
            end=min(begin + chunk_size, trace.num_packets),
        )
        for index, begin in enumerate(range(0, trace.num_packets, chunk_size))
    ]


def _forbid_whole_table_packing(monkeypatch) -> None:
    def forbidden(self):
        raise AssertionError("the batched path packed a whole flow table")

    monkeypatch.setattr(FlowTable, "packed_tuples", forbidden)


class TestPlacementOncePerChunk:
    def test_two_shard_ingest_places_each_chunk_once(self, trace, monkeypatch):
        chunks = _parsed_chunks(trace, 2_000)
        measurer = ShardedStreamingMeasurer(_config(), num_shards=2)
        calls = []
        original = RCCSketch.place_array

        def counting(self, keys):
            calls.append(len(keys))
            return original(self, keys)

        monkeypatch.setattr(RCCSketch, "place_array", counting)
        _forbid_whole_table_packing(monkeypatch)
        for number, chunk in enumerate(chunks, start=1):
            measurer.ingest(chunk)
            assert len(calls) == number
            assert calls[-1] == chunk.trace.num_flows
        assert measurer.finalize().insertions > 0

    def test_batched_engine_never_packs_the_whole_table(self, trace, monkeypatch):
        reference = InstaMeasure(_config("scalar"))
        reference.process_trace(trace)
        _forbid_whole_table_packing(monkeypatch)
        engine = InstaMeasure(_config("batched"))
        engine.process_trace(trace)
        assert engine.wsaf.estimates() == reference.wsaf.estimates()

    def test_one_shard_split_is_a_pass_through(self, trace):
        router = ShardRouter.for_config(_config(), 1)
        chunk = Chunk(
            trace=trace, index=0, begin=500, end=500 + trace.num_packets
        )
        [(sub, positions)] = router.split_chunk(chunk)
        assert sub is trace
        assert positions.dtype == np.int64
        np.testing.assert_array_equal(
            positions, 500 + np.arange(trace.num_packets)
        )

    def test_placement_refreshes_after_directory_extend(self, trace):
        sketch = RCCSketch(4 * 1024, seed=3)
        flows = trace.flows
        half = len(flows) // 2
        directory = _ShardFlowDirectory()
        directory.extend(*_fresh_flow_columns(flows, np.arange(half)))
        first = sketch.place_flows(directory)
        assert len(first[0]) == half
        assert sketch.place_flows(directory) is first
        directory.extend(*_fresh_flow_columns(flows, np.arange(half, len(flows))))
        idx, off = sketch.place_flows(directory)
        want_idx, want_off = sketch.place_array(flows.key64)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(off, want_off)

    def test_placement_cache_is_keyed_by_fingerprint(self, trace):
        flows = trace.flows
        sketch = RCCSketch(4 * 1024, seed=3)
        other = RCCSketch(4 * 1024, seed=4)
        placed = sketch.place_flows(flows)
        # A same-fingerprint sketch reuses it; a different seed re-places.
        assert RCCSketch(4 * 1024, seed=3).place_flows(flows) is placed
        idx, off = other.place_flows(flows)
        want_idx, want_off = other.place_array(flows.key64)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(off, want_off)

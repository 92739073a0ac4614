"""Batched-kernel equivalence tests.

The contract of :mod:`repro.kernels` is *bit-identicality*: the batched
engine must leave exactly the same regulator words, counters, statistics,
and WSAF contents behind as the scalar per-packet loop, for every
configuration it claims to support.  These tests enforce that contract
across seeds, chunk sizes (including degenerate ones), eviction policies,
saturation thresholds, and vector geometries, and pin the gating rules
that route unsupported configurations back to the scalar path.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.instameasure import InstaMeasure, InstaMeasureConfig
from repro.core.rcc import popcount_table
from repro.errors import ConfigurationError
from repro.kernels import SENTINEL, kernel_tables, supports_batched
from repro.kernels.luts import quad_tables
from repro.traffic.synth import CaidaLikeConfig, build_caida_like_trace


@pytest.fixture(scope="module")
def trace():
    """A small but saturation-rich trace (heavy flows + mice)."""
    return build_caida_like_trace(
        CaidaLikeConfig(num_flows=2500, duration=8.0, seed=11)
    )


@pytest.fixture(params=["loop"])
def replay(request):
    """The batched engine's contested-stretch replay: the per-stretch FSM loop.

    It is the only replay, so the fixture does not configure anything; it
    keeps the replay's name in the oracle's test ids.
    """
    return request.param


def _config(**overrides) -> InstaMeasureConfig:
    defaults = dict(l1_memory_bytes=2048, wsaf_entries=1 << 12, seed=0)
    defaults.update(overrides)
    return InstaMeasureConfig(**defaults)


def _run(trace, config):
    engine = InstaMeasure(config)
    result = engine.process_trace(trace)
    return engine, result


def _assert_identical(scalar_engine, batched_engine):
    """Every observable piece of state must match exactly."""
    scalar_reg = scalar_engine.regulator
    batched_reg = batched_engine.regulator
    assert scalar_reg.l1.words == batched_reg.l1.words
    assert scalar_reg.l1.packets_encoded == batched_reg.l1.packets_encoded
    assert scalar_reg.l1.saturations == batched_reg.l1.saturations
    assert len(scalar_reg.l2) == len(batched_reg.l2)
    for scalar_l2, batched_l2 in zip(scalar_reg.l2, batched_reg.l2):
        assert scalar_l2.words == batched_l2.words
        assert scalar_l2.packets_encoded == batched_l2.packets_encoded
        assert scalar_l2.saturations == batched_l2.saturations
    assert scalar_reg.stats == batched_reg.stats
    assert scalar_engine.wsaf.estimates() == batched_engine.wsaf.estimates()
    assert scalar_engine.wsaf.insertions == batched_engine.wsaf.insertions
    assert scalar_engine.wsaf.updates == batched_engine.wsaf.updates
    assert scalar_engine.wsaf.evictions == batched_engine.wsaf.evictions
    assert scalar_engine.wsaf.rejected == batched_engine.wsaf.rejected


class TestBitIdenticality:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_identical_across_seeds(self, trace, replay, seed):
        scalar_engine, scalar_result = _run(trace, _config(seed=seed, engine="scalar"))
        batched_engine, batched_result = _run(
            trace, _config(seed=seed, engine="batched")
        )
        assert scalar_result.packets == batched_result.packets == trace.num_packets
        assert scalar_result.insertions == batched_result.insertions
        _assert_identical(scalar_engine, batched_engine)

    @pytest.mark.parametrize("chunk_size", [1, 7, 4096, 1 << 20])
    def test_identical_across_chunk_sizes(self, trace, replay, chunk_size):
        scalar_engine, _ = _run(trace, _config(engine="scalar"))
        batched_engine, _ = _run(
            trace,
            _config(engine="batched", chunk_size=chunk_size),
        )
        _assert_identical(scalar_engine, batched_engine)

    @pytest.mark.parametrize("policy", ["second-chance", "min", "reject"])
    def test_identical_under_eviction_pressure(self, trace, replay, policy):
        # A 16-entry table with a 4-slot probe window forces constant
        # evictions, so WSAF ordering bugs cannot hide.
        pressured = _config(
            wsaf_entries=16,
            probe_limit=4,
            eviction_policy=policy,
        )
        scalar_engine, _ = _run(trace, replace_engine(pressured, "scalar"))
        batched_engine, _ = _run(trace, replace_engine(pressured, "batched"))
        assert scalar_engine.wsaf.evictions > 0 or policy == "reject"
        _assert_identical(scalar_engine, batched_engine)

    @pytest.mark.parametrize("saturation_fill", [0.5, 0.75, 0.9])
    def test_identical_across_saturation_fill(self, trace, replay, saturation_fill):
        scalar_engine, _ = _run(
            trace, _config(engine="scalar", saturation_fill=saturation_fill)
        )
        batched_engine, _ = _run(
            trace,
            _config(engine="batched", saturation_fill=saturation_fill),
        )
        _assert_identical(scalar_engine, batched_engine)

    @pytest.mark.parametrize("vector_bits", [3, 4, 5, 8])
    def test_identical_across_vector_bits(self, trace, replay, vector_bits):
        scalar_engine, _ = _run(
            trace, _config(engine="scalar", vector_bits=vector_bits)
        )
        batched_engine, _ = _run(
            trace,
            _config(engine="batched", vector_bits=vector_bits),
        )
        _assert_identical(scalar_engine, batched_engine)

    def test_identical_with_64bit_words(self, trace, replay):
        scalar_engine, _ = _run(trace, _config(engine="scalar", word_bits=64))
        batched_engine, _ = _run(trace, _config(engine="batched", word_bits=64))
        _assert_identical(scalar_engine, batched_engine)

    def test_callbacks_fire_identically(self, trace, replay):
        scalar_calls: list = []
        batched_calls: list = []
        scalar_engine = InstaMeasure(_config(engine="scalar"))
        scalar_engine.process_trace(
            trace, on_accumulate=lambda *args: scalar_calls.append(args)
        )
        batched_engine = InstaMeasure(_config(engine="batched"))
        batched_engine.process_trace(
            trace, on_accumulate=lambda *args: batched_calls.append(args)
        )
        assert scalar_calls == batched_calls
        assert len(scalar_calls) > 0

    def test_empty_trace(self, trace):
        empty = trace.time_slice(-2.0, -1.0)
        assert empty.num_packets == 0
        engine, result = _run(empty, _config(engine="batched"))
        assert result.packets == 0
        assert result.insertions == 0


def replace_engine(config: InstaMeasureConfig, engine: str) -> InstaMeasureConfig:
    """A copy of ``config`` running on ``engine``."""
    from dataclasses import replace

    return replace(config, engine=engine)


class TestEngineGating:
    def test_auto_falls_back_for_deep_regulators(self, trace):
        engine = InstaMeasure(_config(engine="auto", num_layers=3))
        assert not supports_batched(engine)
        result = engine.process_trace(trace)  # generic path must still run
        assert result.packets == trace.num_packets

    def test_batched_rejects_deep_regulators(self):
        with pytest.raises(ConfigurationError):
            InstaMeasure(_config(engine="batched", num_layers=3))

    def test_batched_rejects_wide_vectors(self):
        with pytest.raises(ConfigurationError):
            InstaMeasure(_config(engine="batched", vector_bits=16, word_bits=32))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            InstaMeasure(_config(engine="turbo"))

    def test_zero_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            InstaMeasure(_config(chunk_size=0))


class TestKernelTables:
    def test_pair_table_matches_single_steps(self):
        """pair[state][a | b<<3] must equal two single transitions."""
        tables = kernel_tables(vector_bits=8, saturation_bits=6)
        for state in range(1 << 8):
            for bit_a in range(8):
                mid = tables.single[state][bit_a]
                for bit_b in range(8):
                    expected: int
                    if mid >= SENTINEL:
                        # First packet saturates: position 0, noise encoded.
                        expected = SENTINEL + 0 * 8 + (mid - SENTINEL)
                    else:
                        after = tables.single[mid][bit_b]
                        if after >= SENTINEL:
                            expected = SENTINEL + 1 * 8 + (after - SENTINEL)
                        else:
                            expected = after
                    assert tables.pair[state][bit_a | (bit_b << 3)] == expected

    def test_single_table_brute_force(self):
        """Transitions must match naive set-bit-then-check-saturation."""
        vector_bits, saturation_bits = 5, 4
        tables = kernel_tables(vector_bits, saturation_bits)
        for state in range(1 << vector_bits):
            for bit in range(vector_bits):
                merged = state | (1 << bit)
                set_bits = bin(merged).count("1")
                if set_bits >= saturation_bits:
                    expected = SENTINEL + (vector_bits - set_bits)
                else:
                    expected = merged
                assert tables.single[state][bit] == expected

    def test_b2_of_code_layout(self):
        tables = kernel_tables(vector_bits=8, saturation_bits=6)
        for bits1 in range(8):
            for bits2 in range(8):
                assert tables.b2_of_code[bits1 + 8 * bits2] == bits2

    @pytest.mark.parametrize("vector_bits", [4, 5, 6, 7, 8])
    def test_quad_table_matches_single_steps(self, vector_bits):
        """quad[(state << 12) | q] must equal four single transitions."""
        codes = np.arange(4096)
        digits = [(codes >> (3 * pos)) & 7 for pos in range(4)]
        valid = np.all([d < vector_bits for d in digits], axis=0)
        valid_digits = [d[valid] for d in digits]
        for saturation_bits in range(4, vector_bits + 1):
            single = np.array(kernel_tables(vector_bits, saturation_bits).single)
            quad = np.array(quad_tables(vector_bits, saturation_bits))
            quad = quad.reshape(1 << vector_bits, 4096)
            assert not quad[:, ~valid].any()
            for state in range(1 << vector_bits):
                cur = np.full(int(valid.sum()), state)
                tag = np.full(cur.size, -1)
                for pos, bit in enumerate(valid_digits):
                    nxt = single[cur, bit]
                    sat = nxt >= SENTINEL
                    # A recycled window cannot reach >= 4 bits again
                    # within the block's remaining packets.
                    assert not (sat & (tag >= 0)).any()
                    tag = np.where(sat, (pos << 3) | (nxt - SENTINEL), tag)
                    cur = np.where(sat, 0, nxt)
                want = np.where(tag < 0, cur, SENTINEL + (tag << 8) + cur)
                np.testing.assert_array_equal(quad[state, valid], want)

    def test_quad_table_build_memory_is_bounded(self, monkeypatch):
        """The 2 MB table must not be built through ~20 MB temporaries."""
        from repro.kernels import luts

        monkeypatch.setattr(luts, "_QUAD_CACHE", {})
        kernel_tables(8, 6)  # cached separately; not part of the build
        tracemalloc.start()
        try:
            luts.quad_tables(8, 6)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20, f"quad table build peaked at {peak >> 20} MiB"

    def test_rejects_unsupported_geometry(self):
        with pytest.raises(ConfigurationError):
            kernel_tables(vector_bits=9, saturation_bits=6)
        with pytest.raises(ConfigurationError):
            kernel_tables(vector_bits=8, saturation_bits=0)

    def test_popcount_table_widths(self):
        assert popcount_table(8)[0b10110] == 3
        with pytest.raises(ConfigurationError):
            popcount_table(17)


class TestResultSemantics:
    def test_results_report_per_run_deltas(self, trace):
        """Satellite fix: a second run must not re-report the first's work."""
        for engine_name in ("scalar", "batched"):
            engine = InstaMeasure(_config(engine=engine_name))
            first = engine.process_trace(trace)
            second = engine.process_trace(trace)
            assert first.packets == trace.num_packets
            assert second.packets == trace.num_packets  # not 2x
            assert second.regulator_stats.packets == trace.num_packets
            # Cumulative totals still live on the regulator itself.
            assert engine.regulator.stats.packets == 2 * trace.num_packets

    def test_occupied_slot_set_consistency(self, trace):
        """The O(size) slot set must mirror the occupancy column exactly."""
        engine, _ = _run(
            trace, _config(engine="batched", wsaf_entries=16, probe_limit=4)
        )
        table = engine.wsaf
        expected = {
            slot for slot, used in enumerate(table._occupied) if used
        }
        assert table._occupied_slots == expected
        assert len(list(table.entries())) == table.size == len(expected)


def _churn_trace(num_flows: int, num_packets: int, seed: int):
    """Many short flows in random order: most stretches are one packet."""
    from repro.traffic.packet import FlowTable, Trace

    rng = np.random.default_rng(seed)
    flows = FlowTable(
        src_ip=rng.integers(0, 1 << 32, num_flows, dtype=np.uint32),
        dst_ip=rng.integers(0, 1 << 32, num_flows, dtype=np.uint32),
        src_port=rng.integers(0, 1 << 16, num_flows, dtype=np.uint16),
        dst_port=rng.integers(0, 1 << 16, num_flows, dtype=np.uint16),
        protocol=np.full(num_flows, 6, dtype=np.uint8),
    )
    return Trace(
        timestamps=np.sort(rng.random(num_packets)) * 10.0,
        flow_ids=rng.integers(0, num_flows, num_packets).astype(np.int64),
        sizes=rng.integers(40, 1500, num_packets).astype(np.int64),
        flows=flows,
    )


class TestDenseL1OnePacketSaturations:
    """A tiny L1 under many one-packet flows: screening rounds with more
    than 32 failing words, most of them one-packet lanes that saturate as
    arrays (``_saturate_single_packets``)."""

    @pytest.fixture(scope="class")
    def churn(self):
        return _churn_trace(num_flows=20_000, num_packets=60_000, seed=5)

    @pytest.mark.parametrize(
        "geometry",
        [
            dict(),  # quad replay: 6 of 8 bits saturate
            dict(saturation_fill=0.375),  # pair replay: 3 of 8 bits
            dict(vector_bits=4, saturation_fill=0.5),  # pair replay: 2 of 4
        ],
        ids=["quad", "pair", "pair-v4"],
    )
    @pytest.mark.parametrize("chunk_size", [1000, 8192, 1 << 20])
    def test_matches_scalar(self, churn, monkeypatch, geometry, chunk_size):
        import repro.kernels.batched as batched

        lanes = []
        saturate = batched._saturate_single_packets

        def counting(sids, *args):
            lanes.append(len(sids))
            return saturate(sids, *args)

        monkeypatch.setattr(batched, "_saturate_single_packets", counting)
        config = _config(l1_memory_bytes=1024, chunk_size=chunk_size, **geometry)
        scalar_engine, scalar_result = _run(churn, replace_engine(config, "scalar"))
        batched_engine, batched_result = _run(
            churn, replace_engine(config, "batched")
        )
        assert sum(lanes) > 1000, "the one-packet array path did not run"
        assert scalar_result.insertions == batched_result.insertions > 0
        _assert_identical(scalar_engine, batched_engine)
        assert list(scalar_engine.wsaf.entries()) == list(
            batched_engine.wsaf.entries()
        )

"""Regulator-replay edge geometry and kernel-cache lifecycle tests.

The batched engine's regulator replay (:mod:`repro.kernels.batched`)
shares the bit-identicality oracle in ``tests/test_kernels.py``; this file
adds the geometries where whole-array stream building degenerates — narrow
vectors, 64-bit words, a single mega-stretch, empty and one-packet chunks —
plus regression coverage for the per-trace kernel caches: the stream cache
key must cover every config knob that changes stream contents (a stale hit
would silently replay another configuration's data), and
``clear_kernel_caches`` must actually drop the cached arrays.
"""

from __future__ import annotations

import pytest

from repro.core.instameasure import InstaMeasure, InstaMeasureConfig
from repro.core.multicore import MultiCoreInstaMeasure
from repro.kernels.batched import (
    _LAYOUT_ATTR,
    _STREAM_ATTR,
    _stream_key,
    clear_kernel_caches,
)
from repro.traffic.synth import CaidaLikeConfig, build_caida_like_trace


@pytest.fixture(scope="module")
def trace():
    """A small saturation-rich mix (same shape as the kernels oracle)."""
    return build_caida_like_trace(
        CaidaLikeConfig(num_flows=2500, duration=8.0, seed=11)
    )


@pytest.fixture(scope="module")
def single_flow_trace():
    """Every packet belongs to one flow: one max-length stretch per chunk.

    All packets share one ``(word, offset)`` placement, so the replay sees
    a single word run whose whole chunk is one contested stretch.
    """
    return build_caida_like_trace(
        CaidaLikeConfig(
            num_flows=1,
            duration=2.0,
            seed=5,
            max_flow_size=20_000,
            zipf_alpha=1.01,
        )
    )


def _config(**overrides) -> InstaMeasureConfig:
    defaults = dict(l1_memory_bytes=2048, wsaf_entries=1 << 12, seed=0)
    defaults.update(overrides)
    return InstaMeasureConfig(**defaults)


def _state(engine: InstaMeasure) -> "tuple":
    """Every observable piece of post-run state, comparable across engines."""
    reg = engine.regulator
    return (
        tuple(reg.l1.words),
        reg.l1.packets_encoded,
        reg.l1.saturations,
        tuple(tuple(bank.words) for bank in reg.l2),
        tuple(bank.packets_encoded for bank in reg.l2),
        tuple(bank.saturations for bank in reg.l2),
        reg.stats,
        engine.wsaf.estimates(),
        engine.wsaf.insertions,
    )


def _batched_matches_scalar(some_trace, **overrides) -> None:
    scalar = InstaMeasure(_config(engine="scalar", **overrides))
    scalar_result = scalar.process_trace(some_trace)
    batched = InstaMeasure(_config(engine="batched", **overrides))
    batched_result = batched.process_trace(some_trace)
    assert scalar_result.packets == batched_result.packets
    assert _state(scalar) == _state(batched)


class TestScanEdgeGeometry:
    """Edge geometries of the batched replay (ids predate the single replay)."""

    @pytest.mark.parametrize("vector_bits", [3, 4, 5])
    def test_narrow_vectors(self, trace, vector_bits):
        _batched_matches_scalar(trace, vector_bits=vector_bits)

    @pytest.mark.parametrize("vector_bits", [3, 8])
    def test_64bit_words(self, trace, vector_bits):
        _batched_matches_scalar(trace, word_bits=64, vector_bits=vector_bits)

    def test_narrow_vector_low_fill(self, trace):
        # saturation_bits == 2: the smallest jump-table order statistic.
        _batched_matches_scalar(trace, vector_bits=3, saturation_fill=0.5)

    def test_single_word_adversarial(self, single_flow_trace):
        _batched_matches_scalar(single_flow_trace)

    def test_single_word_adversarial_64bit(self, single_flow_trace):
        _batched_matches_scalar(single_flow_trace, word_bits=64, vector_bits=4)

    def test_one_packet_chunks(self, trace):
        # chunk_size=1: every chunk is a single one-packet stretch.
        small = trace.time_slice(0.0, 0.5)
        assert small.num_packets > 0
        _batched_matches_scalar(small, chunk_size=1)

    def test_empty_trace(self, trace):
        empty = trace.time_slice(-2.0, -1.0)
        assert empty.num_packets == 0
        engine = InstaMeasure(_config(engine="batched"))
        result = engine.process_trace(empty)
        assert result.packets == 0
        assert result.insertions == 0


#: One override per config knob that changes derived stream contents.
#: If any of these stopped landing in the stream cache key, the reuse
#: test below would replay stale data and diverge from a fresh run.
_KNOB_OVERRIDES = (
    dict(seed=3),
    dict(vector_bits=5),
    dict(saturation_fill=0.6),
    dict(word_bits=64),
    dict(l1_memory_bytes=4096),
    dict(chunk_size=512),
)


class TestKernelCacheLifecycle:
    def test_stream_key_covers_every_knob(self):
        """Each stream-affecting knob must change the cache key."""
        base = InstaMeasure(_config(engine="batched"))
        base_key = _stream_key(base, base.regulator.l1, base.config.chunk_size)
        for overrides in _KNOB_OVERRIDES:
            varied = InstaMeasure(_config(engine="batched", **overrides))
            varied_key = _stream_key(
                varied, varied.regulator.l1, varied.config.chunk_size
            )
            assert varied_key != base_key, (
                f"stream cache key ignores {sorted(overrides)} — a reused "
                "trace would replay stale streams"
            )

    @pytest.mark.parametrize(
        "overrides", _KNOB_OVERRIDES, ids=lambda o: ",".join(sorted(o))
    )
    def test_no_stale_replay_after_reconfigure(self, trace, overrides):
        """Re-running a warmed trace under a new config must not reuse it."""
        warm = InstaMeasure(_config(engine="batched"))
        warm.process_trace(trace)  # populates the per-trace caches
        assert getattr(trace, _STREAM_ATTR, None) is not None
        _batched_matches_scalar(trace, **overrides)

    def test_clear_kernel_caches_drops_attrs(self, trace):
        engine = InstaMeasure(_config(engine="batched"))
        engine.process_trace(trace)
        assert getattr(trace, _LAYOUT_ATTR, None) is not None
        assert getattr(trace, _STREAM_ATTR, None) is not None
        clear_kernel_caches(trace)
        for attr in (_LAYOUT_ATTR, _STREAM_ATTR):
            assert getattr(trace, attr, None) is None
        # Idempotent on a cold trace.
        clear_kernel_caches(trace)
        # And the next run rebuilds from scratch, still bit-identical.
        _batched_matches_scalar(trace)

    def test_multicore_teardown_clears_worker_queues(self, trace, monkeypatch):
        """Worker sub-traces die after the run; their caches must die too."""
        import repro.core.multicore as multicore

        cleared: "list" = []
        monkeypatch.setattr(
            multicore,
            "clear_kernel_caches",
            lambda queue_trace: cleared.append(queue_trace),
        )
        manager = MultiCoreInstaMeasure(2, _config(engine="batched"))
        result = manager.process_trace(trace)
        assert result.packets == trace.num_packets
        assert len(cleared) == 2
        # Each cleared object is a worker queue, not the caller's trace.
        assert all(queue is not trace for queue in cleared)

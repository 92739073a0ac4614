"""The batched fast path: chunked, table-driven trace processing.

A bit-identical re-expression of the scalar ``InstaMeasure.process_trace``
loop, built on two structural facts about the 2-layer FlowRegulator:

* **Per-word independence.**  L1 and every L2 bank share placement, so the
  regulator state a packet touches is fully determined by its flow's
  ``(word index, bit offset)``.  Packets can therefore be processed grouped
  by word (stably, preserving each word's internal packet order) instead of
  globally in trace order.  Only WSAF accumulation couples words, and that
  coupling is restored by applying decoded insertion events sorted by
  original packet position.
* **FSM compilation.**  A counting window holds one of ``2**vector_bits``
  states, so layer transitions compile into small lookup tables
  (:mod:`repro.kernels.luts`) indexed by interned byte values, and the hot
  loop advances two or four packets per lookup through the pair or quad
  table.
* **One-packet saturations.**  A stretch of one packet that fails its
  live screen saturates at that packet, and the screen's own popcount is
  its noise level; its L2 step is one more OR and popcount on the same
  word.  On churny traffic most contested stretches are one packet long,
  so a screening round commits them as arrays instead of replaying each
  (:func:`_saturate_single_packets`).

Pipeline per chunk: vectorized gathers (placement, pre-drawn bit choices)
→ stable sort by word → word-level saturation screen (``np.bitwise_or.
reduceat`` of the candidate bits plus a popcount: a word whose
OR-accumulated candidate state cannot saturate any of its windows commits
in O(1)) → vectorized screening rounds over the remaining stretches, with
one-packet saturations committed as arrays → quad- or pair-LUT replay of
the contested multi-packet stretches → insertion events handed to the
WSAF once per chunk, in packet order (see :func:`process_trace_batched`).

Randomness is drawn exactly as the scalar path draws it (same generator,
same sizes, same order), so every sketch word, counter, and WSAF record
comes out identical — the equivalence suite in ``tests/test_kernels.py``
asserts this across seeds, chunk sizes, policies, and geometries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels.luts import SENTINEL, kernel_tables, quad_tables

#: Trace attribute under which per-chunk sort layouts are cached.
_LAYOUT_ATTR = "_batched_layout"

#: Trace attribute holding the per-chunk derived bit streams.
_STREAM_ATTR = "_delegated_streams"

#: Bumped when the layout dict layout changes, to invalidate stale caches.
_LAYOUT_VERSION = 4

#: Default packets per kernel chunk (one chunk for most lab traces).
DEFAULT_CHUNK_SIZE = 1 << 20

#: Failing one-packet stretches a screening round needs before it
#: saturates them as arrays; below this the per-stretch replay is cheaper.
_ARRAY_SINGLES_MIN = 24


def clear_kernel_caches(trace) -> None:
    """Drop every kernel-derived cache pinned on ``trace``.

    The chunk layouts (:data:`_LAYOUT_ATTR`) and the derived bit streams
    (:data:`_STREAM_ATTR`) together hold several NumPy
    arrays per chunk — on a million-packet trace tens of megabytes that
    would otherwise live as long as the trace object does.  Call this when a trace outlives its
    runs (the multi-core manager does, for its per-worker sub-traces).
    """
    for attr in (_LAYOUT_ATTR, _STREAM_ATTR):
        if hasattr(trace, attr):
            delattr(trace, attr)


@dataclass
class BatchCounters:
    """Counters a batched run hands back for folding into shared stats."""

    packets: int = 0
    l1_saturations: int = 0
    insertions: int = 0
    #: Packets encoded into each L2 bank (indexed by L1 noise level).
    l2_encoded: "list[int]" = field(default_factory=list)
    #: Saturations observed in each L2 bank.
    l2_saturated: "list[int]" = field(default_factory=list)


def supports_batched(engine) -> bool:
    """Whether ``engine`` can run the batched kernel.

    Requires the paper's 2-layer
    :class:`~repro.core.regulator.FlowRegulator` (the shared L1/L2
    placement is what makes per-word grouping sound) with
    ``vector_bits <= 8`` (window states must fit the byte-indexed FSM
    tables).  Other regulator depths and wider vectors take the scalar
    path.
    """
    from repro.core.regulator import FlowRegulator

    regulator = getattr(engine, "regulator", None)
    return isinstance(regulator, FlowRegulator) and regulator.vector_bits <= 8


def _chunk_layouts(trace, l1, chunk_size: int) -> "list[dict]":
    """Per-chunk word-sorted layouts for ``trace``, cached on the trace.

    A layout (stable sort order by word, stretch boundaries, per-stretch
    word/offset headers) depends only on the trace, the sketch placement,
    and the chunking — never on a run's randomness — so repeated runs over
    the same trace reuse it.  The cache is keyed by the placement
    fingerprint and invalidated whenever a differently-configured engine
    processes the trace.
    """
    cache_key = (
        _LAYOUT_VERSION,
        l1._place_seed_idx,
        l1._place_seed_off,
        l1.num_words,
        l1.word_bits,
        int(chunk_size),
    )
    cached = getattr(trace, _LAYOUT_ATTR, None)
    if cached is not None and cached[0] == cache_key:
        return cached[1]

    idx_by_flow, off_by_flow = l1.place_flows(trace.flows)
    flow_ids = trace.flow_ids
    word_dtype = np.uint16 if l1.num_words <= (1 << 16) else np.uint32
    packet_words = idx_by_flow.astype(word_dtype)[flow_ids]
    packet_offsets = off_by_flow.astype(np.uint8)[flow_ids]

    layouts = []
    for begin in range(0, trace.num_packets, chunk_size):
        end = min(begin + chunk_size, trace.num_packets)
        chunk_words = packet_words[begin:end]
        order = np.argsort(chunk_words, kind="stable")
        sorted_words = chunk_words[order]
        sorted_offsets = packet_offsets[begin:end][order]
        # One key per (word, offset); offsets fit 6 bits (word_bits <= 64).
        stretch_key = (sorted_words.astype(np.int64) << 6) | sorted_offsets
        span = end - begin
        if span > 1:
            reduce_starts = np.flatnonzero(
                np.concatenate(([True], stretch_key[1:] != stretch_key[:-1]))
            )
        else:
            reduce_starts = np.zeros(1, dtype=np.int64)
        head_offsets = sorted_offsets[reduce_starts]
        order_dtype = np.int32 if trace.num_packets <= (1 << 31) - 1 else np.int64
        ends_arr = np.append(reduce_starts[1:], span)
        single = (ends_arr - reduce_starts) == 1
        stretch_words = sorted_words[reduce_starts].astype(np.int64)
        # Stretches sorted by (word, offset) group same-word stretches into
        # contiguous *word runs* — the unit of the vectorized word-level
        # screen.
        if len(stretch_words) > 1:
            word_run_starts = np.flatnonzero(
                np.concatenate(([True], stretch_words[1:] != stretch_words[:-1]))
            )
        else:
            word_run_starts = np.zeros(1, dtype=np.int64)
        word_run_lengths = np.diff(
            np.append(word_run_starts, len(stretch_words))
        )
        layouts.append(
            dict(
                # Global packet positions, chunk-sorted; int32 for gathers.
                order=(order + begin).astype(order_dtype),
                reduce_starts=reduce_starts,
                starts=reduce_starts.tolist(),
                ends=ends_arr.tolist(),
                words=stretch_words.tolist(),
                offsets=head_offsets.tolist(),
                offsets_arr=head_offsets.astype(np.uint64),
                single=single,
                word_run_starts=word_run_starts,
                word_run_lengths=word_run_lengths,
                word_run_heads=stretch_words[word_run_starts],
            )
        )
    setattr(trace, _LAYOUT_ATTR, (cache_key, layouts))
    return layouts


def _stream_key(engine, l1, chunk_size: int, stream_tag=None) -> "tuple":
    """Cache key covering every knob that changes the derived streams.

    The streams are functions of the trace *and* of (seed → bit draws,
    vector/saturation/word geometry → codes and masks, placement seeds and
    word count → sort layout, chunking).  Any config change that would
    alter stream contents must land in this tuple, or a reused trace would
    replay stale data — ``tests/test_kernels.py`` exercises each knob.

    ``stream_tag`` identifies which slice of a pre-drawn whole-stream bit
    sequence the caller supplied (the streaming ingest path); ``None``
    means the engine's own whole-trace draw.
    """
    return (
        _LAYOUT_VERSION,
        engine.config.seed,
        l1.vector_bits,
        l1.saturation_bits,
        l1.word_bits,
        l1._place_seed_idx,
        l1._place_seed_off,
        l1.num_words,
        int(chunk_size),
        stream_tag,
    )


def _chunk_stream_slots(trace, key, num_chunks: int) -> "list":
    """The per-chunk stream cache list on ``trace``, reset on key change."""
    cache = getattr(trace, _STREAM_ATTR, None)
    if cache is None or cache[0] != key:
        cache = (key, [None] * num_chunks)
        setattr(trace, _STREAM_ATTR, cache)
    return cache[1]


def _quad_stream_list(sorted_b1) -> "list[int]":
    """Aligned 4-packet bit codes as boxed ints for the scalar quad loop.

    A list indexes ~2x faster than a memoryview in the replay loop, and
    the boxed ints are built once per trace (the stream cache holds them
    across runs).
    """
    nq = len(sorted_b1) >> 2
    q16 = sorted_b1[: 4 * nq : 4].astype(np.uint16)
    q16 = q16 | (sorted_b1[1 : 4 * nq : 4].astype(np.uint16) << 3)
    q16 = q16 | (sorted_b1[2 : 4 * nq : 4].astype(np.uint16) << 6)
    q16 = q16 | (sorted_b1[3 : 4 * nq : 4].astype(np.uint16) << 9)
    return q16.tolist()


def _build_chunk_stream(
    layout,
    code_all,
    vector_bits: int,
    word_bits: int,
    word_mask: int,
    bit_values,
    window_masks_np,
    with_quad_list: bool,
) -> "tuple":
    """One chunk's derived streams (see :func:`process_trace_batched`).

    ``with_quad_list`` controls whether the quad replay's boxed-int stream
    is built (only geometries with ``saturation_bits >= 4`` replay quads).
    """
    order = layout["order"]
    sorted_code = code_all[order]
    if vector_bits & (vector_bits - 1) == 0:
        sorted_b1 = sorted_code & np.uint8(vector_bits - 1)
    else:
        sorted_b1 = sorted_code % np.uint8(vector_bits)
    bit_stream = bit_values[sorted_b1]
    or_heads = np.bitwise_or.reduceat(bit_stream, layout["reduce_starts"])
    offsets_arr = layout["offsets_arr"]
    or64 = or_heads.astype(np.uint64)
    inv_shifts = (np.uint64(word_bits) - offsets_arr) & np.uint64(word_bits - 1)
    rotated_or_np = ((or64 << offsets_arr) | (or64 >> inv_shifts)) & np.uint64(
        word_mask
    )
    stretch_windows = window_masks_np[offsets_arr.astype(np.intp)]
    b1s = sorted_b1.tobytes()
    b2s = (sorted_code // np.uint8(vector_bits)).tobytes()
    quad_stream = _quad_stream_list(sorted_b1) if with_quad_list else None
    return (
        sorted_code,
        sorted_b1,
        bit_stream,
        rotated_or_np,
        stretch_windows,
        b1s,
        b2s,
        quad_stream,
    )


def _delegate_chunk_events(
    event_pos,
    event_z,
    event_z2,
    order,
    flow_ids,
    flows,
    timestamps,
    sizes,
    decode_np,
    wsaf,
    wsaf_arrays,
    on_accumulate,
) -> None:
    """Apply one chunk's saturation events to the WSAF in packet order.

    ``event_pos`` holds chunk-sorted stream positions; global coupling is
    restored by mapping through ``order`` and re-sorting by original packet
    position (chunks are contiguous, so chunk order composes to trace
    order).  The batch-probed table takes the grouped array form; any other
    table gets the equivalent ``accumulate_batch`` call.  Only the
    events' flows have their 5-tuples packed.
    """
    positions = order[event_pos]
    rank = np.argsort(positions, kind="stable")
    positions = positions[rank]
    event_flows = flow_ids[positions]
    noise1 = event_z[rank]
    noise2 = event_z2[rank]
    est_pkt = decode_np[noise1] * decode_np[noise2]
    est_byte = est_pkt * sizes[positions]
    event_stamps = timestamps[positions]
    event_keys = flows.key64[event_flows]
    event_tuples = flows.packed_tuples_at(event_flows)
    if wsaf_arrays is not None:
        wsaf_arrays(
            event_keys,
            est_pkt,
            est_byte,
            event_stamps,
            event_tuples,
            on_accumulate,
            collect_totals=False,
        )
    else:
        wsaf.accumulate_batch(
            list(
                zip(
                    event_keys.tolist(),
                    est_pkt.tolist(),
                    est_byte.tolist(),
                    event_stamps.tolist(),
                    event_tuples,
                )
            ),
            on_accumulate=on_accumulate,
        )


def _saturate_single_packets(
    sids,
    wids,
    merged,
    fill,
    words_np,
    l2_words,
    layout,
    stretch_windows,
    b2_np,
    vector_bits: int,
    word_bits: int,
    sat_bits: int,
) -> "tuple":
    """Saturate one screening round's failing one-packet stretches at once.

    A one-packet stretch that fails its live screen saturates at that
    packet: ``merged`` (word | the packet's bit) fills its window with
    ``fill >= sat_bits`` bits, so the noise level is ``vector_bits -
    fill`` and the window recycles.  The packet then takes its L2 bit
    into bank ``z`` at the same word through the same OR/popcount test.
    Every lane owns a distinct word, so the commits are single scatters
    (the L2 banks are Python lists, gathered and written back per lane).

    Returns ``(positions, z, z2)`` of the L2 saturations (the WSAF
    events) and the per-bank count of encoded packets.
    """
    windows = stretch_windows[sids]
    keep = ~windows
    words_np[wids] = merged & keep
    noise = vector_bits - fill
    positions = layout["reduce_starts"][sids]
    shifts = b2_np[positions] + layout["offsets_arr"][sids]
    banks = noise.tolist()
    lanes = wids.tolist()
    merged2 = np.fromiter(
        (l2_words[z][w] for z, w in zip(banks, lanes)),
        dtype=np.uint64,
        count=len(lanes),
    ) | np.left_shift(np.uint64(1), shifts % np.uint64(word_bits))
    fill2 = np.bitwise_count(merged2 & windows)
    saturated = fill2 >= sat_bits
    for z, w, value in zip(
        banks, lanes, np.where(saturated, merged2 & keep, merged2).tolist()
    ):
        l2_words[z][w] = value
    return (
        positions[saturated],
        noise[saturated],
        vector_bits - fill2[saturated],
        np.bincount(noise, minlength=len(l2_words)),
    )


def process_trace_batched(
    engine,
    trace,
    on_accumulate=None,
    chunk_size: "int | None" = None,
    bits=None,
    stream_tag=None,
) -> BatchCounters:
    """Process ``trace`` through ``engine``'s regulator and WSAF, batched.

    Mutates the engine's sketch words and WSAF exactly as the scalar loop
    would and returns the run's :class:`BatchCounters` (the caller folds
    them into the shared stats/accounting objects).  ``chunk_size``
    defaults to the engine config's value.

    ``bits`` overrides the per-packet random bit draws with externally
    supplied ``(bits1, bits2)`` uint8 arrays — the streaming ingest path
    slices one pre-drawn whole-stream pair so chunked runs replay the
    exact whole-trace randomness.  ``stream_tag`` disambiguates the
    trace-pinned stream caches when the same trace object is processed
    with different bit slices (see :func:`_stream_key`).

    Each stage preserves bit-identity with the scalar loop:

    * **Word-level screen.**  Windows of different flows in one word may
      overlap (offsets are arbitrary), so per-stretch outcomes are coupled
      through shared bits — but ``word | OR(all stretch bits)`` is a
      monotone upper bound on every intermediate word state.  If *every*
      stretch's window stays below the saturation threshold even against
      that bound, no packet anywhere in the word can saturate, the word's
      final value *is* the bound, and the whole word run commits with zero
      Python-loop iterations.
    * **Screening rounds.**  Words that fail the bound take a vectorized
      screen-and-commit loop instead of a per-stretch Python sweep: each
      round screens every pending word's *next* stretch against its live
      word state (words are mutually independent and each word contributes
      one stretch per round, so passing candidates commit as one array
      scatter).  Only stretches whose live screen fails — the ones that
      can truly saturate — drop into the FSM replay, and of those the
      one-packet stretches saturate as arrays when a round has at least
      :data:`_ARRAY_SINGLES_MIN` of them.
    * **Quad FSM steps.**  With ``saturation_bits >= 4`` a four-packet
      block saturates at most once (a recycled window plus three more
      packets cannot reach the threshold again), so the replay advances
      four packets per lookup through :func:`~repro.kernels.luts.quad_tables`.
      Narrower thresholds keep the two-packet pair tables with an aligned
      4-packet OR screen in front.
    * **Folded L2 step.**  A window that saturates from a post-reset
      state grows one distinct bit per packet from zero, so it holds
      exactly ``saturation_bits`` set bits at the saturating packet and
      its noise level is the constant ``vector_bits - saturation_bits``.
      Only a stretch's *first* saturation — seeded by the inherited word
      state, which can carry extra bits committed by overlapping offsets
      — can deviate, and those are rare (tens per trace).  The quad
      replay therefore keeps that one L2 bank's window in a local for the
      whole stretch and steps any other bank in place.
    * **Batch delegation.**  Decoded estimates are handed to the WSAF
      once per chunk, in original packet order: as column arrays to a
      batch-probed table
      (:meth:`~repro.kernels.wsaf_batched.BatchedWSAFTable.accumulate_batch_arrays`),
      and through ``accumulate_batch`` to any other table.
    """
    regulator = engine.regulator
    l1 = regulator.l1
    vector_bits = l1.vector_bits
    word_bits = l1.word_bits
    sat_bits = l1.saturation_bits
    if chunk_size is None:
        chunk_size = getattr(engine.config, "chunk_size", DEFAULT_CHUNK_SIZE)

    counters = BatchCounters(
        packets=trace.num_packets,
        l2_encoded=[0] * len(regulator.l2),
        l2_saturated=[0] * len(regulator.l2),
    )
    num_packets = trace.num_packets
    if num_packets == 0:
        return counters

    tables = kernel_tables(vector_bits, sat_bits)
    step1 = tables.single
    step_pair = tables.pair
    popcount = tables.popcount
    step1_empty = step1[0]
    sentinel = SENTINEL
    use_quad = sat_bits >= 4
    step_quad = quad_tables(vector_bits, sat_bits) if use_quad else None

    layouts = _chunk_layouts(trace, l1, chunk_size)
    bit_values = np.left_shift(np.uint8(1), np.arange(vector_bits, dtype=np.uint8))

    # The sorted noise/code streams are pure functions of (trace, seed,
    # layout, layer geometry) — like the chunk layouts, they are cached on
    # the trace so repeated runs skip the draws and gathers.  Filled
    # lazily per chunk below.
    chunk_streams = _chunk_stream_slots(
        trace,
        _stream_key(engine, l1, chunk_size, stream_tag),
        len(layouts),
    )

    code_all = None
    if any(entry is None for entry in chunk_streams):
        if bits is None:
            # Identical draws to the scalar path: same generator, sizes,
            # order.
            rng = np.random.default_rng(engine.config.seed ^ 0xB17)
            bits1 = rng.integers(0, vector_bits, size=num_packets, dtype=np.uint8)
            bits2 = rng.integers(0, vector_bits, size=num_packets, dtype=np.uint8)
        else:
            bits1, bits2 = bits
        code_all = bits1 + np.uint8(vector_bits) * bits2

    window_masks = l1._window_masks
    window_masks_np = np.array(window_masks, dtype=np.uint64)
    decode_np = np.asarray(l1._decode_table, dtype=np.float64)
    words = l1.words
    l2_words = [sketch.words for sketch in regulator.l2]
    num_banks = len(l2_words)
    word_mask = (1 << word_bits) - 1
    window_all = (1 << vector_bits) - 1
    l2_encoded = counters.l2_encoded
    l2_saturated = counters.l2_saturated

    flow_ids = trace.flow_ids
    timestamps = trace.timestamps
    sizes = trace.sizes
    wsaf = engine.wsaf
    wsaf_arrays = getattr(wsaf, "accumulate_batch_arrays", None)

    l1_saturations = 0
    insertions = 0

    for chunk_index, layout in enumerate(layouts):
        order = layout["order"]

        streams = chunk_streams[chunk_index]
        if streams is None:
            streams = _build_chunk_stream(
                layout,
                code_all,
                vector_bits,
                word_bits,
                word_mask,
                bit_values,
                window_masks_np,
                with_quad_list=use_quad,
            )
            chunk_streams[chunk_index] = streams
        (
            sorted_code,
            sorted_b1,
            bit_stream,
            rotated_or_np,
            stretch_windows,
            b1s,
            b2s,
            quad_stream,
        ) = streams

        word_run_starts = layout["word_run_starts"]
        word_run_lengths = layout["word_run_lengths"]
        word_run_heads = layout["word_run_heads"]
        words_np = np.array(words, dtype=np.uint64)
        upper = words_np[word_run_heads] | np.bitwise_or.reduceat(
            rotated_or_np, word_run_starts
        )
        stretch_ok = (
            np.bitwise_count(np.repeat(upper, word_run_lengths) & stretch_windows)
            < sat_bits
        )
        word_ok = np.logical_and.reduceat(stretch_ok, word_run_starts)
        words_np[word_run_heads[word_ok]] = upper[word_ok]

        event_pos: "list[int]" = []
        event_z: "list[int]" = []
        event_z2: "list[int]" = []
        noise_z = vector_bits - sat_bits

        if not word_ok.all():
            starts_l = layout["starts"]
            ends_l = layout["ends"]
            words_l = layout["words"]
            offs_l = layout["offsets"]

            if use_quad:

                def replay(
                    sid,
                    s1=step1,
                    sq=step_quad,
                    qs=quad_stream,
                    sen=sentinel,
                    b1l=b1s,
                    b2l=b2s,
                    words_l=layout["words"],
                    offs_l=layout["offsets"],
                    starts_l=layout["starts"],
                    ends_l=layout["ends"],
                    words_np=words_np,
                    window_masks=window_masks,
                    word_bits=word_bits,
                    window_all=window_all,
                    word_mask=word_mask,
                    noise_z=noise_z,
                    bank2=l2_words[vector_bits - sat_bits],
                    l2_words=l2_words,
                    l2_encoded=l2_encoded,
                    eap=event_pos.append,
                    ezap=event_z.append,
                    ez2ap=event_z2.append,
                ):
                    # Replay one screen-failed stretch through the quad FSM
                    # with the L2 step folded inline.  Chain saturations all
                    # carry noise_z — the window regrew from zero — so a
                    # single local (st2) holds the noise_z bank's window for
                    # the whole stretch and the common saturation handler is
                    # one table step.  Only the stretch's first saturation
                    # (inherited word state) can deviate; it read-modify-
                    # writes its own bank directly.  (Keyword defaults bind
                    # every table and column into fast locals — this runs
                    # tens of thousands of times per trace.)
                    w = words_l[sid]
                    off = offs_l[sid]
                    a = starts_l[sid]
                    b = ends_l[sid]
                    word = int(words_np[w])
                    window = window_masks[off]
                    inv = word_bits - off
                    state = ((word >> off) | (word << inv)) & window_all
                    rest = word & ~window
                    st2 = -1
                    rest2 = 0
                    ns = 0
                    nf = 0
                    while a & 3 and a < b:  # align to the quad stream
                        nxt = s1[state][b1l[a]]
                        if nxt < sen:
                            state = nxt
                        else:
                            ns += 1
                            z = nxt - sen
                            if st2 < 0:
                                bw2 = bank2[w]
                                st2 = ((bw2 >> off) | (bw2 << inv)) & window_all
                                rest2 = bw2 & ~window
                            if z == noise_z:
                                nxt2 = s1[st2][b2l[a]]
                                if nxt2 < sen:
                                    st2 = nxt2
                                else:
                                    eap(a)
                                    ezap(z)
                                    ez2ap(nxt2 - sen)
                                    st2 = 0
                            else:
                                # Deviating first saturation: step its own
                                # bank in place.
                                nf += 1
                                l2_encoded[z] += 1
                                bz = l2_words[z]
                                bwz = bz[w]
                                stz = (
                                    (bwz >> off) | (bwz << inv)
                                ) & window_all
                                nxt2 = s1[stz][b2l[a]]
                                if nxt2 < sen:
                                    stz = nxt2
                                else:
                                    eap(a)
                                    ezap(z)
                                    ez2ap(nxt2 - sen)
                                    stz = 0
                                bz[w] = (bwz & ~window) | (
                                    ((stz << off) | (stz >> inv)) & word_mask
                                )
                            state = 0
                        a += 1
                    qq = a >> 2
                    end_q = b >> 2
                    if ns == 0:
                        # Scan to the stretch's first saturation: it starts
                        # from the inherited word state, so it is the only
                        # one whose noise level can differ from noise_z.
                        while qq < end_q:
                            nxt = sq[(state << 12) | qs[qq]]
                            if nxt < sen:
                                state = nxt
                                qq += 1
                                continue
                            t = nxt - sen
                            j = (qq << 2) | (t >> 11)
                            z = (t >> 8) & 7
                            ns = 1
                            bw2 = bank2[w]
                            st2 = ((bw2 >> off) | (bw2 << inv)) & window_all
                            rest2 = bw2 & ~window
                            if z == noise_z:
                                nxt2 = s1[st2][b2l[j]]
                                if nxt2 < sen:
                                    st2 = nxt2
                                else:
                                    eap(j)
                                    ezap(z)
                                    ez2ap(nxt2 - sen)
                                    st2 = 0
                            else:
                                nf = 1
                                l2_encoded[z] += 1
                                bz = l2_words[z]
                                bwz = bz[w]
                                stz = (
                                    (bwz >> off) | (bwz << inv)
                                ) & window_all
                                nxt2 = s1[stz][b2l[j]]
                                if nxt2 < sen:
                                    stz = nxt2
                                else:
                                    eap(j)
                                    ezap(z)
                                    ez2ap(nxt2 - sen)
                                    stz = 0
                                bz[w] = (bwz & ~window) | (
                                    ((stz << off) | (stz >> inv)) & word_mask
                                )
                            state = t & 255
                            qq += 1
                            break
                    end_q1 = end_q - 1
                    while qq < end_q1:
                        # Chain saturations: constant noise_z, one L2 table
                        # step on st2.  Two quad lookups per loop check.
                        nxt = sq[(state << 12) | qs[qq]]
                        if nxt < sen:
                            nxt = sq[(nxt << 12) | qs[qq + 1]]
                            if nxt < sen:
                                state = nxt
                                qq += 2
                                continue
                            qq += 1
                        t = nxt - sen
                        j = (qq << 2) | (t >> 11)
                        nxt2 = s1[st2][b2l[j]]
                        if nxt2 < sen:
                            st2 = nxt2
                        else:
                            eap(j)
                            ezap(noise_z)
                            ez2ap(nxt2 - sen)
                            st2 = 0
                        ns += 1
                        state = t & 255  # window after the in-block restart
                        qq += 1
                    if qq < end_q:
                        # Leftover quad: only reached with ns > 0 (the
                        # first-saturation scan otherwise covers it), so any
                        # saturation here is a chain one.
                        nxt = sq[(state << 12) | qs[qq]]
                        if nxt < sen:
                            state = nxt
                        else:
                            t = nxt - sen
                            j = (qq << 2) | (t >> 11)
                            nxt2 = s1[st2][b2l[j]]
                            if nxt2 < sen:
                                st2 = nxt2
                            else:
                                eap(j)
                                ezap(noise_z)
                                ez2ap(nxt2 - sen)
                                st2 = 0
                            ns += 1
                            state = t & 255
                        qq += 1
                    j = end_q << 2
                    if j < a:
                        j = a
                    for j in range(j, b):  # trailing packets
                        nxt = s1[state][b1l[j]]
                        if nxt < sen:
                            state = nxt
                            continue
                        ns += 1
                        z = nxt - sen
                        if st2 < 0:
                            bw2 = bank2[w]
                            st2 = ((bw2 >> off) | (bw2 << inv)) & window_all
                            rest2 = bw2 & ~window
                        if z == noise_z:
                            nxt2 = s1[st2][b2l[j]]
                            if nxt2 < sen:
                                st2 = nxt2
                            else:
                                eap(j)
                                ezap(z)
                                ez2ap(nxt2 - sen)
                                st2 = 0
                        else:
                            nf += 1
                            l2_encoded[z] += 1
                            bz = l2_words[z]
                            bwz = bz[w]
                            stz = ((bwz >> off) | (bwz << inv)) & window_all
                            nxt2 = s1[stz][b2l[j]]
                            if nxt2 < sen:
                                stz = nxt2
                            else:
                                eap(j)
                                ezap(z)
                                ez2ap(nxt2 - sen)
                                stz = 0
                            bz[w] = (bwz & ~window) | (
                                ((stz << off) | (stz >> inv)) & word_mask
                            )
                        state = 0
                    words_np[w] = rest | (
                        ((state << off) | (state >> inv)) & word_mask
                    )
                    if st2 >= 0:
                        bank2[w] = rest2 | (
                            ((st2 << off) | (st2 >> inv)) & word_mask
                        )
                        l2_encoded[noise_z] += ns - nf
                    return ns

            else:
                stream = sorted_code.tobytes()
                b2_of = tables.b2_of_code
                pairs = len(sorted_b1) >> 1
                pair_stream = (
                    sorted_b1[: 2 * pairs : 2]
                    | (sorted_b1[1 : 2 * pairs : 2] << 3)
                ).tobytes()
                pair_or = (
                    bit_stream[: 2 * pairs : 2] | bit_stream[1 : 2 * pairs : 2]
                )
                quads = pairs >> 1
                quad_or = (
                    pair_or[: 2 * quads : 2] | pair_or[1 : 2 * quads : 2]
                ).tobytes()

                def replay(sid):
                    # Pair-table replay for saturation_bits < 4 (a quad
                    # block could saturate more than once there).
                    s1 = step1
                    sp = step_pair
                    sen = sentinel
                    w = words_l[sid]
                    off = offs_l[sid]
                    a = starts_l[sid]
                    b = ends_l[sid]
                    word = int(words_np[w])
                    window = window_masks[off]
                    inv = word_bits - off
                    state = ((word >> off) | (word << inv)) & window_all
                    rest = word & ~window
                    l2_states = None
                    nsat = 0
                    if a & 1:  # align the stretch to the packet-pair stream
                        c0 = stream[a]
                        nxt = s1[state][c0 - b2_of[c0] * vector_bits]
                        if nxt < sen:
                            state = nxt
                        else:
                            z = nxt - sen
                            if l2_states is None:
                                l2_states = [
                                    (
                                        (l2_words[q][w] >> off)
                                        | (l2_words[q][w] << inv)
                                    )
                                    & window_all
                                    for q in range(num_banks)
                                ]
                            nxt2 = s1[l2_states[z]][b2_of[c0]]
                            l2_encoded[z] += 1
                            if nxt2 >= sen:
                                event_pos.append(a)
                                event_z.append(z)
                                event_z2.append(nxt2 - sen)
                                l2_states[z] = 0
                            else:
                                l2_states[z] = nxt2
                            nsat += 1
                            state = 0
                        a += 1
                    pair_end = b - ((b - a) & 1)
                    jj = a >> 1
                    end_jj = pair_end >> 1
                    while jj < end_jj:
                        if not jj & 1 and jj + 2 <= end_jj:
                            candidate = state | quad_or[jj >> 1]
                            if popcount[candidate] < sat_bits:
                                state = candidate
                                jj += 2
                                continue
                        pb = pair_stream[jj]
                        nxt = sp[state][pb]
                        if nxt < sen:
                            state = nxt
                            jj += 1
                            continue
                        tag = nxt - sen
                        pos = tag >> 3
                        z = tag & 7
                        j = (jj << 1) | pos
                        if l2_states is None:
                            l2_states = [
                                ((l2_words[q][w] >> off) | (l2_words[q][w] << inv))
                                & window_all
                                for q in range(num_banks)
                            ]
                        nxt2 = s1[l2_states[z]][b2_of[stream[j]]]
                        l2_encoded[z] += 1
                        if nxt2 >= sen:
                            event_pos.append(j)
                            event_z.append(z)
                            event_z2.append(nxt2 - sen)
                            l2_states[z] = 0
                        else:
                            l2_states[z] = nxt2
                        nsat += 1
                        if pos:
                            state = 0
                        else:
                            # The pair's second packet restarts the window.
                            nxt = step1_empty[pb >> 3]
                            if nxt < sen:
                                state = nxt
                            else:
                                z = nxt - sen
                                j += 1
                                nxt2 = s1[l2_states[z]][b2_of[stream[j]]]
                                l2_encoded[z] += 1
                                if nxt2 >= sen:
                                    event_pos.append(j)
                                    event_z.append(z)
                                    event_z2.append(nxt2 - sen)
                                    l2_states[z] = 0
                                else:
                                    l2_states[z] = nxt2
                                nsat += 1
                                state = 0
                        jj += 1
                    if pair_end < b:  # odd trailing packet
                        c0 = stream[pair_end]
                        nxt = s1[state][c0 - b2_of[c0] * vector_bits]
                        if nxt < sen:
                            state = nxt
                        else:
                            z = nxt - sen
                            if l2_states is None:
                                l2_states = [
                                    (
                                        (l2_words[q][w] >> off)
                                        | (l2_words[q][w] << inv)
                                    )
                                    & window_all
                                    for q in range(num_banks)
                                ]
                            nxt2 = s1[l2_states[z]][b2_of[c0]]
                            l2_encoded[z] += 1
                            if nxt2 >= sen:
                                event_pos.append(pair_end)
                                event_z.append(z)
                                event_z2.append(nxt2 - sen)
                                l2_states[z] = 0
                            else:
                                l2_states[z] = nxt2
                            nsat += 1
                            state = 0
                    words_np[w] = rest | (
                        ((state << off) | (state >> inv)) & word_mask
                    )
                    if l2_states is not None:
                        for q in range(num_banks):
                            bank_word = l2_words[q][w]
                            bank_state = l2_states[q]
                            l2_words[q][w] = (bank_word & ~window) | (
                                ((bank_state << off) | (bank_state >> inv))
                                & word_mask
                            )
                    return nsat

            # Screening rounds: one stretch per failed word per round,
            # screened against the live word states and committed as an
            # array scatter.  Per-word stretch order is preserved (the
            # pointer only advances after the stretch committed or
            # replayed); cross-word order is free because words are
            # independent and events are re-sorted by packet position
            # before delegation.  A failing one-packet stretch saturates
            # at its packet, so those lanes commit as arrays as well
            # (_saturate_single_packets); multi-packet stretches replay.
            fail_runs = np.flatnonzero(~word_ok)
            ptr = word_run_starts[fail_runs].copy()
            run_end = ptr + word_run_lengths[fail_runs]
            run_wid = word_run_heads[fail_runs]
            active = np.arange(fail_runs.size)
            single = layout["single"]
            b2_np = np.frombuffer(b2s, dtype=np.uint8)
            while active.size > 32:
                sidx = ptr[active]
                wids = run_wid[active]
                cand = words_np[wids] | rotated_or_np[sidx]
                fill = np.bitwise_count(cand & stretch_windows[sidx])
                okv = fill < sat_bits
                words_np[wids[okv]] = cand[okv]
                failed = okv.size - np.count_nonzero(okv)
                if failed:
                    fail = ~okv
                    # ``failed`` bounds the one-packet lanes from above.
                    if failed >= _ARRAY_SINGLES_MIN:
                        one = fail & single[sidx]
                        if np.count_nonzero(one) >= _ARRAY_SINGLES_MIN:
                            *events, encoded = _saturate_single_packets(
                                sidx[one],
                                wids[one],
                                cand[one],
                                fill[one],
                                words_np,
                                l2_words,
                                layout,
                                stretch_windows,
                                b2_np,
                                vector_bits,
                                word_bits,
                                sat_bits,
                            )
                            for column, values in zip(
                                (event_pos, event_z, event_z2), events
                            ):
                                column.extend(values.tolist())
                            l1_saturations += int(encoded.sum())
                            for z, count in enumerate(encoded.tolist()):
                                l2_encoded[z] += count
                            fail &= ~one
                    for sid in sidx[fail].tolist():
                        l1_saturations += replay(sid)
                ptr[active] += 1
                active = active[ptr[active] < run_end[active]]
            # Tail: few enough runs left that scalar screening beats the
            # per-round array overhead.
            for r in active.tolist():
                w = int(run_wid[r])
                word = int(words_np[w])
                for sid in range(int(ptr[r]), int(run_end[r])):
                    window = window_masks[offs_l[sid]]
                    candidate = word | int(rotated_or_np[sid])
                    if (candidate & window).bit_count() < sat_bits:
                        word = candidate
                    else:
                        words_np[w] = word
                        l1_saturations += replay(sid)
                        word = int(words_np[w])
                words_np[w] = word

            # Every L2 saturation is one event.
            for z in event_z:
                l2_saturated[z] += 1

        words[:] = words_np.tolist()

        if event_pos:
            # One delegated batch per chunk, in original packet order; the
            # batch-probed table groups it by flow key internally.
            _delegate_chunk_events(
                np.array(event_pos, dtype=np.int64),
                np.array(event_z, dtype=np.int64),
                np.array(event_z2, dtype=np.int64),
                order,
                flow_ids,
                trace.flows,
                timestamps,
                sizes,
                decode_np,
                wsaf,
                wsaf_arrays,
                on_accumulate,
            )
            insertions += len(event_pos)

    counters.l1_saturations = l1_saturations
    counters.insertions = insertions
    return counters

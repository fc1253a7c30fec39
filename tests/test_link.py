"""Frame codec, bit decisions, sampling, arbitration, retransmission."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canvolt.attacks import ForcedRetransmission, fra_ack_delimiter_corrupted
from canvolt.electrical import TAU_RC_DEFAULT, time_to_reach
from canvolt.engine import EcuSpec, ScenarioConfig, run_scenario
from canvolt.link import (
    DOMINANT_THRESHOLD,
    HOLD_SLOP,
    BitDecision,
    BitTiming,
    CrcError,
    DecodeError,
    FormError,
    Frame,
    IdCollision,
    StuffError,
    ack_delimiter_index,
    ack_slot_index,
    arbitrate,
    bus_bits,
    crc15,
    decode_bitstream,
    dominant_to_recessive_transitions,
    encode_frame,
    frame_bit_length,
    frame_body_bits,
    reads_driven,
    sample_bit,
    stuff_bits,
)

DOM, REC = BitDecision.DOMINANT, BitDecision.RECESSIVE

CANONICAL = Frame(id=0x01, data=bytes([0x01]))


def crc15_reference(bits):
    """Independent oracle: polynomial long division over GF(2) integers."""
    poly = 0x4599 | (1 << 15)
    value = 0
    for b in bits:
        value = (value << 1) | b
    value <<= 15
    width = len(bits) + 15
    for shift in range(width - 16, -1, -1):
        if value >> (shift + 15) & 1:
            value ^= poly << shift
    return value


@pytest.mark.parametrize(
    "frame",
    [
        CANONICAL,
        Frame(id=0x000, data=b""),
        Frame(id=0x7FF, data=bytes(range(8))),
        Frame(id=0x555, data=b"\xff\x00\xff"),
    ],
)
def test_crc_matches_long_division(frame):
    body = frame_body_bits(frame)
    assert crc15(body) == crc15_reference(body)


def test_crc_distinguishes_frames():
    a = crc15(frame_body_bits(Frame(id=1, data=b"\x01")))
    b = crc15(frame_body_bits(Frame(id=1, data=b"\x02")))
    assert a != b


def test_unstuffed_field_count_for_canonical_frame():
    # 1 + 11 + 1 + 1 + 1 + 4 + 8 + 15 + 1 + 1 + 1 + 7
    assert len(frame_body_bits(CANONICAL)) + 15 + 10 == 52


def test_stuffing_inserts_after_five_equal():
    assert stuff_bits([0, 0, 0, 0, 0, 0]) == [0, 0, 0, 0, 0, 1, 0]
    assert stuff_bits([1, 1, 1, 1, 1]) == [1, 1, 1, 1, 1, 0]
    assert stuff_bits([0, 1, 0, 1]) == [0, 1, 0, 1]


def test_no_six_equal_bits_in_any_stuffed_stream():
    rng = random.Random(11)
    for _ in range(500):
        f = Frame(
            id=rng.randrange(2048),
            data=bytes(rng.randrange(256) for _ in range(rng.randrange(9))),
        )
        bits = encode_frame(f)
        stuffed_region = bits[: len(bits) - 10]
        run, prev = 0, None
        for b in stuffed_region:
            run = run + 1 if b == prev else 1
            prev = b
            assert run <= 5


def test_roundtrip_canonical():
    assert decode_bitstream(encode_frame(CANONICAL)) == CANONICAL


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2047),
    st.binary(min_size=0, max_size=8),
)
def test_roundtrip_random_frames(frame_id, data):
    f = Frame(id=frame_id, data=data)
    assert decode_bitstream(encode_frame(f)) == f


def test_an_encoding_is_a_fresh_list_each_call():
    """The codec is kept per frame; a caller's edit must not reach the next caller."""
    f = Frame(id=0x2A5, data=b"\x00\xff")
    first = encode_frame(f)
    first[0] = 1  # SOF
    acked = bus_bits(f)
    acked[-1] = 0  # the last EOF bit
    assert decode_bitstream(encode_frame(f)) == decode_bitstream(bus_bits(f)) == f


def test_decode_accepts_acked_stream():
    assert decode_bitstream(bus_bits(CANONICAL)) == CANONICAL


def test_every_single_bit_flip_is_detected():
    bits = encode_frame(CANONICAL)
    ack = ack_slot_index(CANONICAL)
    for i in range(len(bits)):
        if i == ack:
            continue  # flipping the ACK slot just acknowledges the frame
        mutated = list(bits)
        mutated[i] ^= 1
        with pytest.raises(DecodeError):
            decode_bitstream(mutated)


def test_dominant_ack_delimiter_is_a_form_error():
    bits = encode_frame(CANONICAL)
    bits[ack_delimiter_index(CANONICAL)] = 0
    with pytest.raises(FormError):
        decode_bitstream(bits)


def test_dominant_eof_is_a_form_error():
    bits = encode_frame(CANONICAL)
    bits[-1] = 0
    with pytest.raises(FormError):
        decode_bitstream(bits)


def test_six_equal_bits_is_a_stuff_error():
    bits = encode_frame(CANONICAL)
    # SOF plus four ID zeros then the stuff bit; forcing it dominant
    # makes six equal bits
    assert bits[:6] == [0, 0, 0, 0, 0, 1]
    bits[5] = 0
    with pytest.raises(StuffError):
        decode_bitstream(bits)


def test_corrupted_payload_is_a_crc_error():
    bits = encode_frame(CANONICAL)
    # flip two data-region bits so stuffing stays legal
    bits[30] ^= 1
    try:
        decode_bitstream(bits)
    except (CrcError, StuffError, FormError):
        pass
    else:
        pytest.fail("corruption escaped the decoder")


def test_transition_count_through_data_field():
    stuffed_body = stuff_bits(frame_body_bits(CANONICAL))
    assert dominant_to_recessive_transitions(stuffed_body) == 7


def test_transition_count_full_frame_is_frozen():
    # the full acked frame adds CRC, delimiter, and ACK transitions on
    # top of the seven in the id/data region
    assert dominant_to_recessive_transitions(bus_bits(CANONICAL)) == 13


def read(pieces, driven, entry=REC, timing=None):
    """Decision for one bit of (start, end, v_diff) pieces starting at 0."""
    timing = timing or BitTiming()
    decision, _ = sample_bit(pieces, driven, timing, (entry, -timing.bit_time))
    return decision


def flat(v):
    return [(0.0, BitTiming().bit_time, v)]


def test_sample_bit_hold_band_thresholds():
    # engage at 0.9 V, release below 0.9 - 0.15 = 0.75 V, hold in between
    assert read(flat(2.0), REC, entry=REC) is DOM
    assert read(flat(0.0), DOM, entry=DOM) is REC
    assert read(flat(0.8), REC, entry=DOM) is DOM
    assert read(flat(0.8), DOM, entry=REC) is REC
    assert read(flat(0.7), REC, entry=DOM) is REC
    assert read(flat(DOMINANT_THRESHOLD), REC, entry=REC) is DOM


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-1.0, max_value=6.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_sample_bit_monotone_in_v_diff(v, bump):
    for entry in BitDecision:
        for driven in BitDecision:
            low = read(flat(v), driven, entry)
            high = read(flat(v + bump), driven, entry)
            if low is DOM:
                assert high is DOM


def test_bit_timing_rejects_hysteresis_outside_the_comparator_range():
    for bad in (-0.5, -1e-9, DOMINANT_THRESHOLD, 1.0):
        with pytest.raises(ValueError, match="hysteresis"):
            BitTiming(hysteresis=bad)
    assert BitTiming(hysteresis=0.0).hysteresis == 0.0


def test_arbitration_lowest_id_wins():
    a, b = Frame(id=0x010), Frame(id=0x001)
    assert arbitrate([a, b]) == b
    assert arbitrate([b, a]) == b
    assert arbitrate([Frame(id=0x7FF), Frame(id=0x000)]).id == 0
    assert arbitrate([a]) == a


def test_arbitration_rejects_duplicate_ids():
    with pytest.raises(IdCollision):
        arbitrate([Frame(id=5), Frame(id=5, data=b"\x01")])
    with pytest.raises(ValueError):
        arbitrate([])


def test_arbitration_order_invariant():
    rng = random.Random(3)
    frames = [Frame(id=i) for i in rng.sample(range(2048), 20)]
    winner = arbitrate(frames)
    for _ in range(10):
        rng.shuffle(frames)
        assert arbitrate(frames) == winner


def _fra_recovery(v_attack_h, timing=BitTiming()):
    """The recessive bit after a dominant one while CANH is held at
    v_attack_h: v_diff decays from v_attack_h - 1.5 V with TAU_RC_DEFAULT,
    cut where it crosses the comparator's two levels."""
    v0 = v_attack_h - 1.5
    release = DOMINANT_THRESHOLD - timing.hysteresis
    t_engage = time_to_reach(v0, 0.0, TAU_RC_DEFAULT, DOMINANT_THRESHOLD)
    t_release = time_to_reach(v0, 0.0, TAU_RC_DEFAULT, release)
    in_band = 0.5 * (DOMINANT_THRESHOLD + release)
    return [(0.0, t_engage, v0), (t_engage, t_release, in_band), (t_release, timing.bit_time, 0.0)]


def test_sample_bit_clean_levels():
    # a clean level reads as itself whatever was driven
    for driven in BitDecision:
        assert read(flat(2.0), driven, entry=REC) is DOM
        assert read(flat(0.0), driven, entry=DOM) is REC


def test_sample_bit_stretched_recovery_reads_dominant_at_five_volts():
    assert read(_fra_recovery(5.0), REC, entry=DOM) is DOM
    assert read(_fra_recovery(4.5), REC, entry=DOM) is DOM


def test_sample_bit_recovery_at_four_volts_reads_recessive():
    assert read(_fra_recovery(4.0), REC, entry=DOM) is REC


def test_sample_bit_recovery_agrees_with_the_fra_predictor():
    for v in (3.5, 4.0, 4.5, 5.0):
        stretched = read(_fra_recovery(v), REC, entry=DOM) is DOM
        assert stretched == fra_ack_delimiter_corrupted(v), v


def test_sample_bit_carries_the_comparator_across_bits():
    timing = BitTiming()
    pieces = _fra_recovery(5.0)
    _, comparator = sample_bit(pieces, REC, timing, (DOM, -timing.bit_time))
    assert comparator == (REC, pieces[2][0])
    # a comparator still engaged from the previous bit reads a bit in the
    # hold band as dominant
    bt = timing.bit_time
    _, engaged = sample_bit(flat(2.0), DOM, timing, (REC, -bt))
    assert sample_bit([(bt, 2 * bt, 0.8)], REC, timing, engaged)[0] is DOM


def test_sample_bit_ignores_short_transients():
    bt = BitTiming().bit_time

    def glitch(start, width):
        return [(0.0, start, 0.0), (start, start + width, 2.0), (start + width, bt, 0.0)]

    # a 200 ns dominant burst inside a recessive bit stays invisible, also
    # over the sample point at 0.718 us; one longer than the 340 ns hold reads
    assert read(glitch(0.9e-6, 200e-9), REC) is REC
    assert read(glitch(0.6e-6, 200e-9), REC) is REC
    assert read(glitch(0.6e-6, 400e-9), REC) is DOM


def test_sample_bit_transition_extension_on_dominant_bits():
    # a 300 ns recessive dip over the sample point reads only once the
    # CANH transition extends it past the hold
    timing = BitTiming()
    bt = timing.bit_time
    dip = [(0.0, 0.5e-6, 2.0), (0.5e-6, 0.8e-6, 0.0), (0.8e-6, bt, 2.0)]
    assert sample_bit(dip, DOM, timing, (DOM, -bt))[0] is DOM
    assert sample_bit(dip, DOM, timing, (DOM, -bt), transition_extension=55e-9)[0] is REC


def phase_pieces(phases, start, bit_time):
    """One bit [0, bit_time) of v_diff cycling through (length, v_diff)
    phases, entered `start` (a fraction of the cycle) into it."""
    if len(phases) == 1:
        return [(0.0, bit_time, phases[0][1])]
    cycle = sum(length for length, _ in phases)
    t, pieces = -start * cycle, []
    while t < bit_time:
        for length, v in phases:
            if t + length > 0.0 and t < bit_time:
                pieces.append((max(t, 0.0), min(t + length, bit_time), v))
            t += length
    return pieces


HOLD = BitTiming().decode_hold
EXTENSION = 55e-9  # the desk's CANH transition extension
# the comparator's three bands: dominant, hold, recessive
V_DIFFS = (2.0, DOMINANT_THRESHOLD, 0.8, 0.75, 0.0, -0.5)


@st.composite
def phase_cycles(draw):
    """A static level, or two pulse phases; lengths reach around the hold
    with and without the extension."""
    v_diffs = st.sampled_from(V_DIFFS)
    if draw(st.booleans()):
        return ((float("inf"), draw(v_diffs)),)
    near = st.sampled_from([HOLD, HOLD - EXTENSION]).flatmap(
        lambda edge: st.floats(-2 * HOLD_SLOP, 2 * HOLD_SLOP).map(lambda d: edge + d)
    )
    lengths = st.one_of(st.floats(10e-9, 1.5e-6), near)
    return tuple((draw(lengths), draw(v_diffs)) for _ in range(2))


@settings(max_examples=400, deadline=None)
@given(
    phases=phase_cycles(),
    start=st.floats(0.0, 1.0),
    extension=st.sampled_from([0.0, EXTENSION]),
)
# a hold-band phase over the sample point, from a recessive comparator
@example(phases=((800e-9, 0.8), (800e-9, 2.0)), start=0.0, extension=0.0)
# no phase engages: the comparator never leaves the level it entered at
@example(phases=((200e-9, 0.8), (200e-9, 0.0)), start=0.0, extension=0.0)
# a masking phase just short of the hold, or of the hold less the extension
@example(phases=((HOLD - 0.5 * HOLD_SLOP, 0.0), (1e-6, 2.0)), start=0.5, extension=0.0)
@example(phases=((HOLD - EXTENSION, 0.0), (1e-6, 2.0)), start=0.5, extension=EXTENSION)
def test_reads_driven_implies_sample_bit_reads_driven(phases, start, extension):
    """Whenever the steady rule passes phases at a driven level, every bit
    cut from them reads as driven, at any start phase and from either
    comparator state."""
    timing = BitTiming()
    bt = timing.bit_time
    pieces = phase_pieces(phases, start, bt)
    for driven in BitDecision:
        if reads_driven(phases, driven, timing, extension):
            for entry in BitDecision:
                got = sample_bit(pieces, driven, timing, (entry, -bt), extension)[0]
                assert got is driven, (driven, entry, pieces)


@pytest.mark.parametrize(
    "length, extension",
    [
        (HOLD, 0.0),  # exactly the hold
        (HOLD - EXTENSION, EXTENSION),  # exactly the hold, extension included
        (HOLD - HOLD_SLOP, 0.0),  # exactly the run `sample_bit` counts as the hold
        (HOLD - EXTENSION - 0.5 * HOLD_SLOP, EXTENSION),  # inside the slop
    ],
)
def test_a_masking_phase_as_long_as_the_hold_is_not_steady(length, extension):
    """A recessive phase over the sample point that lasts the hold, as
    `sample_bit` counts it, masks a dominant bit, so the rule must fail."""
    timing = BitTiming()
    bt = timing.bit_time
    phases = ((length, 0.0), (1e-6, 2.0))
    pieces = phase_pieces(phases, 0.5, bt)
    assert sample_bit(pieces, DOM, timing, (DOM, -bt), extension)[0] is REC
    assert not reads_driven(phases, DOM, timing, extension)
    # a hair shorter, outside the slop, it passes
    shorter = ((length - 2 * HOLD_SLOP, 0.0), (1e-6, 2.0))
    assert reads_driven(shorter, DOM, timing, extension)


def test_frame_layout_indices():
    assert ack_slot_index(CANONICAL) == 47
    assert ack_delimiter_index(CANONICAL) == 48
    assert frame_bit_length(CANONICAL) == 56


# retransmission timing, read from engine traces


def _canonical_run(attack=None):
    cfg = ScenarioConfig(
        duration=1.0,
        ecus=(
            EcuSpec("A", "vids-host"),
            EcuSpec("B", "logger"),
            EcuSpec("C", "sender", period=1.0, frame=CANONICAL),
        ),
        attack=attack,
    )
    return run_scenario(cfg)


def _offsets(trace):
    """(kind, time after FrameSent) of the canonical frame's link records."""
    kinds = ("FrameSent", "ErrorFrame", "Retransmission", "FrameReceived")
    records = [r for r in trace.records if r.kind in kinds]
    return [(r.kind, r.t - records[0].t) for r in records]


def test_error_schedules_retransmission_at_132_us():
    # FRA corrupts the ACK delimiter (bit 48) of the first attempt only
    trace, summary = _canonical_run(ForcedRetransmission(t_start=0.0, t_end=1.0))
    kinds, offsets = zip(*_offsets(trace))
    assert kinds == ("FrameSent", "ErrorFrame", "Retransmission", "FrameReceived")
    bt = BitTiming().bit_time
    assert offsets[1] == pytest.approx((ack_delimiter_index(CANONICAL) + 1) * bt, rel=1e-9)
    assert offsets[1] == pytest.approx(98e-6, rel=1e-9)
    assert offsets[2] == pytest.approx(132e-6, rel=1e-9)
    # still queued until the clean delivery of the retry
    assert offsets[3] == pytest.approx(132e-6 + frame_bit_length(CANONICAL) * bt, rel=1e-9)
    assert summary.retransmissions == 1
    assert summary.messages_received == 1


def test_success_without_error_keeps_no_retransmissions():
    trace, summary = _canonical_run()
    assert _offsets(trace) == [
        ("FrameSent", 0.0),
        ("FrameReceived", pytest.approx(112e-6, rel=1e-9)),
    ]
    assert summary.retransmissions == 0


def test_abort_to_retry_gap_close_to_thirty_microseconds():
    # after the error frame starts: 6 flag, 8 delimiter, 3 intermission bits
    trace, _ = _canonical_run(ForcedRetransmission(t_start=0.0, t_end=1.0))
    error = trace.of_kind("ErrorFrame")[0]
    retry = trace.of_kind("Retransmission")[0]
    assert retry.t - error.t == pytest.approx(17 * BitTiming().bit_time, rel=1e-9)
    assert retry.t - error.t == pytest.approx(34e-6, rel=1e-9)

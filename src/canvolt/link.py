"""CAN 2.0A data-link layer.

Frame codec with bit stuffing and CRC-15, the receiver's bit decision
over piecewise-constant line voltages, and arbitration. Bits are ints:
0 is dominant, 1 is recessive. Error frames and retransmission timing
live in the scenario engine, which owns the timeline.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

CRC_POLY = 0x4599
DOMINANT_THRESHOLD = 0.9  # the receiver comparator engages dominant at this v_diff
HOLD_SLOP = 1e-12  # float noise a comparator run may lack and still last decode_hold

ERROR_FLAG_BITS = 6
ERROR_DELIMITER_BITS = 8
INTERMISSION_BITS = 3


class DecodeError(ValueError):
    """Base for bitstream decode failures."""


class StuffError(DecodeError):
    """Six equal consecutive bits inside the stuffed region."""


class CrcError(DecodeError):
    """CRC-15 mismatch."""


class FormError(DecodeError):
    """Dominant level in a fixed-form recessive field."""


class IdCollision(ValueError):
    """Two arbitration contenders share an identifier."""


@dataclass(frozen=True)
class Frame:
    """11-bit identifier data frame."""

    id: int
    data: bytes = b""
    rtr: bool = False

    def __post_init__(self):
        if not 0 <= self.id < 2048:
            raise ValueError(f"frame id {self.id:#x} outside 11 bits")
        if len(self.data) > 8:
            raise ValueError(f"data length {len(self.data)} exceeds 8 bytes")
        object.__setattr__(self, "data", bytes(self.data))

    @property
    def dlc(self) -> int:
        return len(self.data)


class BitDecision(enum.Enum):
    DOMINANT = 0
    RECESSIVE = 1


@dataclass(frozen=True)
class BitTiming:
    """Receiver timing and threshold parameters."""

    bus_speed: float = 500_000.0
    sample_point: float = 0.359
    decode_hold: float = 340e-9
    hysteresis: float = 0.15

    def __post_init__(self):
        if self.bus_speed <= 0.0:
            raise ValueError("bus_speed must be positive")
        if not 0.0 < self.sample_point < 1.0:
            raise ValueError(f"sample_point {self.sample_point!r} outside (0, 1)")
        if self.decode_hold <= 0.0:
            raise ValueError("decode_hold must be positive")
        # the comparator releases at DOMINANT_THRESHOLD - hysteresis
        if not 0.0 <= self.hysteresis < DOMINANT_THRESHOLD:
            raise ValueError(
                f"hysteresis {self.hysteresis!r} outside [0, {DOMINANT_THRESHOLD})"
            )

    @property
    def bit_time(self) -> float:
        return 1.0 / self.bus_speed

    @property
    def release(self) -> float:
        """The v_diff below which the comparator releases to recessive."""
        return DOMINANT_THRESHOLD - self.hysteresis


def crc15(bits: Iterable[int]) -> int:
    """CRC-15 over a bit sequence, MSB first, poly 0x4599, init 0."""
    crc = 0
    for b in bits:
        crcnxt = b ^ ((crc >> 14) & 1)
        crc = (crc << 1) & 0x7FFF
        if crcnxt:
            crc ^= CRC_POLY
    return crc


def _int_bits(value: int, width: int) -> list:
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def frame_body_bits(f: Frame) -> list:
    """Unstuffed SOF-through-data bits (the CRC input)."""
    bits = [0]
    bits += _int_bits(f.id, 11)
    bits.append(1 if f.rtr else 0)
    bits.append(0)  # IDE: standard frame
    bits.append(0)  # r0
    bits += _int_bits(f.dlc, 4)
    for byte in f.data:
        bits += _int_bits(byte, 8)
    return bits


def stuff_bits(bits: Sequence[int]) -> list:
    """Insert a complement bit after every run of five equal bits."""
    out: list = []
    run = 0
    prev = None
    for b in bits:
        out.append(b)
        run = run + 1 if b == prev else 1
        prev = b
        if run == 5:
            out.append(1 - b)
            prev = 1 - b
            run = 1
    return out


@functools.lru_cache(maxsize=1024)
def _stuffed(f: Frame) -> tuple:
    """Stuffed body+CRC bits, encoded once per frame per process."""
    body = frame_body_bits(f)
    return tuple(stuff_bits(body + _int_bits(crc15(body), 15)))


def encode_frame(f: Frame) -> list:
    """Transmitted bitstream: stuffed body+CRC, then the fixed-form tail.

    The ACK slot is recessive as transmitted; a receiver overwrites it
    with a dominant level on the wire. Each call returns a fresh list.
    """
    # CRC delimiter, ACK slot, ACK delimiter, 7 EOF bits
    return list(_stuffed(f)) + [1, 1, 1] + [1] * 7


def bus_bits(f: Frame) -> list:
    """On-wire bitstream, with the ACK slot driven dominant by a receiver."""
    bits = encode_frame(f)
    bits[ack_slot_index(f)] = 0
    return bits


def stuffed_body_length(f: Frame) -> int:
    return len(_stuffed(f))


def ack_slot_index(f: Frame) -> int:
    return stuffed_body_length(f) + 1


def ack_delimiter_index(f: Frame) -> int:
    return stuffed_body_length(f) + 2


def frame_bit_length(f: Frame) -> int:
    return stuffed_body_length(f) + 3 + 7


def dominant_to_recessive_transitions(bits: Sequence[int]) -> int:
    return sum(1 for a, b in zip(bits, bits[1:]) if a == 0 and b == 1)


def _destuff(bits: Sequence[int], count: int) -> tuple:
    """Unstuff the first `count` payload bits; returns (payload, next_index).

    A sixth equal bit raises StuffError. A trailing stuff bit right
    after the last payload bit is consumed too, since the encoder
    inserts one when the region ends on a run of five.
    """
    out: list = []
    run = 0
    prev = None
    i = 0
    while len(out) < count:
        if i >= len(bits):
            raise FormError("bitstream truncated inside the stuffed region")
        b = bits[i]
        if run == 5:
            if b == prev:
                raise StuffError(f"six equal bits ending at stuffed index {i}")
            prev = b
            run = 1
            i += 1
            continue
        run = run + 1 if b == prev else 1
        prev = b
        out.append(b)
        i += 1
    if run == 5 and i < len(bits):
        if bits[i] == prev:
            raise StuffError(f"six equal bits ending at stuffed index {i}")
        i += 1
    return out, i


_HEADER_BITS = 19  # SOF + ID(11) + RTR + IDE + r0 + DLC(4)


def decode_bitstream(bits: Sequence[int]) -> Frame:
    """Inverse of encode_frame; validates stuffing, CRC, and form bits."""
    if not bits:
        raise FormError("empty bitstream")
    if bits[0] != 0:
        raise FormError("missing dominant SOF")

    header, _ = _destuff(bits, _HEADER_BITS)
    frame_id = int("".join(map(str, header[1:12])), 2)
    rtr = bool(header[12])
    if header[13] != 0:
        raise FormError("IDE must be dominant for an 11-bit frame")
    dlc = int("".join(map(str, header[15:19])), 2)
    if dlc > 8:
        raise FormError(f"DLC {dlc} exceeds 8")

    payload, used = _destuff(bits, _HEADER_BITS + 8 * dlc + 15)
    data_bits = payload[_HEADER_BITS:_HEADER_BITS + 8 * dlc]
    crc_bits = payload[_HEADER_BITS + 8 * dlc:]
    data = bytes(
        int("".join(map(str, data_bits[i:i + 8])), 2) for i in range(0, 8 * dlc, 8)
    )

    body = payload[:_HEADER_BITS + 8 * dlc]
    if crc15(body) != int("".join(map(str, crc_bits)), 2):
        raise CrcError("CRC-15 mismatch")

    tail = bits[used:]
    if len(tail) < 10:
        raise FormError("bitstream truncated in the frame tail")
    if tail[0] != 1:
        raise FormError("dominant CRC delimiter")
    # tail[1] is the ACK slot: dominant (acked) or recessive both valid
    if tail[2] != 1:
        raise FormError("dominant ACK delimiter")
    if any(b != 1 for b in tail[3:10]):
        raise FormError("dominant bit inside EOF")

    frame = Frame(id=frame_id, data=data, rtr=rtr)
    if frame.dlc != dlc:
        raise FormError("DLC does not match the data field length")
    return frame


def arbitrate(contenders: Sequence[Frame]) -> Frame:
    """Lowest identifier wins bus access."""
    if not contenders:
        raise ValueError("arbitration requires at least one contender")
    ids = [f.id for f in contenders]
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise IdCollision(f"duplicate arbitration id {dup:#x}")
    return min(contenders, key=lambda f: f.id)


def sample_bit(
    pieces: Sequence[tuple],
    driven: BitDecision,
    timing: BitTiming,
    comparator: tuple,
    transition_extension: float = 0.0,
) -> tuple:
    """Controller decision for one bit of piecewise-constant v_diff.

    pieces are the bit's contiguous (start, end, v_diff) spans. The
    receiver comparator engages dominant at v_diff >= DOMINANT_THRESHOLD,
    releases below `timing.release` and holds in between;
    `comparator` is its (level, since) state when the bit starts.

    The bit reads its driven level unless a comparator run at the other
    level covers the sample point and lasts at least decode_hold; time
    before the bit belongs to the previous bit. On a dominant bit a
    recessive run counts transition_extension longer: the line transition
    that follows a CANH pulse's low phase. HOLD_SLOP (1 ps) absorbs float
    noise in absolute-time differences.

    Returns (decision, comparator state at the bit's end).
    """
    release = timing.release
    level, since = comparator
    runs = []
    for start, _, v in pieces:
        new = (
            BitDecision.DOMINANT
            if v >= DOMINANT_THRESHOLD
            else BitDecision.RECESSIVE
            if v < release
            else level
        )
        if new is not level:
            runs.append((since, start, level))
            level, since = new, start
    bit_start, bit_end = pieces[0][0], pieces[-1][1]
    runs.append((since, bit_end, level))

    t_sample = bit_start + timing.sample_point * timing.bit_time
    extension = transition_extension if driven is BitDecision.DOMINANT else 0.0
    decision = driven
    for start, end, state in runs:
        if state is driven:
            continue
        start = max(start, bit_start)
        end = end + extension
        if start <= t_sample < end and end - start >= timing.decode_hold - HOLD_SLOP:
            decision = state
            break
    return decision, (level, since)


def reads_driven(
    phases: Sequence[tuple],
    driven: BitDecision,
    timing: BitTiming,
    transition_extension: float = 0.0,
    slop: float = 0.0,
) -> bool:
    """Whether `sample_bit` reads every bit of a v_diff that cycles
    through `phases` as driven, at any start phase and from either
    comparator state.

    phases are (length, v_diff): one phase of infinite length for a
    static level, or a pulse's high and low phase. It does when at least
    one phase reads as the driven level from either comparator state
    (the hold band does not), and every other phase is shorter than
    decode_hold. Such a phase counts transition_extension longer on a
    dominant bit, and HOLD_SLOP plus `slop` longer for float noise in
    the pieces' ends. With at most two phases, each other phase lies
    between driven ones, so a comparator run at the other level spans at
    most one of them and never lasts the hold.
    """
    if driven is BitDecision.DOMINANT:
        engaged = [v >= DOMINANT_THRESHOLD for _, v in phases]
    else:
        engaged = [v < timing.release for _, v in phases]
        transition_extension = 0.0
    margin = timing.decode_hold - transition_extension - HOLD_SLOP - slop
    return any(engaged) and all(e or length < margin for (length, _), e in zip(phases, engaged))

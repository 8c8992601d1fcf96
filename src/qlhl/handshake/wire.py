"""Length-prefixed wire codec for the eight handshake messages.

Framing: one type byte (1..8), a 4-byte big-endian payload length, then
the payload. The payload is a sequence of fields, each its own 4-byte
big-endian length followed by that many bytes. Decoding is strict; any
byte that does not tile exactly is an error, so a single flipped length
bit cannot reframe a message silently.

FIELDS gives each message's payload field kinds in wire order: "kem" (a
KEM key or ciphertext, or a certificate, which is a KEM public key),
"nonce", "id" (a QKD block id), "seed" (a public extraction seed) and
"tag" (a finish tag). A receiver sizes every field from this table.
SEED_FIELD_INDEX, derived from it, gives the position of the seed field
in the messages that carry one. The "core" form of a message replaces
that field with an empty one: seed sizes depend on the transcript, and
the transcript fed to the extractor is built from core forms so the
sizes are known before any seed is drawn. MACs and the PRF contexts bind
the full wire bytes, seeds included.
"""

from __future__ import annotations

from typing import Sequence

from ..bits import BitString

# message index -> payload field kinds in wire order
FIELDS = {1: ("kem", "nonce"), 2: ("kem", "id", "nonce", "seed"),
          3: ("kem",), 4: ("kem", "seed"), 5: ("kem",), 6: ("kem", "seed"),
          7: ("tag", "seed"), 8: ("tag",)}
MESSAGE_COUNT = len(FIELDS)

# message index -> 0-based payload field carrying a seed
SEED_FIELD_INDEX = {index: kinds.index("seed")
                    for index, kinds in FIELDS.items() if "seed" in kinds}


class WireError(ValueError):
    """Malformed framing or field structure."""


def encode_message(msg_type: int, fields: Sequence[bytes]) -> bytes:
    """Frame a message from its payload fields."""
    if not 1 <= msg_type <= MESSAGE_COUNT:
        raise WireError(f"message type must be 1..{MESSAGE_COUNT}, "
                        f"got {msg_type}")
    payload = b"".join(len(f).to_bytes(4, "big") + f for f in fields)
    return bytes([msg_type]) + len(payload).to_bytes(4, "big") + payload


def decode_message(data: bytes) -> tuple[int, list[bytes]]:
    """Parse a framed message, validating every length exactly."""
    if len(data) < 5:
        raise WireError("message shorter than its header")
    msg_type = data[0]
    if not 1 <= msg_type <= MESSAGE_COUNT:
        raise WireError(f"unknown message type {msg_type}")
    payload_len = int.from_bytes(data[1:5], "big")
    if len(data) != 5 + payload_len:
        raise WireError(f"payload length {payload_len} disagrees with "
                        f"{len(data) - 5} bytes on the wire")
    fields = []
    pos = 5
    while pos < len(data):
        if pos + 4 > len(data):
            raise WireError("truncated field length")
        flen = int.from_bytes(data[pos:pos + 4], "big")
        pos += 4
        if pos + flen > len(data):
            raise WireError("field overruns payload")
        fields.append(data[pos:pos + flen])
        pos += flen
    return msg_type, fields


def core_form(msg_type: int, fields: Sequence[bytes]) -> bytes:
    """Encode a message with its seed field (if any) emptied."""
    idx = SEED_FIELD_INDEX.get(msg_type)
    if idx is None:
        return encode_message(msg_type, fields)
    if idx >= len(fields):
        raise WireError(f"message {msg_type} lacks its seed field {idx}")
    stripped = list(fields)
    stripped[idx] = b""
    return encode_message(msg_type, stripped)


def core_of_wire(data: bytes) -> bytes:
    """Core form computed straight from wire bytes."""
    msg_type, fields = decode_message(data)
    return core_form(msg_type, fields)


def field_to_bits(data: bytes, nbits: int) -> BitString:
    """Decode a field holding exactly nbits, rejecting slack.

    Bit fields are packed most-significant-bit first with zero padding
    in the final byte; nonzero padding or a wrong byte count is a
    framing error, so no tampered bit can hide in the padding.
    """
    if len(data) != (nbits + 7) // 8:
        raise WireError(f"field holds {len(data)} bytes, expected "
                        f"{(nbits + 7) // 8} for {nbits} bits")
    rem = nbits % 8
    if rem and data and data[-1] & ((1 << (8 - rem)) - 1):
        raise WireError("nonzero padding bits in bit field")
    return BitString.from_bytes(data, length=nbits)

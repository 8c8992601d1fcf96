"""Stand-in cryptographic providers for handshake simulation.

The KEM is a toy built from BLAKE2b: deterministic, correct, and fast,
with real key-agreement shape (keypair, encapsulate, decapsulate) but no
security claim. The QKD store hands out pre-shared blocks under 8-byte
big-endian counter identifiers. The PRF expands a shared secret into a
fixed-size bit string via keyed BLAKE2b in counter mode; everything
derived through it is computationally secure only, and the session
accounting treats it that way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..bits import BitString
from ..ledger import EntropyKind, SecurityLevel, SourceSpec


class UnknownQkdIdError(KeyError):
    """Identifier names no unused block in the QKD store."""


def _h(tag: bytes, *parts: bytes, digest_size: int = 32) -> bytes:
    h = hashlib.blake2b(digest_size=digest_size, person=tag[:16])
    for p in parts:
        h.update(len(p).to_bytes(4, "big"))
        h.update(p)
    return h.digest()


def _xor(a: bytes, b: bytes) -> bytes:
    """Bytewise xor over the length of the shorter operand."""
    size = min(len(a), len(b))
    return (int.from_bytes(a[:size], "big")
            ^ int.from_bytes(b[:size], "big")).to_bytes(size, "big")


def prf_expand(secret: bytes, context: bytes, out_bits: int) -> BitString:
    """Expand a secret into out_bits pseudorandom bits bound to context."""
    if out_bits < 0:
        raise ValueError("output length must be nonnegative")
    if len(secret) > 64:
        secret = hashlib.blake2b(secret, digest_size=64).digest()
    out = bytearray()
    counter = 0
    while len(out) * 8 < out_bits:
        h = hashlib.blake2b(context, digest_size=64, key=secret,
                            salt=counter.to_bytes(8, "big"))
        out.extend(h.digest())
        counter += 1
    return BitString.from_bytes(bytes(out), length=out_bits)


@dataclass(frozen=True)
class KemKeyPair:
    public_key: bytes
    secret_key: bytes


class MockKem:
    """Deterministic KEM stand-in with byte-aligned shared secrets."""

    def __init__(self, secret_bits: int, rng: np.random.Generator):
        if secret_bits <= 0 or secret_bits % 8 != 0:
            raise ValueError("shared secret length must be a positive "
                             "multiple of 8 bits")
        self.secret_bytes = secret_bits // 8
        self._rng = rng

    def _rand(self, size: int) -> bytes:
        return self._rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()

    def keypair(self) -> KemKeyPair:
        """Draw a keypair; the public key is secret_bytes long so it can
        double as a fixed-size certificate blob."""
        sk = self._rand(32)
        pk = _h(b"pk", sk, digest_size=self.secret_bytes)
        return KemKeyPair(public_key=pk, secret_key=sk)

    def encapsulate(self, public_key: bytes) -> tuple[bytes, bytes]:
        """Return (ciphertext, shared_secret) for the given public key."""
        r = self._rand(self.secret_bytes)
        mask = _h(b"mask", public_key, digest_size=self.secret_bytes)
        ss = _h(b"ss", public_key, r, digest_size=self.secret_bytes)
        return _xor(r, mask), ss

    def decapsulate(self, secret_key: bytes, ciphertext: bytes) -> bytes:
        pk = _h(b"pk", secret_key, digest_size=self.secret_bytes)
        mask = _h(b"mask", pk, digest_size=self.secret_bytes)
        return _h(b"ss", pk, _xor(ciphertext, mask),
                  digest_size=self.secret_bytes)


@dataclass
class MockQkdStore:
    """Pre-shared key blocks addressed by 8-byte counter identifiers.

    Both parties hold a reference to the same store, modelling the
    key-management layer that sits on top of a QKD link. Each block is
    information-theoretically secure up to the link's failure
    probability eps, and one-time: `fetch` retires it.
    """

    block_bits: int
    eps: SecurityLevel
    rng: np.random.Generator
    _blocks: dict[bytes, BitString] = field(default_factory=dict)
    _counter: int = 0

    def next_block(self) -> tuple[bytes, BitString]:
        """Draw a fresh block and its identifier."""
        self._counter += 1
        ident = self._counter.to_bytes(8, "big")
        bits = self.rng.integers(0, 2, size=self.block_bits,
                                 dtype=np.uint8)
        block = BitString.from_bytes(np.packbits(bits).tobytes(),
                                     self.block_bits)
        self._blocks[ident] = block
        return ident, block

    def fetch(self, ident: bytes) -> BitString:
        """Hand out a block and retire it, so that it is used at most once.

        Raises:
            UnknownQkdIdError: no block was issued under ident, or it was
                fetched before.
        """
        try:
            return self._blocks.pop(ident)
        except KeyError:
            raise UnknownQkdIdError(
                f"no unused QKD block under id {ident.hex()}") from None

    def spec_for(self, ident: bytes, label: str = "qkd") -> SourceSpec:
        """Ledger entry of a block that is still unused; does not retire it."""
        block = self._blocks.get(ident)
        if block is None:
            raise UnknownQkdIdError(
                f"no unused QKD block under id {ident.hex()}")
        return SourceSpec(label=label, length=len(block),
                          hmin=float(len(block)), eps=self.eps,
                          kind=EntropyKind.MIN)

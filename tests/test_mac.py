"""Tests for one-shot and chained one-time authentication."""

import sys
import threading

import numpy as np
import pytest

from qlhl import _kernels
from qlhl.bits import BitString
from qlhl.handshake import mac
from qlhl.handshake.mac import (_GALOIS_TAPS, MacKey, _toeplitz_columns,
                                its_mac_auth, its_mac_verify,
                                one_shot_key_len, split_mac_key,
                                transcript_mac,
                                transcript_mac_block_bits,
                                transcript_mac_verify)
from qlhl.toeplitz import ExtractorParams, SeededHash, extract, hash_matrix


def _random_key(rng, msg_len, tag_len):
    raw = BitString.from_u8(rng.integers(
        0, 2, one_shot_key_len(msg_len, tag_len), dtype=np.uint8))
    return split_mac_key(raw, msg_len, tag_len)


def test_one_shot_key_len_and_split():
    assert one_shot_key_len(10, 4) == 13
    key = split_mac_key(BitString.zeros(13), 10, 4)
    assert len(key.hash_seed) == 9 and len(key.pad) == 4
    with pytest.raises(ValueError):
        split_mac_key(BitString.zeros(12), 10, 4)
    with pytest.raises(ValueError):
        one_shot_key_len(4, 5)


def test_one_shot_round_trip_and_rejection():
    rng = np.random.default_rng(41)
    for _ in range(20):
        msg_len = int(rng.integers(2, 64))
        tag_len = int(rng.integers(1, msg_len + 1))
        key = _random_key(rng, msg_len, tag_len)
        msg = BitString.from_u8(rng.integers(0, 2, msg_len, dtype=np.uint8))
        tag = its_mac_auth(key, msg)
        assert len(tag) == tag_len
        assert its_mac_verify(key, msg, tag)
        flipped = msg ^ BitString.from_int(1, msg_len)
        assert its_mac_auth(key, flipped) != tag or True  # may collide
        bad_tag = tag ^ BitString.from_int(1, tag_len)
        assert not its_mac_verify(key, msg, bad_tag)
    assert not its_mac_verify(key, msg, BitString.zeros(tag_len + 1))


def test_one_shot_zero_message_tags_with_pad():
    # the hash is linear, so the all-zero message always hashes to zero
    key = MacKey(hash_seed=BitString.from_str("1011"),
                 pad=BitString.from_str("10"))
    assert its_mac_auth(key, BitString.zeros(5)) == key.pad


def test_one_shot_tag_is_masked_hash():
    rng = np.random.default_rng(42)
    key = _random_key(rng, 12, 5)
    msg = BitString.from_u8(rng.integers(0, 2, 12, dtype=np.uint8))
    h = SeededHash(ExtractorParams.modified(12, 5), key.hash_seed)
    assert its_mac_auth(key, msg) == extract(h, msg) ^ key.pad


def test_one_shot_forgery_rate_exhaustive_tiny():
    # 5-bit messages, 2-bit tags: every fixed (msg', tag') is accepted
    # by exactly 1/4 of all 2^6 keys
    msg_len, tag_len = 5, 2
    key_len = one_shot_key_len(msg_len, tag_len)
    for forged_msg, forged_tag in ((0b10110, 0b01), (0b00001, 0b11),
                                   (0b11111, 0b00)):
        msg = BitString.from_int(forged_msg, msg_len)
        tag = BitString.from_int(forged_tag, tag_len)
        accepted = sum(
            its_mac_verify(split_mac_key(BitString.from_int(kv, key_len),
                                         msg_len, tag_len), msg, tag)
            for kv in range(1 << key_len))
        assert accepted * (1 << tag_len) == 1 << key_len


def test_chained_block_width_rule():
    assert transcript_mac_block_bits(64, 16) == 33
    assert transcript_mac_block_bits(9, 4) == 2
    assert transcript_mac_block_bits(8, 4) == 1
    with pytest.raises(ValueError):
        transcript_mac_block_bits(7, 4)      # key must reach 2 * tag


def test_chained_taps_are_primitive():
    # every tap set must describe x^t + (taps) with a unit constant term
    # and multiplicative order exactly 2^t - 1 (checked for small t)
    for t, taps in _GALOIS_TAPS.items():
        assert taps & 1, f"degree {t} taps lack the constant term"
        assert taps < (1 << t)
    for t in range(1, 17):
        poly = (1 << t) | _GALOIS_TAPS[t]

        def mul(a, b):
            acc = 0
            while b:
                if b & 1:
                    acc ^= a
                b >>= 1
                a <<= 1
                if a >> t & 1:
                    a ^= poly
            return acc

        order_target = (1 << t) - 1
        x = 2 % order_target + 1 if t == 1 else 2
        acc, power = 1, x
        e = order_target
        while e:
            if e & 1:
                acc = mul(acc, power)
            power = mul(power, power)
            e >>= 1
        assert acc == 1, f"x^(2^{t}-1) != 1 for degree {t}"
        # no proper divisor order: check all maximal proper divisors
        for q in range(2, order_target + 1):
            if order_target % q or q * q > order_target * 2:
                continue
            for d in {order_target // q}:
                acc, power, e = 1, x, d
                while e:
                    if e & 1:
                        acc = mul(acc, power)
                    power = mul(power, power)
                    e >>= 1
                assert acc != 1, f"degree {t} order divides {d}"


def _transcript_reference(fk: BitString, message: bytes, tag_len: int):
    # independent model: blocks of the header-framed bit stream walk
    # through state = step(state) xor T.block, tag = state xor pad
    n, t = len(fk), tag_len
    b = n - 2 * t + 1
    hash_seed, pad = fk[:n - t], fk[n - t:]
    mat = hash_matrix(SeededHash(ExtractorParams.modified(b + t, t),
                                 hash_seed))[:, :b]
    stream = list(BitString.from_bytes((len(message) * 8).to_bytes(8, "big")))
    stream += list(BitString.from_bytes(message)) if message else []
    while len(stream) % b:
        stream.append(0)
    state = [0] * t
    taps = _GALOIS_TAPS[t]
    for start in range(0, len(stream), b):
        block = stream[start:start + b]
        top = state[t - 1]
        state = [top * (taps >> i & 1) ^ (state[i - 1] if i else 0)
                 for i in range(t)]
        for i in range(t):
            state[i] ^= sum(mat[i][j] & block[j] for j in range(b)) % 2
    return BitString(state) ^ pad


def test_chained_mac_matches_reference_model():
    rng = np.random.default_rng(43)
    for _ in range(40):
        t = int(rng.integers(1, 20))
        n = int(rng.integers(2 * t + 1, 2 * t + 90))
        fk = BitString.from_u8(rng.integers(0, 2, n, dtype=np.uint8))
        msg = rng.integers(0, 256, int(rng.integers(0, 40)),
                           dtype=np.uint8).tobytes()
        assert transcript_mac(fk, msg, t) == _transcript_reference(fk, msg, t)


def test_chained_mac_64_bit_tag_on_301_bit_key_matches_reference():
    rng = np.random.default_rng(44)
    fk = BitString.from_u8(rng.integers(0, 2, 301, dtype=np.uint8))
    msg = rng.integers(0, 256, 500, dtype=np.uint8).tobytes()
    assert transcript_mac(fk, msg, 64) == _transcript_reference(fk, msg, 64)


@pytest.mark.parametrize("t", [1, 7, 64])
def test_seed_rows_match_hash_matrix_block(t):
    # n = 2t .. 2t + 16 gives block widths b = 1 .. 17: every b mod 8,
    # and b below one byte; n = 2t + 200 a wider block
    rng = np.random.default_rng(t)
    for n in [*range(2 * t, 2 * t + 17), 2 * t + 200]:
        b = transcript_mac_block_bits(n, t)
        seed = BitString.from_u8(rng.integers(0, 2, n - t, dtype=np.uint8))
        want = hash_matrix(SeededHash(ExtractorParams.modified(b + t, t),
                                      seed))[:, :b]
        columns = _toeplitz_columns(seed.to_int(), t, b)
        got = (columns >> np.arange(t, dtype=np.uint64)[:, None]) & 1
        assert got.shape == (t, b) and (got == want).all(), n


def test_chained_mac_round_trip_and_tamper():
    rng = np.random.default_rng(45)
    fk = BitString.from_u8(rng.integers(0, 2, 128, dtype=np.uint8))
    msg = b"handshake transcript m1..m6"
    tag = transcript_mac(fk, msg, 16)
    assert transcript_mac_verify(fk, msg, tag)
    assert not transcript_mac_verify(fk, msg + b"x", tag)
    for byte_index in (0, 7, len(msg) - 1):
        tampered = bytearray(msg)
        tampered[byte_index] ^= 0x01
        assert not transcript_mac_verify(fk, bytes(tampered), tag)


def test_chained_mac_separates_lengths():
    # the 64-bit length header keeps zero-fill from aliasing: a message
    # and its zero-extension never share a framed stream
    rng = np.random.default_rng(46)
    for _ in range(30):
        fk = BitString.from_u8(rng.integers(0, 2, 80, dtype=np.uint8))
        msg = rng.integers(0, 256, 9, dtype=np.uint8).tobytes()
        assert transcript_mac(fk, msg, 16) != \
            transcript_mac(fk, msg + b"\x00", 16)


def test_chained_mac_empty_message_allowed():
    fk = BitString.ones(40)
    tag = transcript_mac(fk, b"", 8)
    assert len(tag) == 8
    assert transcript_mac_verify(fk, b"", tag)
    assert not transcript_mac_verify(fk, b"\x00", tag)


def test_chained_mac_single_bit_deltas_rarely_collide():
    # a fixed single-bit change collides only when the Toeplitz block
    # annihilates it: at t=16 none of these 328 positions may collide
    # for a fixed random key
    rng = np.random.default_rng(47)
    fk = BitString.from_u8(rng.integers(0, 2, 120, dtype=np.uint8))
    msg = rng.integers(0, 256, 41, dtype=np.uint8).tobytes()
    tag = transcript_mac(fk, msg, 16)
    collisions = 0
    for bit in range(len(msg) * 8):
        tampered = bytearray(msg)
        tampered[bit // 8] ^= 0x80 >> (bit % 8)
        if transcript_mac(fk, bytes(tampered), 16) == tag:
            collisions += 1
    assert collisions == 0


def _packed_blocks(framed, b):
    # the blocks as one unpack of the whole framed stream, each block's
    # b bits packed again MSB first
    nblocks = -(-len(framed) * 8 // b)
    bits = np.unpackbits(np.frombuffer(framed, dtype=np.uint8),
                         count=nblocks * b).reshape(nblocks, b)
    return np.packbits(bits, axis=1)


def _block_bits(blocks, b):
    # the first b bits of each packed block; the bits past b are ignored
    return np.unpackbits(blocks, axis=1, count=b)


def test_message_blocks_match_one_packed_unpack_at_every_shift():
    # widths of every b mod 8, below and above one byte and one word,
    # so that the eight blocks of a group start at every bit shift, over
    # one block to hundreds of groups; after a longer all-ones message
    # has filled the kept arrays, stale bits would show in the zero tail
    # of the last block
    rng = np.random.default_rng(48)
    mac._message_blocks(b"\xff" * 5000, 7)
    for size in (1, 2, 8, 9, 100, 4097):
        framed = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        for b in (*range(1, 18), 60, 385, 1000, 1006):
            got = mac._message_blocks(framed, b)
            want = _packed_blocks(framed, b)
            assert got.shape == want.shape, (size, b)
            assert np.array_equal(_block_bits(got, b), _block_bits(want, b))
            # the last block's bits past the framed bits are all zero,
            # past b too
            assert np.array_equal(got[-1], want[-1]), (size, b)


@pytest.mark.parametrize("gather", ["chosen", "words", "windows"])
def test_message_blocks_match_on_both_sides_of_the_crossover(monkeypatch,
                                                             gather):
    # each gather, and the one the framed length picks, over every
    # b mod 8 on framed lengths just below and just above the crossover;
    # an all-ones message twice as long fills the kept arrays first, so
    # stale bytes would show in the zero tail of the last block
    crossover = mac._WINDOW_BYTES
    if gather != "chosen":
        monkeypatch.setattr(mac, "_WINDOW_BYTES",
                            1 << 40 if gather == "words" else 0)
    rng = np.random.default_rng(54)
    for b in (*range(1, 18), 60, 385, 1000, 1006):
        for size in (crossover - 1, crossover, crossover + 1):
            mac._message_blocks(b"\xff" * (2 * crossover), b)
            framed = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            got = mac._message_blocks(framed, b)
            want = _packed_blocks(framed, b)
            assert got.shape == want.shape, (size, b)
            assert np.array_equal(_block_bits(got, b), _block_bits(want, b))
            assert np.array_equal(got[-1], want[-1]), (size, b)


def _chained_bit_model(fk, message, t):
    # the tag from the definition over unpacked bits: the t x b Toeplitz
    # block of the seed's hash matrix times each b-bit block of the
    # zero-padded framed stream, one Galois step per block
    n = len(fk)
    b = n - 2 * t + 1
    mat = hash_matrix(SeededHash(ExtractorParams.modified(b + t, t),
                                 fk[:n - t]))[:, :b]
    framed = (8 * len(message)).to_bytes(8, "big") + message
    bits = np.unpackbits(np.frombuffer(framed, dtype=np.uint8))
    bits = np.concatenate([bits, np.zeros(-bits.size % b, np.uint8)])
    # exact in float32: every dot product is an integer below 2**24
    parity = (bits.reshape(-1, b).astype(np.float32)
              @ mat.T.astype(np.float32)).astype(np.int64) & 1
    # row i of the product is state bit i
    mixed = np.packbits(parity[:, ::-1], axis=1, bitorder="big")
    taps, top, mask = _GALOIS_TAPS[t], 1 << (t - 1), (1 << t) - 1
    state = 0
    for row in mixed:
        feedback = taps if state & top else 0
        state = ((state << 1) & mask) ^ feedback ^ (
            int.from_bytes(row.tobytes(), "big") >> (-t % 8))
    return BitString([(state >> i) & 1 for i in range(t)]) ^ fk[n - t:]


@pytest.mark.parametrize("size", [1 << 18, 600000])
def test_long_tag_matches_the_bit_model(size):
    # auth's 256 KB tag and a 600,000-byte one, both gathered through
    # 16-bit windows, at t = 64 on a 512-bit key (385-bit blocks)
    assert size + 8 >= mac._WINDOW_BYTES
    rng = np.random.default_rng(55)
    fk = BitString.from_u8(rng.integers(0, 2, 512, dtype=np.uint8))
    message = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
    assert transcript_mac(fk, message, 64) == _chained_bit_model(
        fk, message, 64)


def test_message_blocks_are_kept_and_bounded(monkeypatch):
    # the packed block matrix is the kernels' kept array "blocks": a
    # thread reuses it, and a tag whose arrays pass the shared bound
    # drops the whole store as it returns
    monkeypatch.setattr(_kernels, "_KEPT_BYTES", 1 << 13)
    work = vars(_kernels._WORK)   # this thread's kept arrays
    work.clear()
    first = mac._message_blocks(bytes(1000), 385)
    assert np.shares_memory(first, work["blocks"])
    assert np.shares_memory(first, mac._message_blocks(bytes(900), 385))
    fk = BitString.from_u8(np.random.default_rng(50).integers(
        0, 2, 512, dtype=np.uint8))   # 385-bit blocks, 64-bit tags
    transcript_mac(fk, bytes(1000), 64)
    assert np.shares_memory(first, work["blocks"])
    transcript_mac(fk, bytes(10000), 64)   # 208 blocks of 49 bytes
    assert not work
    transcript_mac(fk, bytes(900), 64)
    assert 0 < work["blocks"].nbytes <= 1 << 13


def _byte_table_block(rng):
    # the 32 kbit privacy amplification block as (d, xr, k, m) and its
    # product by nibble columns
    k, m = 17276, 15492
    d = int.from_bytes(rng.bytes((k + m - 1 + 7) // 8), "big")
    d >>= -(k + m - 1) % 8
    xr = int.from_bytes(rng.bytes((k + 7) // 8), "big") >> (-k % 8)
    return (d, xr, k, m), _kernels._columns(d, xr, k, m)


def test_tag_after_byte_table_product_keeps_both():
    # auth's 256 KB tag (5,448 blocks of 49 bytes, 267 KB) after the
    # 32 kbit byte-table product (1 MB of table)
    # stays under the shared bound, so neither drops the other's arrays
    work = vars(_kernels._WORK)
    work.clear()
    rng = np.random.default_rng(51)
    shape, want = _byte_table_block(rng)
    fk = BitString.from_u8(rng.integers(0, 2, 512, dtype=np.uint8))
    message = rng.integers(0, 256, 1 << 18, dtype=np.uint8).tobytes()
    tag = transcript_mac(fk, message, 64)
    assert _kernels._bytes(*shape) == want
    table = work["table"]
    assert transcript_mac(fk, message, 64) == tag
    blocks = work["blocks"]
    assert blocks.nbytes == 5448 * 49 == 266952
    assert _kernels._bytes(*shape) == want
    assert transcript_mac(fk, message, 64) == tag
    assert work["table"] is table
    assert work["blocks"] is blocks
    assert sum(a.nbytes for a in work.values()) <= _kernels._KEPT_BYTES


def test_long_tag_keeps_byte_table_arrays():
    # a 600,000-byte tag packs 12,468 blocks of 49 bytes (611 KB, kept
    # for 1,559 groups of 8 blocks), which with the 32 kbit block's byte
    # table stays under the shared bound: the next product finds its
    # table kept
    work = vars(_kernels._WORK)
    work.clear()
    rng = np.random.default_rng(52)
    shape, want = _byte_table_block(rng)
    assert _kernels._bytes(*shape) == want
    table = work["table"]
    fk = BitString.from_u8(rng.integers(0, 2, 512, dtype=np.uint8))
    transcript_mac(fk, bytes(600000), 64)
    assert work["blocks"].nbytes == 1559 * 8 * 49
    assert _kernels._bytes(*shape) == want
    assert work["table"] is table


def test_transcript_mac_hands_the_kernel_one_row_per_block(monkeypatch):
    # perfbench counts chained-MAC blocks as the rows of the kernel's
    # second argument
    seen = []
    kernel = _kernels.chained_mac

    def spy(*args):
        seen.append(args[1].shape)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "chained_mac", spy)
    rng = np.random.default_rng(53)
    for n, t in ((40, 8), (128, 16), (512, 64)):
        fk = BitString.from_u8(rng.integers(0, 2, n, dtype=np.uint8))
        b = transcript_mac_block_bits(n, t)
        for size in (0, 1, 47, 1000):
            seen.clear()
            transcript_mac(fk, bytes(size), t)
            assert seen == [(-(-8 * (size + 8) // b), -(-b // 8))], (n, size)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_one_shot_mac_resists_a_tail_substitution():
    # [T | I] passes a difference in the last t message bits straight
    # to the tag: flipping the last message bit and the last tag bit
    # forges under every key, where the claimed rate is 2^-32
    rng = np.random.default_rng(54)
    n, t = 1024, 32
    msg = BitString.from_u8(rng.integers(0, 2, n, dtype=np.uint8))
    accepted = 0
    for _ in range(200):
        key = _random_key(rng, n, t)
        tag = its_mac_auth(key, msg)
        accepted += its_mac_verify(key, msg ^ BitString.from_int(1, n),
                                   tag ^ BitString.from_int(1, t))
    assert accepted == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_chained_mac_resists_a_two_block_substitution():
    # a flip at bit j of block k and bit j + 1 of block k + 1: the public
    # step x and the shared block T leave a tag difference that depends
    # on about two seed bits, so about 1/4 of the keys collide against
    # a claimed (block count) * 2^-t
    rng = np.random.default_rng(55)
    n, t = 40, 8
    b = transcript_mac_block_bits(n, t)             # 25
    msg = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
    nblocks = -(-8 * (len(msg) + 8) // b)           # 8
    k, j = 4, 3
    tampered = bytearray(msg)
    for pos in (k * b + j, (k + 1) * b + j + 1):    # framed bit positions
        pos -= 64                                   # past the header
        tampered[pos // 8] ^= 0x80 >> (pos % 8)
    keys = 2000
    collisions = 0
    for _ in range(keys):
        fk = BitString.from_u8(rng.integers(0, 2, n, dtype=np.uint8))
        collisions += transcript_mac(fk, msg, t) == \
            transcript_mac(fk, bytes(tampered), t)
    assert collisions <= keys * nblocks / 2 ** t


def test_transcript_mac_in_threads_matches_one_thread():
    # each thread keeps its own block matrix: four threads tagging
    # messages of several gather chunks at once, with the interpreter
    # switching threads as often as it can, give the one-thread tags
    rng = np.random.default_rng(49)
    fk = BitString.from_u8(rng.integers(0, 2, 512, dtype=np.uint8))
    messages = [rng.integers(0, 256, size, dtype=np.uint8).tobytes()
                for size in (17000, 33000, 40001)]
    want = [transcript_mac(fk, msg, 64) for msg in messages]
    mismatches, done = [], []

    def work(order):
        for i in order * 3:
            if transcript_mac(fk, messages[i], 64) != want[i]:
                mismatches.append(i)
        done.append(order)

    threads = [threading.Thread(target=work, args=(order,))
               for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0], [2, 0, 1])]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == 4 and not mismatches

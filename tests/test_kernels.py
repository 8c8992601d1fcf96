"""Tests for the GF(2) Toeplitz and chained-MAC kernels."""

import functools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlhl import _kernels
from qlhl.bits import BitString
from qlhl.toeplitz import (ExtractorParams, Family, SeededHash, extract,
                           extract_fast)


def _random_case(rng, max_n=512):
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, n + 1))
    modified = bool(rng.integers(0, 2))
    params = (ExtractorParams.modified(n, m) if modified
              else ExtractorParams.regular(n, m))
    seed = rng.integers(0, 2, params.seed_len, dtype=np.uint8)
    x = rng.integers(0, 2, n, dtype=np.uint8)
    return modified, seed, n, m, x


def _seeded_hash(family, n, m, rng):
    params = ExtractorParams(family, n, m)
    seed = BitString.from_u8(
        rng.integers(0, 2, params.seed_len, dtype=np.uint8))
    return SeededHash(params, seed)


def _spy_fft(monkeypatch, shift=0.0):
    """Record each FFT size used, adding `shift` to every coefficient."""
    calls = []
    original = _kernels._fft_convolve

    def spy(a, x, size):
        calls.append(size)
        return original(a, x, size) + shift

    monkeypatch.setattr(_kernels, "_fft_convolve", spy)
    return calls


# label of each block-product form: _columns reads xr a nibble (4 bits)
# at a time
_LABELS = {"_rows": "rows", "_columns": "columns4", "_bytes": "bytes",
           "_fft": "fft"}


def _spy_forms(monkeypatch):
    """Record the label of each block-product form that runs."""
    ran = []

    def spy(label, form):
        def wrapper(*args):
            ran.append(label)
            return form(*args)
        return wrapper

    for name, label in _LABELS.items():
        monkeypatch.setattr(_kernels, name,
                            spy(label, getattr(_kernels, name)))
    return ran


def _force_fft_first(monkeypatch):
    """Rank the FFT first, the exact forms after it in their order."""
    rank = _kernels._forms.__wrapped__

    def forms(k, m):
        return ("_fft",) + tuple(f for f in rank(k, m) if f != "_fft")

    monkeypatch.setattr(_kernels, "_forms", forms)


def test_numpy_backend_matches_reference_extract():
    rng = np.random.default_rng(12)
    for _ in range(50):
        modified, seed, n, m, x = _random_case(rng, max_n=128)
        params = (ExtractorParams.modified(n, m) if modified
                  else ExtractorParams.regular(n, m))
        h = SeededHash(params, BitString.from_u8(seed))
        assert extract_fast(h, BitString.from_u8(x)) == \
            extract(h, BitString.from_u8(x))


_FORMS = {label: getattr(_kernels, name) for name, label in _LABELS.items()}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_prop_edge_shapes_match_reference_on_both_paths(data):
    # each form of the block product is called directly on the operands:
    # K = n - m of 0, 1, 2, 8 and 9 (K and K - 1 on and off byte
    # boundaries), m = 1 and m = n, with n drawn freely so that most
    # lengths are not multiples of 8
    family = data.draw(st.sampled_from(Family))
    n = data.draw(st.integers(1, 300))
    m = max(1, data.draw(st.sampled_from(
        [n, n - 1, n - 2, n - 8, n - 9, 1, (n + 1) // 2])))
    h = _seeded_hash(family, n, m,
                     np.random.default_rng(data.draw(st.integers(0, 2**32))))
    x = BitString.from_u8(np.random.default_rng(
        data.draw(st.integers(0, 2**32))).integers(0, 2, n, dtype=np.uint8))
    want = extract(h, x)
    assert extract_fast(h, x) == want
    d, xr, k, tail = _kernels._operands(family is Family.MODIFIED,
                                        h.seed.to_int(), n, m, x.to_int())
    if k == 0:
        assert tail == want.to_int()
        return
    for name, form in _FORMS.items():
        assert form(d, xr, k, m) ^ tail == want.to_int(), name


@pytest.mark.parametrize("family, n, m, fft", [
    (Family.MODIFIED, 104000, 56000, True),  # K = 48,000
    (Family.REGULAR, 64000, 48000, True),
    (Family.MODIFIED, 40960, 8192, False),   # K = 32,768
    (Family.REGULAR, 32768, 4096, False),
    (Family.MODIFIED, 32768, 15492, False),  # pa_bulk, 32 kbit
    (Family.MODIFIED, 4096, 411, False),
    (Family.REGULAR, 8192, 2271, False),
    (Family.MODIFIED, 2106, 1020, False),
    (Family.MODIFIED, 2092, 702, False),
    (Family.MODIFIED, 16384, 64, False),     # one-shot MAC tag
    (Family.MODIFIED, 5888, 5826, False),    # narrow block
    (Family.REGULAR, 3000, 40, False),
])
def test_shapes_either_side_of_crossover_match_reference(
        monkeypatch, family, n, m, fft):
    rng = np.random.default_rng(n + m)
    h = _seeded_hash(family, n, m, rng)
    x = BitString.from_u8(rng.integers(0, 2, n, dtype=np.uint8))
    calls = _spy_fft(monkeypatch)
    assert extract_fast(h, x) == extract(h, x)
    assert bool(calls) == fft


@pytest.mark.parametrize("family, n, m, form", [
    (Family.MODIFIED, 5888, 5826, "columns4"),   # keymix, narrow block
    (Family.MODIFIED, 2248, 1338, "columns4"),   # handshake stage, K = 910
    (Family.MODIFIED, 7112, 4986, "bytes"),      # handshake stage
    (Family.MODIFIED, 16384, 64, "rows"),        # one-shot MAC tag
    (Family.MODIFIED, 32768, 15492, "bytes"),    # pa_bulk, 32 kbit
    (Family.REGULAR, 8192, 2271, "bytes"),       # pa_bulk
])
def test_workload_shapes_take_their_form(monkeypatch, family, n, m, form):
    rng = np.random.default_rng(n - m)
    h = _seeded_hash(family, n, m, rng)
    x = BitString.from_u8(rng.integers(0, 2, n, dtype=np.uint8))
    ran = _spy_forms(monkeypatch)
    assert extract_fast(h, x) == extract(h, x)
    assert ran == [form]


# block shapes (K, m) that perfbench's workloads hand the kernel
_PA_BULK_SHAPES = ((841, 3255), (2469, 1627), (3111, 5081), (3685, 411),
                   (4096, 1627), (4103, 12281), (8192, 2271), (13076, 3308),
                   (17276, 15492))
_HANDSHAKE_SHAPES = (
    (910, 1338), (974, 1530), (1086, 1020), (1150, 1148), (1294, 2490),
    (1358, 2682), (1390, 702), (1454, 766), (1470, 1916), (1502, 384),
    (1534, 2044), (1566, 384), (1902, 1342), (1950, 768), (1966, 1406),
    (2014, 768), (2062, 4794), (2126, 4986), (2238, 3708), (2302, 3836),
    (2718, 1536), (2782, 1536), (2926, 2622), (2990, 2686))
_KEYMIX_SHAPES = ((62, 130), (62, 3010), (62, 5058), (62, 5186), (62, 5826),
                  (160, 224), (319, 129), (353, 159), (446, 194), (544, 96))
# the shapes of those two workloads that ran faster in nibble columns than
# in byte tables in the benchmark's loop
_COLUMN_SHAPES = {(841, 3255), (910, 1338), (974, 1530), (1086, 1020),
                  (1150, 1148)}


def test_benchmark_shapes_rank_their_measured_form():
    # narrow keymix blocks take nibble columns, and no privacy
    # amplification or handshake block ranks the FFT first
    for k, m in _KEYMIX_SHAPES:
        assert _kernels._forms(k, m)[0] == "_columns", (k, m)
    for k, m in _PA_BULK_SHAPES + _HANDSHAKE_SHAPES:
        want = "_columns" if (k, m) in _COLUMN_SHAPES else "_bytes"
        assert _kernels._forms(k, m)[0] == want, (k, m)


@pytest.mark.parametrize("family", list(Family))
def test_byte_table_edge_shapes_match_reference(family):
    # K % 8 and m % 64 at 0 and +-1, through the byte-table form alone
    rng = np.random.default_rng(41)
    for k in (1, 7, 8, 9, 63, 64, 65, 121):
        for m in (1, 63, 64, 65, 127, 128, 129, 200):
            if family is Family.REGULAR and m > k:
                continue
            n = k + m if family is Family.MODIFIED else k
            h = _seeded_hash(family, n, m, rng)
            x = BitString.from_u8(rng.integers(0, 2, n, dtype=np.uint8))
            d, xr, _, tail = _kernels._operands(family is Family.MODIFIED,
                                                h.seed.to_int(), n, m,
                                                x.to_int())
            assert _kernels._bytes(d, xr, k, m) ^ tail == \
                extract(h, x).to_int(), (k, m)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_byte_table_chunk_boundaries_match_reference(monkeypatch, rows):
    # the input bytes' windows are summed `rows` at a time (chunks of
    # rows * 8 * words bytes): 1 .. 3 * rows + 1 input bytes put the last
    # chunk at every fill, full ones included; all-ones inputs read row
    # v = 255 at every input byte
    rng = np.random.default_rng(rows)
    for nx in range(1, 3 * rows + 2):
        for k in (8 * nx - 7, 8 * nx):
            m = int(rng.integers(1, 300))
            words = (m + 63) // 64
            monkeypatch.setattr(_kernels, "_BYTES_CHUNK_BYTES",
                                rows * 8 * words)
            d, xr = _random_operands(rng, k, m)
            for x in (xr, (1 << k) - 1):
                assert _kernels._bytes(d, x, k, m) == \
                    _kernels._rows(d, x, k, m), (k, m, x)


@pytest.mark.parametrize("family", list(Family))
def test_byte_table_last_window_ends_at_the_row_end(family):
    # width == nx - 1 + 8 * words: the window of the last input byte
    # ends at the last byte of its row, and an all-ones input reads row
    # v = 255 there, the last bytes of the table
    rng = np.random.default_rng(43)
    for nx in (1, 9, 17, 65, 257):
        for words in (1, 2, 5, 9):
            k = 8 * nx
            m = 64 * words - 7   # k + m - 1 = 8 * (nx - 1 + 8 * words)
            if family is Family.REGULAR and m > k:
                continue
            assert _kernels._byte_shape(k, m) == \
                (nx, words, nx - 1 + 8 * words)
            n = k + m if family is Family.MODIFIED else k
            h = _seeded_hash(family, n, m, rng)
            for x in (BitString.from_u8(rng.integers(0, 2, n, np.uint8)),
                      BitString.from_int((1 << n) - 1, n)):
                d, xr, _, tail = _kernels._operands(
                    family is Family.MODIFIED, h.seed.to_int(), n, m,
                    x.to_int())
                assert _kernels._bytes(d, xr, k, m) ^ tail == \
                    extract(h, x).to_int(), (k, m)


def test_byte_table_arrays_are_kept_and_bounded(monkeypatch):
    # a thread keeps the table of byte-table products, reuses it for
    # shapes it fits, and drops it after a product whose arrays pass the
    # bound
    monkeypatch.setattr(_kernels, "_KEPT_BYTES", 1 << 21)
    work = vars(_kernels._WORK)   # this thread's kept arrays
    work.clear()
    rng = np.random.default_rng(33)
    kept = []
    for k, m in ((3111, 5081), (3111, 5081), (1000, 1000), (17276, 15492),
                 (60000, 20000), (3111, 5081)):
        d, xr = _random_operands(rng, k, m)
        table = work.get("table")
        assert _kernels._bytes(d, xr, k, m) == _kernels._columns(d, xr, k, m)
        size = sum(a.nbytes for a in work.values())
        assert size <= _kernels._KEPT_BYTES and set(work) <= {"table"}
        kept.append((size > 0,
                     table is not None and work.get("table") is table))
    assert kept == [
        (True, False),    # the pa_bulk p50 slot: 264 KB table, new
        (True, True),     # the same shape again reuses it
        (True, True),     # a smaller shape too
        (True, False),    # the 32 kbit block grows it to 1 MB
        (False, False),   # an 80 kbit block's 2.5 MB table: dropped
        (True, False),    # the p50 slot keeps new ones
    ]


def test_form_ranking_is_cached_and_bounded(monkeypatch):
    # a repeated shape still runs its form through the module attribute,
    # and a stream of new shapes cannot grow the cache past its bound
    rng = np.random.default_rng(3)
    h = _seeded_hash(Family.MODIFIED, 600, 500, rng)
    x = BitString.from_u8(rng.integers(0, 2, 600, dtype=np.uint8))
    _kernels._forms.cache_clear()
    assert extract_fast(h, x) == extract(h, x)   # ranks the shape
    ran = _spy_forms(monkeypatch)
    for _ in range(3):
        assert extract_fast(h, x) == extract(h, x)
    assert len(ran) == 3 and len(set(ran)) == 1
    assert _kernels._forms.cache_info().hits == 3
    for m in range(1, _kernels._FORM_CACHE_SHAPES + 50):
        _kernels._forms(70, m)
    info = _kernels._forms.cache_info()
    assert info.currsize == info.maxsize == _kernels._FORM_CACHE_SHAPES


def _toeplitz_row(params, seed_u8, i):
    # row i of the hash matrix from the entry formulas in toeplitz's
    # module docstring, without the identity part
    n, m = params.input_len, params.output_len
    if params.family is Family.REGULAR:
        return seed_u8[i - np.arange(n) + n - 1]
    j = np.arange(n - m)
    return seed_u8[np.where(i >= j, i - j, m - 1 + (j - i))]


@pytest.mark.parametrize("family, m", [
    (Family.MODIFIED, 56_000), (Family.REGULAR, 41_000)])
def test_large_block_rows_match_direct_dot_product(family, m):
    n = 100_003
    rng = np.random.default_rng(m)
    h = _seeded_hash(family, n, m, rng)
    x_u8 = rng.integers(0, 2, n, dtype=np.uint8)
    out = extract_fast(h, BitString.from_u8(x_u8)).to_u8()
    seed_u8 = h.seed.to_u8()
    K = n - m if family is Family.MODIFIED else n
    for i in rng.choice(m, size=32, replace=False).tolist() + [0, m - 1]:
        row = _toeplitz_row(h.params, seed_u8, i).astype(np.int64)
        want = int(row @ x_u8[:K].astype(np.int64)) & 1
        if family is Family.MODIFIED:
            want ^= int(x_u8[K + i])
        assert out[i] == want, i


@pytest.mark.parametrize("shift", [0.4, 0.6])
def test_fft_precision_loss_falls_back_to_exact_path(monkeypatch, shift):
    # coefficients pushed 0.4 or 0.6 off their integers fail the rounding
    # guard, and the block is recomputed by the cheapest exact form;
    # unguarded, a 0.6 shift would round every coefficient up. These
    # blocks take one transform each, a size the exact forms now beat,
    # so the FFT is ranked first by hand.
    _force_fft_first(monkeypatch)
    calls = _spy_fft(monkeypatch, shift)
    ran = _spy_forms(monkeypatch)
    rng = np.random.default_rng(21)
    for family, n, m in ((Family.MODIFIED, 16384, 3308),
                         (Family.REGULAR, 8192, 2271)):
        h = _seeded_hash(family, n, m, rng)
        x = BitString.from_u8(rng.integers(0, 2, n, dtype=np.uint8))
        assert extract_fast(h, x) == extract(h, x)
    assert len(calls) == 2
    assert ran == ["fft", "bytes"] * 2


# block size c of the blocked FFT products forced below: transforms of
# 2c points, so that shapes around c stay small enough for `extract`
_C = 32


def _force_blocks(monkeypatch):
    """Run every FFT product with transforms of at most 2 * _C points."""
    def plan(k, m):
        return min(2 * _C, 1 << (k + m - 2).bit_length()), 0.0

    monkeypatch.setattr(_kernels, "_fft_plan", plan)
    # rank the forms afresh, with the FFT first, in a cache of this test's
    monkeypatch.setattr(_kernels, "_forms",
                        functools.lru_cache(_kernels._forms.__wrapped__))


def _blocked_shapes():
    # (family, K, m): K and m either side of c and past 2c, K < c < m,
    # m < c < K and K of 1 and 2; the plain family needs m <= K
    edges = (_C - 1, _C, _C + 1, 2 * _C + 1)
    shapes = [(k, m) for k in edges for m in edges]
    shapes += [(_C // 2, 3 * _C), (3 * _C, _C // 2), (1, 5 * _C + 3),
               (2, 5 * _C + 3), (1, 1), (2, 1), (2, 2)]
    return [(family, k, m) for family in Family for k, m in shapes
            if family is Family.MODIFIED or m <= k]


@pytest.mark.parametrize("family, k, m", _blocked_shapes())
def test_blocked_fft_products_match_reference(monkeypatch, family, k, m):
    _force_blocks(monkeypatch)
    n = k + m if family is Family.MODIFIED else k
    rng = np.random.default_rng([k, m, family is Family.MODIFIED])
    h = _seeded_hash(family, n, m, rng)
    x = BitString.from_u8(rng.integers(0, 2, n, dtype=np.uint8))
    calls = _spy_fft(monkeypatch)
    assert extract_fast(h, x) == extract(h, x)
    if k + m - 1 > 2 * _C:
        # one inverse transform of 2c points per output block of c rows
        assert calls == [2 * _C] * -(-m // _C)
    else:
        assert len(calls) == 1 and calls[0] >= k + m - 1


def test_fft_transform_sizes():
    # the pa_bulk p50 slot stays one 8,192-point transform; the 32 kbit
    # block is cut into 16,384-point transforms, below the size whose
    # scratch takes fresh pages, and a 2**20-bit [T | I] block into
    # transforms far smaller than its L
    assert _kernels._fft_plan(3111, 5081)[0] == 8192
    assert _kernels._fft_plan(17276, 15492)[0] == _kernels._FFT_HEAP_POINTS
    k, m = 440409, 608167
    assert _kernels._fft_plan(k, m)[0] <= _kernels._FFT_MAX_POINTS < k + m


@pytest.mark.parametrize("shift", [0.4, 0.6])
def test_blocked_fft_precision_loss_falls_back_to_exact_path(monkeypatch,
                                                            shift):
    # the guard fails on the first output block of the 32 kbit block,
    # cut into 16,384-point transforms, and the exact form recomputes it;
    # the block takes byte tables unless the FFT is ranked first by hand
    _force_fft_first(monkeypatch)
    calls = _spy_fft(monkeypatch, shift)
    ran = _spy_forms(monkeypatch)
    rng = np.random.default_rng(22)
    h = _seeded_hash(Family.MODIFIED, 32768, 15492, rng)
    x = BitString.from_u8(rng.integers(0, 2, 32768, dtype=np.uint8))
    assert extract_fast(h, x) == extract(h, x)
    assert calls == [16384]
    assert ran == ["fft", "bytes"]


def _random_operands(rng, k, m):
    # random diagonals d of L = k + m - 1 bits and input xr of k bits
    def bits(n):
        return int.from_bytes(rng.bytes((n + 7) // 8), "big") >> (-n % 8)
    return bits(k + m - 1), bits(k)


def test_fft_products_in_threads_match_exact_form():
    # each thread keeps its own work arrays: four threads computing
    # one-transform and blocked FFT products and byte-table products at
    # once, with the interpreter switching threads as often as it can,
    # all match the nibble-column form
    rng = np.random.default_rng(31)
    cases = []
    for k, m in ((3111, 5081), (17276, 15492), (20000, 20000)):
        d, xr = _random_operands(rng, k, m)
        cases.append((d, xr, k, m, _kernels._columns(d, xr, k, m)))
    mismatches, done = [], []

    def work(order):
        for i in order * 3:
            d, xr, k, m, want = cases[i]
            for form in (_kernels._fft, _kernels._bytes):
                if form(d, xr, k, m) != want:
                    mismatches.append((form.__name__, k, m))
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


def test_fft_work_arrays_are_reused_and_bounded(monkeypatch):
    # a thread keeps the work arrays of every FFT product, one transform
    # or blocked, while they fit the bound, reuses them for shapes they
    # fit, and drops them after a product whose arrays pass the bound
    monkeypatch.setattr(_kernels, "_KEPT_BYTES", 1 << 21)
    work = vars(_kernels._WORK)   # this thread's kept arrays
    work.clear()
    rng = np.random.default_rng(32)
    kept = []
    for k, m in ((3111, 5081), (17276, 15492), (17276, 15492), (300, 900),
                 (60000, 40000), (20000, 20000), (13076, 3308),
                 (150000, 60000)):
        d, xr = _random_operands(rng, k, m)
        spectra = work.get("spectra")
        assert _kernels._fft(d, xr, k, m) == _kernels._columns(d, xr, k, m)
        size = sum(a.nbytes for a in work.values())
        assert size <= _kernels._KEPT_BYTES
        kept.append((size > 0,
                     spectra is not None and work.get("spectra") is spectra))
    assert kept == [
        (True, False),    # one 8,192-point transform: new, kept
        (True, False),    # the 32 kbit block in 16,384-point transforms
        (True, True),     # the same shape again reuses them
        (True, True),     # one 2,048-point transform reuses them
        (False, False),   # a 100 kbit block passes the bound: dropped
        (True, False),    # a 40 kbit block keeps new ones
        (True, True),     # one 16,384-point transform reuses them
        (False, False),   # a 210 kbit block passes the bound: dropped
    ]


def _chained_reference(rows, blocks, t, taps):
    # bit-at-a-time model: invertible shift step, then absorb T . block
    state = 0
    for blk in blocks:
        fb = taps if state >> (t - 1) & 1 else 0
        state = ((state << 1) & ((1 << t) - 1)) ^ fb
        for i, row in enumerate(rows):
            state ^= (int(np.dot(row, blk)) & 1) << i
    return state


def _columns(rows):
    # column j of 0/1 rows as a t-bit int, row i at bit i
    weights = np.left_shift(np.uint64(1),
                            np.arange(rows.shape[0], dtype=np.uint64))
    return np.bitwise_or.reduce(rows.T.astype(np.uint64) * weights, axis=1)


def _check_chained(rng, nblocks, t, b, taps):
    rows = rng.integers(0, 2, (t, b), dtype=np.uint8)
    blocks = rng.integers(0, 2, (nblocks, b), dtype=np.uint8)
    got = _kernels.chained_mac(_columns(rows), np.packbits(blocks, axis=1),
                               t, taps)
    assert got == _chained_reference(rows, blocks, t, taps), (nblocks, t, b)


@pytest.mark.parametrize("t", [1, 2, 7, 16, 33, 64])
def test_chained_mac_matches_bit_model(t):
    # every block width mod 8, widths below one byte, and a random width
    rng = np.random.default_rng(13)
    taps = {1: 0x1, 2: 0x3, 7: 0x3, 16: 0x2d, 33: 0x53, 64: 0x1b}[t]
    for b in [*range(1, 18), int(rng.integers(1, 150))]:
        _check_chained(rng, 5, t, b, taps)


_CHUNK = _kernels._MAC_CHUNK_BLOCKS
_FOLD = _kernels._MAC_FOLD_BLOCKS


@pytest.mark.parametrize("nblocks, t, b", [
    (1, 64, 385), (_CHUNK - 1, 33, 130), (_CHUNK, 64, 64),
    (_CHUNK + 1, 16, 200),
    (5448, 64, 385),   # a 256 KB message under a 512-bit key
])
def test_chained_mac_matches_bit_model_across_chunks(nblocks, t, b):
    rng = np.random.default_rng(nblocks)
    taps = {16: 0x2d, 33: 0x53, 64: 0x1b}[t]
    _check_chained(rng, nblocks, t, b, taps)


@pytest.mark.parametrize("nblocks", [
    0, _FOLD - 1, _FOLD, _FOLD + 1, 2 * _FOLD - 1, 2 * _FOLD + 1,
    3 * _FOLD + 77,    # the state carries across three fold steps
])
@pytest.mark.parametrize("t, taps", [(1, 0x1), (2, 0x3), (13, 0x1b)])
def test_chained_mac_fold_steps_match_bit_model(nblocks, t, taps):
    # every gather chunk and fold step boundary, for 1- and 2-bit states
    # whose values span a fraction of a word
    _check_chained(np.random.default_rng(nblocks + t), nblocks, t, 9, taps)


def test_chained_mac_64_bit_products_with_top_bit_set():
    # the last slot of a fold row shifts its carry word by 64, which
    # must give 0; all-ones columns set the top bit of every product
    rng = np.random.default_rng(64)
    rows = np.ones((64, 5), dtype=np.uint8)
    for nblocks in (63, 64, 65, _FOLD + 3):
        blocks = rng.integers(0, 2, (nblocks, 5), dtype=np.uint8)
        blocks[:, 0] = 1
        packed = np.packbits(blocks, axis=1)
        products = _kernels._block_products(_columns(rows), packed)
        assert (products >> np.uint64(63) != 0).any()
        got = _kernels.chained_mac(_columns(rows), packed, 64, 0x1b)
        assert got == _chained_reference(rows, blocks, 64, 0x1b), nblocks


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 64), st.integers(1, 200), st.integers(0, 600),
       st.integers(0, 2 ** 32))
def test_prop_chained_mac_matches_bit_model(t, b, nblocks, seed):
    rng = np.random.default_rng(seed)
    taps = int(rng.integers(0, 1 << min(t, 62)))
    _check_chained(rng, nblocks, t, b, taps)


def test_chained_mac_power_table_does_not_grow_with_the_message():
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 2, (64, 3), dtype=np.uint8)
    sizes = []
    for nblocks in (1, _FOLD + 1, 5 * _FOLD):
        blocks = rng.integers(0, 256, (nblocks, 1), dtype=np.uint8)
        _kernels.chained_mac(_columns(rows), blocks, 64, 0x1b)
        sizes.append(_kernels._powers_of_x(64, 0x1b).size)
    assert sizes[0] == sizes[1] == sizes[2] < _FOLD + 256
    for t in range(1, 3 * _kernels._MAC_POWER_TABLES):
        _kernels._powers_of_x(t, 0x1)
    info = _kernels._powers_of_x.cache_info()
    assert info.currsize <= info.maxsize == _kernels._MAC_POWER_TABLES


def test_chained_mac_rejects_bad_state_width():
    bits = np.zeros((1, 1), dtype=np.uint8)
    column = np.zeros(1, dtype=np.uint64)
    with pytest.raises(ValueError):
        _kernels.chained_mac(column, bits, 0, 0x1)
    with pytest.raises(ValueError):
        _kernels.chained_mac(column, bits, 65, 0x1)


def test_chained_mac_rejects_blocks_wider_than_the_columns():
    # 8 columns take one byte per block, 9 columns two
    columns = np.zeros(8, dtype=np.uint64)
    with pytest.raises(ValueError):
        _kernels.chained_mac(columns, np.zeros((1, 2), np.uint8), 8, 0x1d)
    with pytest.raises(ValueError):
        _kernels.chained_mac(np.zeros(9, dtype=np.uint64),
                             np.zeros((1, 1), np.uint8), 8, 0x1d)


@pytest.mark.parametrize("b", [1, 5, 8, 13, 385])
def test_chained_mac_ignores_bits_past_the_block_width(b):
    # the low 8 * ceil(b / 8) - b bits of a block's last byte meet no
    # column: setting them all leaves the state as it was
    rng = np.random.default_rng(b)
    rows = rng.integers(0, 2, (64, b), dtype=np.uint8)
    packed = np.packbits(rng.integers(0, 2, (70, b), dtype=np.uint8), axis=1)
    want = _kernels.chained_mac(_columns(rows), packed, 64, 0x1b)
    stray = packed.copy()
    stray[:, -1] |= (1 << (-b % 8)) - 1
    assert (stray != packed).any() == bool(b % 8)
    assert _kernels.chained_mac(_columns(rows), stray, 64, 0x1b) == want
    assert want == _chained_reference(
        rows, np.unpackbits(packed, axis=1, count=b), 64, 0x1b)

"""GF(2) Toeplitz matrix-vector and chained-MAC kernels.

Toeplitz product. Both hash families reduce to an m x K Toeplitz block
times K input bits, computed on the Python ints that BitString stores
(MSB first). The block is described by one int d of its L = K + m - 1
diagonals: column j of the block is (d >> j) & (2**m - 1), with output
row i at bit m - 1 - i. The input is reversed into xr, so that bit j of
xr multiplies column j. The product is the xor of the columns over the
bits set in xr.

- [T | I] family, K = n - m: d is the K - 1 seed bits above the main
  diagonal, reversed, followed by seed bits 0..m-1, i.e.
  d = (rev(seed & (2**(K-1) - 1)) << m) | (seed >> (K - 1)); xr is the
  K head bits of x reversed; the m tail bits of x are xored onto the
  product. K = 0 leaves the identity, whose output is the tail.
- plain family, K = n: d is the m + n - 1 seed bits as they are and xr
  is all of x reversed.

Bit reversal shifts the int to a byte boundary and maps its bytes
through a 256-entry reversal table, in reverse byte order.

The block product is computed in one of three forms:

- rows: output bit i is the parity of (d >> (m - 1 - i)) & xr. Cost m
  int operations over L bits; the form for small m, such as MAC tags.
- columns (four Russians): a table of the 2**w xors of w adjacent
  columns, table[v] = xor of d >> q over the bits q set in v, is built
  by w doubling steps; then the w-bit groups v_p of xr, taken from the
  top, fold as acc = (acc >> w) ^ table[v_p], which leaves the xor of
  table[v_p] >> (w * p). Cost 2**w + 2 * ceil(K / w) int operations over
  L bits, for w = 4 (narrow blocks, a 16-entry table) or w = 8 (K in
  the thousands, a 256-entry table).
- FFT: output bit i is the parity of coefficient i of the 'valid'
  convolution window of a, the L diagonals in order (a[t] is bit
  L - 1 - t of d), with x, the K bits of xr in order. The window is
  computed from a float64 rfft product of circular size N, the next
  power of two >= L, costing O(N log N). Terms of the linear convolution
  at index >= N wrap to index - N <= K - 2, below the window, which
  starts at K - 1, so N need not cover L + K.

Error bound of the FFT path. Each coefficient c is an integer with
0 <= c <= min(len a, len x). A float64 FFT convolution has error
O(u * log2 N * |a|_2 * |x|_2) in every coefficient, u = 2**-53, and
here |a|_2 * |x|_2 <= sqrt(len a * len x) <= N. For N <= 2**26 that is
of order 26 * 2**26 * 2**-53 < 2**-22, far below 0.25, so rounding each
coefficient to the nearest integer recovers it exactly. The bound is
backed at run time: if any coefficient lies 0.25 or more from its
nearest integer, the window is recomputed with the cheapest exact form.

Choice of form. A cost model estimates each form's time and the
cheapest one runs. Its constants are module constants fitted by least
squares on per-call timings on a 2-vCPU x86 host (CPython 3.11, numpy
2.4, pocketfft) over L from 256 to 24,000 bits: an int operation over L
bits costs _INT_OP_US + _INT_OP_US_PER_BIT * L microseconds, a row
parity _ROW_US + _ROW_US_PER_BIT * L, and an FFT of N points _FFT_US +
_FFT_US_PER_POINT_LOG * N * log2 N. On that host narrow blocks
(K = 62, m = 5,186) take about 15 us in 4-bit columns against 290 us in
the FFT, a 64-bit tag of 16 kbit about 0.2 ms in rows, and blocks of
16 kbit and more with K in the thousands the FFT. The ranking is cached
per (K, m) for the last _FORM_CACHE_SHAPES shapes.

Chained MAC. The t x b hash rows arrive as their b columns, each a t-bit
int with row i at bit i (a uint64 array), and the message blocks as a
0/1 uint8 matrix of shape (nblocks, b). For each byte k of a block a
256-entry table holds, at index v, the xor of the columns 8k + p whose
bit p is set in v: the LSB-first order of np.packbits(...,
bitorder="little"). The tables are built from two 16-entry nibble tables
per byte, joined by one broadcast xor; they take 2 KB per byte of block
width (about 100 KB for a 512-bit key). A block's product with the rows
is the xor over its packed bytes of one table entry each, gathered a
fixed chunk of blocks at a time into one uint64 array of products.

The products are then folded into the state without a loop per block.
With p = x**t + taps, one Galois step is multiplication by x mod p, so
after N blocks the state is

    state = sum over k of x**(N - 1 - k) * product_k  mod p.

The fold takes up to _MAC_FOLD_BLOCKS products at a time; the state
left by the previous step enters as one extra product in front. The
values are padded at the front to a multiple of 64 and read as rows of
64: slot g of a row needs x**(63 - g), which splits into a low word
(value << (63 - g)) and a carry word (value >> (g + 1), 0 for g = 63).
Xoring each row's low words and carry words gives the polynomial P as
rows + 1 big-endian words, and P mod p is the xor of r[e] = x**e mod p
over the bits e set in P. The table r depends only on (t, taps) and the
fold step, not on the message length, and is kept for the last
_MAC_POWER_TABLES pairs. No Python runs per block: a call makes a few
numpy calls per gather chunk and per fold step, and its temporaries are
bounded by those chunks whatever the message length.
"""

from __future__ import annotations

import functools

import numpy as np

# numpy is the only backend; callers that record the environment read this
HAS_NUMBA = False

# a coefficient this far from an integer means the FFT lost precision
_ROUNDING_GUARD = 0.25
# message blocks packed and looked up per step of the chained MAC
_MAC_CHUNK_BLOCKS = 256
# block products folded into the chained-MAC state per step
_MAC_FOLD_BLOCKS = 4096
# (t, taps) pairs whose powers of x the chained MAC keeps, 33 KB each
_MAC_POWER_TABLES = 8
# fold shifts of slot g of a 64-value row: the low word left by 63 - g,
# the carry word right by g + 1 (numpy shifts uint64 by 64 to 0)
_FOLD_LEFT = np.arange(63, -1, -1, dtype=np.uint64)
_FOLD_RIGHT = np.arange(1, 65, dtype=np.uint64)
# column-table widths in bits: 4 and 8 read xr a nibble or a byte a time
_TABLE_WIDTHS = (4, 8)
# (k, m) block shapes whose ranking of forms is kept
_FORM_CACHE_SHAPES = 1024
# cost model in microseconds, see the module docstring
_INT_OP_US = 0.074
_INT_OP_US_PER_BIT = 0.000035
_ROW_US = 0.2
_ROW_US_PER_BIT = 0.00018
_FFT_US = 44.0
_FFT_US_PER_POINT_LOG = 0.003

# byte -> byte with its 8 bits in reverse order
_REVERSE_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def backend() -> str:
    """Name of the kernel backend."""
    return "numpy"


def _reverse(v: int, k: int) -> int:
    """The k-bit int v with its bit order reversed."""
    nbytes = (k + 7) // 8
    data = (v << (8 * nbytes - k)).to_bytes(nbytes, "big")
    return int.from_bytes(data.translate(_REVERSE_BYTE), "little")


def _operands(modified: bool, seed: int, n: int, m: int,
              x: int) -> tuple[int, int, int, int]:
    """Diagonals d, reversed block input xr, block width k and the tail
    to xor onto the block product, as in the module docstring."""
    if not modified:
        return seed, _reverse(x, n), n, 0
    k = n - m
    tail = x & ((1 << m) - 1)
    if k == 0:
        return 0, 0, 0, tail
    # the entries above the main diagonal reversed, then s[0..m-1]
    low = seed & ((1 << (k - 1)) - 1)
    d = (_reverse(low, k - 1) << m) | (seed >> (k - 1))
    return d, _reverse(x >> m, k), k, tail


def _rows(d: int, xr: int, k: int, m: int) -> int:
    """Block product by one parity per output row."""
    y = 0
    for shift in range(m - 1, -1, -1):
        y = (y << 1) | (((d >> shift) & xr).bit_count() & 1)
    return y


def _columns(d: int, xr: int, k: int, m: int, w: int) -> int:
    """Block product by four-Russians tables of w-column sums (w = 4 or 8)."""
    # table[v] is the xor of the columns q < w whose bit q is set in v
    table = [0]
    for q in range(w):
        column = d >> q
        table += [t ^ column for t in table]
    # Horner from the top group down: the sum of table[v_p] >> (w * p)
    acc = 0
    for b in xr.to_bytes((k + 7) // 8, "big"):
        if w == 8:
            acc = (acc >> 8) ^ table[b]
        else:
            acc = (acc >> 4) ^ table[b >> 4]
            acc = (acc >> 4) ^ table[b & 15]
    return acc & ((1 << m) - 1)


def _fft_convolve(a: np.ndarray, x: np.ndarray, size: int) -> np.ndarray:
    """Circular convolution of a and x over `size` points, in float64."""
    fft = np.fft  # first use imports numpy.fft
    return fft.irfft(fft.rfft(a, size) * fft.rfft(x, size), size)


def _fft(d: int, xr: int, k: int, m: int) -> int | None:
    """Block product from a float64 FFT; None if the guard fails."""
    length = k + m - 1
    nbytes = (length + 7) // 8
    # a[t] is bit length - 1 - t of d, the diagonals in convolution order
    a = np.unpackbits(np.frombuffer(d.to_bytes(nbytes, "big"), np.uint8))
    a = a[8 * nbytes - length:]
    x = np.unpackbits(np.frombuffer(xr.to_bytes((k + 7) // 8, "little"),
                                    np.uint8), count=k, bitorder="little")
    window = _fft_convolve(a, x, _fft_size(length))[k - 1:length]
    coeffs = np.rint(window)
    if np.abs(window - coeffs).max() >= _ROUNDING_GUARD:
        return None
    bits = (coeffs.astype(np.int64) & 1).astype(np.uint8)
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-m % 8)


def _fft_size(length: int) -> int:
    """Circular FFT size for L diagonals: the next power of two >= L."""
    return 1 << (length - 1).bit_length()


@functools.lru_cache(maxsize=_FORM_CACHE_SHAPES)
def _forms(k: int, m: int) -> tuple:
    """(name, table width or 0) of every form, cheapest first.

    The ranking is cached per (k, m); it holds names rather than the
    functions, which are looked up on the module when they run.
    """
    length = k + m - 1
    op = _INT_OP_US + _INT_OP_US_PER_BIT * length
    size = _fft_size(length)
    costs = {("_rows", 0): m * (_ROW_US + _ROW_US_PER_BIT * length),
             ("_fft", 0): _FFT_US + _FFT_US_PER_POINT_LOG * size
             * (size.bit_length() - 1)}
    for w in _TABLE_WIDTHS:
        costs["_columns", w] = ((1 << w) + 2 * -(-k // w)) * op
    return tuple(sorted(costs, key=costs.get))


def _block_product(d: int, xr: int, k: int, m: int) -> int:
    """The m x k block times xr over GF(2), as an m-bit int.

    Forms run cheapest first until one returns; only the FFT can decline,
    when its rounding guard fails.
    """
    for name, w in _forms(k, m):
        form = globals()[name]
        y = form(d, xr, k, m, w=w) if w else form(d, xr, k, m)
        if y is not None:
            return y


def matvec_bits(modified: bool, seed: int, n: int, m: int, x: int) -> int:
    """Multiply the seeded hash matrix by input bits, returning m bits.

    Args:
        modified: True for the [T | I] family, False for plain Toeplitz.
        seed: seed bits as an int, MSB first (n-1 or m+n-1 bits).
        n: input length in bits.
        m: output length in bits.
        x: input bits as an int of n bits, MSB first.

    Returns:
        Output bits as an int of m bits, MSB first.
    """
    d, xr, k, tail = _operands(modified, seed, n, m, x)
    if k == 0:
        return tail
    return _block_product(d, xr, k, m) ^ tail


def _byte_tables(columns: np.ndarray) -> np.ndarray:
    """Per-byte lookup tables of the hash columns, as (nbytes * 256,) uint64.

    Entry [256 k + v] is the GF(2) sum of columns 8k + p over the bits p
    set in v, LSB first.
    """
    b = columns.size
    nbytes = (b + 7) // 8
    cols = np.zeros(8 * nbytes, dtype=np.uint64)
    cols[:b] = columns
    # nibble tables, entry u on axis 0: nib[u, 2k + h] sums column
    # 8k + 4h + q over the bits q set in u, built by 4 doubling steps
    quads = cols.reshape(2 * nbytes, 4).T
    nib = np.zeros((16, 2 * nbytes), dtype=np.uint64)
    for q in range(4):
        np.bitwise_xor(nib[:1 << q], quads[q], out=nib[1 << q:2 << q])
    # entry v = 16 * high + low of byte k joins its two nibble tables
    low, high = nib[:, 0::2].T, nib[:, 1::2].T
    return (high[:, :, None] ^ low[:, None, :]).ravel()


def _block_products(columns: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Every block's product with the hash rows, as (nblocks,) uint64."""
    tab = _byte_tables(columns)
    # packed byte k of a block indexes table k of the flattened tables;
    # the narrowest index type makes the sum and the lookup cheapest
    base = np.arange(0, tab.size, 256, dtype=np.min_scalar_type(tab.size))
    products = np.empty(blocks.shape[0], dtype=np.uint64)
    for start in range(0, blocks.shape[0], _MAC_CHUNK_BLOCKS):
        stop = start + _MAC_CHUNK_BLOCKS
        packed = np.packbits(blocks[start:stop], axis=1, bitorder="little")
        # every index is in range, and "clip" skips numpy's bounds check
        np.bitwise_xor.reduce(tab.take(packed + base, mode="clip"), axis=1,
                              out=products[start:stop])
    return products


def _fold_words(values: int) -> int:
    """64-value rows that hold `values` after front padding."""
    return -(-values // 64)


@functools.lru_cache(maxsize=_MAC_POWER_TABLES)
def _powers_of_x(t: int, taps: int) -> np.ndarray:
    """x**e mod (x**t + taps) for e from high to low, enough for one fold.

    Entry i is x**(size - 1 - i): the order of the bits of a big-endian
    word array, whose last bit is e = 0.
    """
    size = 64 * (_fold_words(_MAC_FOLD_BLOCKS + 1) + 1)
    mask, poly = (1 << t) - 1, (1 << t) | taps
    powers, v = [], 1
    for _ in range(size):
        powers.append(v)
        v <<= 1
        if v > mask:
            v ^= poly
    table = np.array(powers[::-1], dtype=np.uint64)
    table.flags.writeable = False
    return table


def _fold(products: np.ndarray, t: int, taps: int) -> int:
    """sum over k of x**(N - 1 - k) * products[k] mod x**t + taps."""
    powers = _powers_of_x(t, taps)
    state = 0
    for start in range(0, products.size, _MAC_FOLD_BLOCKS):
        chunk = products[start:start + _MAC_FOLD_BLOCKS]
        # the state so far enters as one more value in front of the chunk
        words = _fold_words(chunk.size + (state != 0))
        values = np.zeros(64 * words, dtype=np.uint64)
        values[values.size - chunk.size:] = chunk
        if state:
            values[-chunk.size - 1] = state
        values = values.reshape(words, 64)
        # P as big-endian words: the carry word of row w lands one word
        # above its low word
        poly = np.zeros(words + 1, dtype=np.uint64)
        poly[:words] = np.bitwise_xor.reduce(values >> _FOLD_RIGHT, axis=1)
        poly[1:] ^= np.bitwise_xor.reduce(values << _FOLD_LEFT, axis=1)
        bits = np.unpackbits(poly.astype(">u8").view(np.uint8))
        state = int(np.bitwise_xor.reduce(powers[powers.size - bits.size:]
                                          * bits))
    return state


def chained_mac(columns: np.ndarray, blocks: np.ndarray,
                t: int, taps: int) -> int:
    """Run the chained compression over message blocks.

    Per block the t-bit running state takes one Galois step (shift left,
    feeding the dropped top bit back through `taps`, the low coefficients
    of a primitive degree-t polynomial) and absorbs the block through the
    hash rows: state <- step(state) xor rows * block over GF(2). The
    Galois step is a fixed invertible map, so a difference injected into
    any block survives to the final state unless the hash rows themselves
    annihilate it.

    The steps are not run one by one: every block's product is gathered
    into one array, which is folded by powers of x as in the module
    docstring, so no Python runs per block.

    Args:
        columns: (b,) uint64, column j of the t x b hash rows as a t-bit
            int with row i at bit i.
        blocks: (nblocks, b) 0/1 uint8 data blocks.
        t: state width in bits, at most 64.
        taps: feedback bit mask, bit i for the x**i coefficient.

    Returns:
        Final state as an int with row-i parity at bit position i.
    """
    if not 0 < t <= 64:
        raise ValueError("state width must be 1..64 bits")
    if blocks.shape[1] != columns.size:
        raise ValueError(f"blocks of {blocks.shape[1]} bits do not match "
                         f"{columns.size} hash columns")
    return _fold(_block_products(columns, blocks), t, taps)

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

The block product is computed in one of four forms, the first three
exact:

- rows: output bit i is the parity of (d >> (m - 1 - i)) & xr. Cost m
  int operations over L bits; the form for small m, such as MAC tags.
- columns (four Russians): a table of the 16 xors of 4 adjacent
  columns, table[v] = xor of d >> q over the bits q set in v, is built
  by 4 doubling steps; then the nibbles v_p of xr, taken from the top,
  fold as acc = (acc >> 4) ^ table[v_p], which leaves the xor of
  table[v_p] >> (4 * p). Cost 16 + 2 * ceil(K / 4) int operations over
  L bits; the form for narrow blocks (K up to about a thousand).
- byte tables: the same sum a byte at a time, in numpy. E[v] = xor of
  d >> q over the bits q set in v, for v < 256, is held as 256 rows of
  `width` little-endian bytes (at least L bits, and room for every
  window below) and built by 8 doubling steps on its uint64 view. The
  product is the xor over the input bytes v_p of xr of E[v_p] >> 8p,
  whose low m bits are the window of bytes p .. p + 8 ceil(m / 64) - 1
  of row E[v_p]. A uint64 view of E of shape (256, nx, words), strides
  (width, 1, 8), holds the window of row v at byte p at [v, p], so one
  advanced index, windows[v_p, p], gathers the windows of a chunk of
  input bytes as contiguous rows, at most _BYTES_CHUNK_BYTES in all, and
  one xor-reduce sums them. The form for K in the thousands, up to L of
  about 120,000 bits.
- FFT: output bit i is the parity of coefficient i of the 'valid'
  convolution window of a, the L diagonals in order (a[t] is bit
  L - 1 - t of d), with x, the K bits of xr in order:
  y[i] = sum over j of a[K - 1 + i - j] * x[j]. It is computed from
  float64 rfft products of F points, a power of two the cost model
  chooses, by one 2-D overlap-save: the K input bits are cut into nx
  blocks of cx bits and the m output rows into ny blocks of cy rows,
  with cx + cy - 1 <= F. When the L diagonals fit one transform,
  (cx, cy) = (K, m), one block each way; otherwise cx = cy = F / 2.
  Output block u meets input block v through the cx + cy - 1 diagonals
  from K - cx + (u - v) * cx on (zero outside 0..L - 1), a window that
  depends only on u - v. Each x block's spectrum X[v] and each window's
  spectrum W[u - v] is taken once; output block u is the inverse
  transform of the sum over v of W[u - v] * X[v], read at cx - 1 ..
  cx + cy - 2: terms of the linear convolution at index >= F wrap to
  index - F <= cx - 2, below the read-out. The whole product takes
  nx + (nx + ny - 1) + ny transforms and nx * ny spectrum products,
  three and one for one block each way.

  Memory. The output blocks are swept in order, keeping the nx x
  spectra and a ring of the nx window spectra that output block u
  needs, u - nx < u - v <= u, slot (u - v) mod nx. The sum for block u
  is taken in the slot of window u - nx + 1, which leaves the ring
  after it. A call holds 2 nx + 1 spectra of F / 2 + 1 complex values
  and one real array of F points, that is about 32 bytes per input bit
  plus 32 F bytes, however long the output. No numpy transform exceeds
  F points, so numpy's own per-transform scratch of 8 F bytes is
  bounded too.

Memory of the byte tables. E takes 256 * width bytes, about 32 L: 264
KB for the (3,111, 5,081) block and 1 MB for the 32 kbit one. A
gathered chunk takes at most _BYTES_CHUNK_BYTES = 512 KiB and is
allocated per call. The input byte positions 0 .. nx - 1 that index the
gather are a read-only array kept for the last _POSITION_ARRAYS widths,
8 bytes per input byte (17 KB for the 32 kbit block).

Kept arrays. The FFT's work arrays, the byte tables' table, and the
chained MAC's packed block matrix and padded message bytes (filled by
handshake.mac._message_blocks) belong to the calling thread
(threading.local, _kept) and are reused by its next call. When a
product or a chained MAC returns, they are all dropped if together they
pass _KEPT_BYTES, which the 267 KB matrix and 262 KB of bytes of a
256 KB tag (611 KB and 600 KB for a 600,000-byte one) and the 1 MB of
the 32 kbit block's byte table do not. Allocated per call, arrays of
128 KiB and more, above glibc's mmap threshold, took fresh pages on many
calls, depending on what the process had allocated before: the 32 kbit
block's FFT arrays and the 256 KB tag's padded bytes on every one. Kept,
they take no page faults once they have grown to a shape.

Error bound of the FFT path. Each coefficient is an integer between 0
and K. A float64 FFT convolution of w and x has error at most of order
e * log2 F * |w|_2 * |x|_2 in every coefficient, e = 2**-53. Here a
coefficient is the inverse transform of a frequency-domain sum of nx
products. The transforms contribute e * log2 F * sum over v of
|w_v|_2 * |x_v|_2, and summing the nx products adds at most
(nx - 1) * e * sum over v of |w_v|_2 * |x_v|_2 (Cauchy-Schwarz and
Parseval). With 0/1 entries and squares of c = F / 2,
|w_v|_2 * |x_v|_2 <= sqrt(2c * c), so the sum over v is at most
sqrt(2) * nx * c < sqrt(2) * (K + F); one block each way gives
sqrt(L * K) <= F. With K <= 2**26, F <= 2**19 and
c >= 2**13 (nx <= 2**13 + 1), the error is below
(19 + 2**13) * 2**-53 * 2**27 < 2**-12, far below 0.25, so rounding
each coefficient to the nearest integer recovers it exactly. The bound
is backed at run time: if any coefficient of any output block lies 0.25
or more from its nearest integer, the whole product is recomputed with
the cheapest exact form.

Choice of form. A cost model estimates each form's time and the
cheapest one runs. Its constants are module constants fitted by least
squares on per-call timings on a 2-vCPU x86 host (CPython 3.11, numpy
2.4, pocketfft) over L from 256 to 24,000 bits: an int operation over L
bits costs _INT_OP_US + _INT_OP_US_PER_BIT * L microseconds and a row
parity _ROW_US + _ROW_US_PER_BIT * L. A byte-table product costs
_BYTES_US, plus _BYTES_US_PER_TABLE_BYTE per byte of E (256 * width)
and _BYTES_US_PER_WORD per window word gathered and summed
(ceil(K / 8) * ceil(m / 64)). These three were fitted by least squares
on relative error, on the same host over K from 62 to 60,000 and m from
32 to 60,000, timing every form in turn in a loop that runs an exact
reference product and touches 1 MB between calls, as the benchmark's
checks do; each shape's byte-table times were scaled by how far that
shape's other forms ran from their model, since the host's speed drifts
by up to 2x over minutes. In that loop narrow blocks (K = 62,
m = 5,186) take about 20 us in nibble columns against 100 us in byte
tables and 340 us in the FFT, a 64-bit tag of 16 kbit about 0.11 ms in
rows, the (841, 3,255) privacy amplification block 60 us in columns
against 110 us in byte tables, the (2,926, 2,622) handshake block
0.12 ms in byte tables against 0.20 ms in columns, the (3,111, 5,081)
privacy amplification block 0.15 ms against 0.33 ms in the FFT, the
32 kbit one 0.67 ms against 1.4 ms, and a (40,000, 60,000) block 3.6 ms
in byte tables against 4.3 ms in the FFT. The ranking is cached per
(K, m) for the last _FORM_CACHE_SHAPES shapes.

The FFT's cost at transform size F is _FFT_US plus, per transform,
_FFT_US_PER_POINT_LOG * F * log2 F and, per spectrum product beyond
the first of each output block (which the transform's constant
covers), _FFT_US_PER_PRODUCT_POINT * F; each constant has one value up
to _FFT_CACHE_POINTS and a larger one above, where a transform's
arrays no longer fit the host's caches. A transform of more than
_FFT_HEAP_POINTS = 2**14 points also costs _FFT_US_PER_FRESH_POINT * F:
numpy's pocketfft takes 8 F bytes of scratch per transform, and above
128 KiB, glibc's default mmap threshold, whether those pages are fresh
on every call depends on what the process allocated before. In the
benchmark's privacy amplification loop, three 32,768-point transforms
took 288 page faults on every call, about 0.5 ms of a 1.7 ms product,
while 16,384-point ones took none. F runs over the powers of two from
_FFT_HEAP_POINTS, or the one transform of a smaller block, to
_FFT_MAX_POINTS, and the cheapest F is taken. One transform of at
most _FFT_HEAP_POINTS points costs _FFT_US + 3 * _FFT_US_PER_POINT_LOG
* F * log2 F, the single-transform cost fitted with the int forms. The
other constants were fitted on the same
host on blocks from (K, m) = (3,111, 5,081) to (1,761,637, 2,433,046)
with F from 2**11 to 2**23. _FFT_MAX_POINTS bounds memory: a 2**20-bit
[T | I] block then takes 2**16-point transforms and about 18 MB of
work arrays, where one 2**20-point transform grew the peak RSS by
about 37 MB and was no faster.

Chained MAC. The t x b hash rows arrive as their b columns, each a t-bit
int with row i at bit i (a uint64 array), and the message blocks as
their bytes, a uint8 matrix of shape (nblocks, ceil(b / 8)) with each
block's b bits packed MSB first (handshake.mac._message_blocks). For
each byte k of a block a 256-entry table holds, at index v, the xor of
the columns 8k + p whose bit 7 - p is set in v. Columns from b on are
zero, so the bits past b in a block's last byte add nothing. The tables
are built from two 16-entry nibble tables per byte, joined by one
broadcast xor; they take 2 KB per byte of block width (about 100 KB for
a 512-bit key). A block's product with the rows is the xor over its
bytes of one table entry each, gathered a fixed chunk of blocks at a
time into one uint64 array of products.

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
import operator
import threading

import numpy as np

# numpy is the only backend; callers that record the environment read this
HAS_NUMBA = False

# a coefficient this far from an integer means the FFT lost precision
_ROUNDING_GUARD = 0.25
# message blocks looked up per step of the chained MAC
_MAC_CHUNK_BLOCKS = 256
# block products folded into the chained-MAC state per step
_MAC_FOLD_BLOCKS = 4096
# (t, taps) pairs whose powers of x the chained MAC keeps, 33 KB each
_MAC_POWER_TABLES = 8
# fold shifts of slot g of a 64-value row: the low word left by 63 - g,
# the carry word right by g + 1 (numpy shifts uint64 by 64 to 0)
_FOLD_LEFT = np.arange(63, -1, -1, dtype=np.uint64)
_FOLD_RIGHT = np.arange(1, 65, dtype=np.uint64)
# (k, m) block shapes whose ranking of forms is kept
_FORM_CACHE_SHAPES = 1024
# input widths whose byte positions the byte-table product keeps
_POSITION_ARRAYS = 64
# cost model in microseconds, see the module docstring
_INT_OP_US = 0.074
_INT_OP_US_PER_BIT = 0.000035
_ROW_US = 0.2
_ROW_US_PER_BIT = 0.00018
_FFT_US = 44.0
_BYTES_US = 54.0
_BYTES_US_PER_TABLE_BYTE = 0.00049
_BYTES_US_PER_WORD = 0.001
# per transform and point * log2(points), and per spectrum product and
# point, for transforms of up to _FFT_CACHE_POINTS points and above
_FFT_US_PER_POINT_LOG = (0.001, 0.0013)
_FFT_US_PER_PRODUCT_POINT = (0.002, 0.006)
_FFT_CACHE_POINTS = 1 << 16
# per point of a transform of more than _FFT_HEAP_POINTS points, whose
# scratch may take fresh pages on every call
_FFT_US_PER_FRESH_POINT = 0.008
# transform sizes of the FFT product: from _FFT_HEAP_POINTS (or the one
# transform of a smaller block) up to _FFT_MAX_POINTS
_FFT_HEAP_POINTS = 1 << 14
_FFT_MAX_POINTS = 1 << 19
# a thread keeps its kernel work arrays between calls up to this many
# bytes in all
_KEPT_BYTES = 1 << 22
# windows of a byte-table product gathered per step, in bytes
_BYTES_CHUNK_BYTES = 1 << 19

# byte -> byte with its 8 bits in reverse order
_REVERSE_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
# shifts of the 8 rows d >> q of a byte table, q = 0..7, from d's words
# (right by q) and the next word up (left by 64 - q; numpy shifts uint64
# by 64 to 0)
_ROW_SHIFTS = np.arange(8, dtype=np.uint64)[:, None]
_CARRY_SHIFTS = 64 - _ROW_SHIFTS


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


def _columns(d: int, xr: int, k: int, m: int) -> int:
    """Block product by four-Russians tables of nibble column sums."""
    # table[v] is the xor of the columns q < 4 whose bit q is set in v
    table = [0]
    for q in range(4):
        column = d >> q
        table += [t ^ column for t in table]
    # Horner from the top nibble down: the sum of table[v_p] >> (4 * p)
    acc = 0
    for b in xr.to_bytes((k + 7) // 8, "big"):
        acc = (acc >> 4) ^ table[b >> 4]
        acc = (acc >> 4) ^ table[b & 15]
    return acc & ((1 << m) - 1)


def _byte_shape(k: int, m: int) -> tuple[int, int, int]:
    """(input bytes nx, words of a window, row width in bytes) of a
    byte-table product; a row holds d and, for every p < nx, the window
    of bytes p .. p + 8 * words - 1."""
    nx, words = (k + 7) // 8, (m + 63) // 64
    return nx, words, -(-max(k + m - 1, 8 * (nx - 1 + 8 * words)) // 64) * 8


def _bytes(d: int, xr: int, k: int, m: int) -> int:
    """Block product by a 256-row table of byte column sums."""
    nx, words, width = _byte_shape(k, m)
    table = _kept("table", 256 * width, np.uint8)
    # row q of shifted is d >> q
    dw = np.frombuffer(d.to_bytes(width + 8, "little"), "<u8")
    shifted = (dw[:-1] >> _ROW_SHIFTS) | (dw[1:] << _CARRY_SHIFTS)
    # E[v] = xor of d >> q over the bits q set in v, by 8 doubling steps
    rows = table.view("<u8").reshape(256, width // 8)
    rows[0] = 0
    for q in range(8):
        np.bitwise_xor(rows[:1 << q], shifted[q], out=rows[1 << q:2 << q])
    # windows[v, p] is the window of bytes p .. p + 8 words - 1 of E[v],
    # the low words of E[v] >> 8p; the product is the xor of
    # windows[v_p, p] over the input bytes, a chunk of rows at a time
    windows = np.ndarray((256, nx, words), "<u8", table, 0, (width, 1, 8))
    v = np.frombuffer(xr.to_bytes(nx, "little"), np.uint8)
    p = _positions(nx)
    step = max(1, _BYTES_CHUNK_BYTES // (8 * words))
    acc = np.bitwise_xor.reduce(windows[v[:step], p[:step]], axis=0)
    for start in range(step, nx, step):
        chunk = slice(start, start + step)
        acc ^= np.bitwise_xor.reduce(windows[v[chunk], p[chunk]], axis=0)
    _trim_work()
    return int.from_bytes(acc.tobytes(), "little") & ((1 << m) - 1)


@functools.lru_cache(maxsize=_POSITION_ARRAYS)
def _positions(nx: int) -> np.ndarray:
    """0 .. nx - 1, the input byte positions of a byte-table product."""
    positions = np.arange(nx)
    positions.flags.writeable = False
    return positions


# this thread's work arrays for FFT and byte-table products and its
# chained-MAC block matrix and message bytes, kept from call to call
_WORK = threading.local()
_NBYTES = operator.attrgetter("nbytes")


def _kept(name: str, size: int, dtype) -> np.ndarray:
    """The first `size` items of this thread's kept array `name`, which
    grows when too small; _trim_work may drop it as a call returns."""
    array = getattr(_WORK, name, None)
    if array is None or array.size < size:
        array = np.empty(size, dtype)
        setattr(_WORK, name, array)
    return array[:size]


def _work_arrays(points: int, nx: int) -> tuple:
    """Views (x spectra, ring, product row, real) of this thread's kept
    arrays for an FFT product of nx input blocks and transforms of
    F = points.

    They are nx rows of x block spectra, nx rows for the ring of window
    spectra and a row for one product, each of F // 2 + 1 complex
    values, and one real array of F values for a transform's input or
    output.
    """
    half = points // 2 + 1
    spectra = _kept("spectra", (2 * nx + 1) * half,
                    np.complex128).reshape(2 * nx + 1, half)
    return (spectra[:nx], spectra[nx:2 * nx], spectra[2 * nx],
            _kept("real", points, np.float64))


def _trim_work() -> None:
    """Drop this thread's kept work arrays if together they pass
    _KEPT_BYTES."""
    kept = vars(_WORK)
    if sum(map(_NBYTES, kept.values())) > _KEPT_BYTES:
        kept.clear()


def _fft_convolve(a: list, x: list, size: int) -> np.ndarray:
    """Sum over s of the circular convolutions of `size` points whose
    rfft spectra are a[s] and x[s], in float64.

    The sum is taken in a[-1], which it overwrites; the other products
    and the inverse transform use the thread's work arrays.
    """
    _, _, term, real = _work_arrays(size, len(x))
    acc = a[-1]
    acc *= x[-1]
    for s in range(len(x) - 1):
        np.multiply(a[s], x[s], out=term)
        acc += term
    return np.fft.irfft(acc, size, out=real)


def _parities(coeffs: np.ndarray) -> bytes | None:
    """The parities of the rounded coefficients, packed MSB first; None
    if any coefficient lies _ROUNDING_GUARD or more from an integer."""
    rounded = np.rint(coeffs)
    if np.abs(coeffs - rounded).max() >= _ROUNDING_GUARD:
        return None
    return np.packbits((rounded.astype(np.int64) & 1).astype(np.uint8)
                       ).tobytes()


def _fft(d: int, xr: int, k: int, m: int) -> int | None:
    """Block product from float64 FFTs by the 2-D overlap-save in the
    module docstring; None if the guard fails."""
    fft = np.fft  # first use imports numpy.fft
    length = k + m - 1
    points = _fft_plan(k, m)[0]
    cx, cy = (k, m) if length <= points else (points // 2,) * 2
    nx, ny = -(-k // cx), -(-m // cy)
    # a[t], bit length - 1 - t of d, is bit off + t of d's bytes read
    # MSB first; x[j], bit j of xr, is bit j of its bytes read LSB first
    nbytes = (length + 7) // 8
    dbytes = np.frombuffer(d.to_bytes(nbytes, "big"), np.uint8)
    off = 8 * nbytes - length
    x = np.unpackbits(np.frombuffer(xr.to_bytes((k + 7) // 8, "little"),
                                    np.uint8), count=k, bitorder="little")
    xs, ring, _, real = _work_arrays(points, nx)

    def window(delta):
        # diagonals base .. base + cx + cy - 2, which output block u
        # meets in input block u - delta, into ring slot delta mod nx
        base = k - cx + delta * cx
        lo, hi = max(base, 0), min(base + cx + cy - 1, length)
        first = off + lo
        bits = np.unpackbits(dbytes[first // 8:(off + hi + 7) // 8])
        real[:lo - base] = 0
        real[lo - base:hi - base] = bits[first % 8:first % 8 + hi - lo]
        fft.rfft(real[:hi - base], points, out=ring[delta % nx])

    packed = []
    try:
        for v in range(nx):
            block = x[v * cx:(v + 1) * cx]
            real[:block.size] = block
            fft.rfft(real[:block.size], points, out=xs[v])
        for delta in range(1 - nx, 0):
            window(delta)
        for u in range(ny):
            window(u)
            # the last window, u - nx + 1, leaves the ring after this
            # block, so the sum may overwrite it
            y = _fft_convolve([ring[(u - v) % nx] for v in range(nx)], xs,
                              points)
            packed.append(_parities(y[cx - 1:cx - 1 + min(cy, m - u * cy)]))
            if packed[-1] is None:
                return None
    finally:
        _trim_work()
    return int.from_bytes(b"".join(packed), "big") >> (-m % 8)


@functools.lru_cache(maxsize=_FORM_CACHE_SHAPES)
def _fft_plan(k: int, m: int) -> tuple[int, float]:
    """(transform size F, modelled microseconds) of the cheapest FFT
    product of an m x k block.

    F runs over the powers of two from _FFT_HEAP_POINTS to
    _FFT_MAX_POINTS, stopping at the first one that covers all L
    diagonals in one transform (one block each way, also when L is below
    _FFT_HEAP_POINTS); below that one the blocks are squares of F / 2.
    """
    length = k + m - 1
    top = min((length - 1).bit_length(), _FFT_MAX_POINTS.bit_length() - 1)
    low = min(_FFT_HEAP_POINTS.bit_length() - 1, top)
    best = None
    for bits in range(low, top + 1):
        points = 1 << bits
        c = points // 2
        nx, ny = (1, 1) if length <= points else (-(-k // c), -(-m // c))
        beyond = points > _FFT_CACHE_POINTS
        # nx spectra of x, nx + ny - 1 of windows and ny inverses; the
        # first spectrum product of each inverse is priced with it, the
        # other nx - 1 apart
        transforms = 2 * (nx + ny) - 1
        per_point = _FFT_US_PER_POINT_LOG[beyond] * bits
        if points > _FFT_HEAP_POINTS:
            per_point += _FFT_US_PER_FRESH_POINT
        cost = (_FFT_US + transforms * per_point * points
                + (nx - 1) * ny * _FFT_US_PER_PRODUCT_POINT[beyond] * points)
        if best is None or cost < best[1]:
            best = points, cost
    return best


@functools.lru_cache(maxsize=_FORM_CACHE_SHAPES)
def _forms(k: int, m: int) -> tuple:
    """Names of every form, cheapest first.

    The ranking is cached per (k, m); it holds names rather than the
    functions, which are looked up on the module when they run.
    """
    length = k + m - 1
    op = _INT_OP_US + _INT_OP_US_PER_BIT * length
    nx, words, width = _byte_shape(k, m)
    costs = {"_rows": m * (_ROW_US + _ROW_US_PER_BIT * length),
             "_columns": (16 + 2 * -(-k // 4)) * op,
             "_bytes": (_BYTES_US + _BYTES_US_PER_TABLE_BYTE * 256 * width
                        + _BYTES_US_PER_WORD * nx * words),
             "_fft": _fft_plan(k, m)[1]}
    return tuple(sorted(costs, key=costs.get))


def _block_product(d: int, xr: int, k: int, m: int) -> int:
    """The m x k block times xr over GF(2), as an m-bit int.

    Forms run cheapest first until one returns; only the FFT can decline,
    when its rounding guard fails.
    """
    for name in _forms(k, m):
        y = globals()[name](d, xr, k, m)
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

    Entry [256 k + v] is the GF(2) sum of columns 8k + p over the bits
    7 - p set in v, MSB first; columns from b on are zero.
    """
    b = columns.size
    nbytes = (b + 7) // 8
    cols = np.zeros(8 * nbytes, dtype=np.uint64)
    cols[:b] = columns
    # nibble tables, entry u on axis 0: nib[u, 2k + h] sums column
    # 8k + 4h + 3 - q over the bits q set in u, built by 4 doubling steps
    quads = cols.reshape(2 * nbytes, 4)[:, ::-1].T
    nib = np.zeros((16, 2 * nbytes), dtype=np.uint64)
    for q in range(4):
        np.bitwise_xor(nib[:1 << q], quads[q], out=nib[1 << q:2 << q])
    # entry v = 16 * high + low of byte k joins its two nibble tables
    high, low = nib[:, 0::2].T, nib[:, 1::2].T
    return (high[:, :, None] ^ low[:, None, :]).ravel()


def _block_products(columns: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Every block's product with the hash rows, as (nblocks,) uint64."""
    tab = _byte_tables(columns)
    # byte k of a block indexes table k of the flattened tables; the
    # narrowest index type makes the sum and the lookup cheapest
    base = np.arange(0, tab.size, 256, dtype=np.min_scalar_type(tab.size))
    products = np.empty(blocks.shape[0], dtype=np.uint64)
    for start in range(0, blocks.shape[0], _MAC_CHUNK_BLOCKS):
        index = blocks[start:start + _MAC_CHUNK_BLOCKS] + base
        # every index is in range, and "clip" skips numpy's bounds check
        np.bitwise_xor.reduce(tab.take(index, mode="clip"), axis=1,
                              out=products[start:start + index.shape[0]])
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
        # P's bits, MSB first: word w's bit 63 - g at 64 w + g
        bits = ((poly[:, None] >> _FOLD_LEFT) & np.uint64(1)).ravel()
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
        blocks: (nblocks, ceil(b / 8)) uint8 data blocks, each block's
            b bits packed MSB first; bits past b are ignored.
        t: state width in bits, at most 64.
        taps: feedback bit mask, bit i for the x**i coefficient.

    Returns:
        Final state as an int with row-i parity at bit position i.
    """
    if not 0 < t <= 64:
        raise ValueError("state width must be 1..64 bits")
    if blocks.shape[1] != (columns.size + 7) // 8:
        raise ValueError(f"blocks of {blocks.shape[1]} bytes do not match "
                         f"{columns.size} hash columns")
    state = _fold(_block_products(columns, blocks), t, taps)
    # blocks may be a kept array (handshake.mac._message_blocks)
    _trim_work()
    return state

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
  whose low m bits are bytes p .. p + 8 ceil(m / 64) - 1 of row E[v_p].
  The rows are gathered (np.take) a chunk of at most _BYTES_CHUNK_BYTES
  at a time; row i of a chunk, p = start + i, has its window at byte
  start + i * (width + 1), so one strided, unaligned uint64 view covers
  every window of the chunk, and one xor-reduce sums them. The form for
  K in the thousands, up to L of about 32,000-40,000 bits.
- FFT: output bit i is the parity of coefficient i of the 'valid'
  convolution window of a, the L diagonals in order (a[t] is bit
  L - 1 - t of d), with x, the K bits of xr in order:
  y[i] = sum over j of a[K - 1 + i - j] * x[j]. It is computed from
  float64 rfft products of F points, a power of two the cost model
  chooses. When F >= L, one transform each of a and x and one inverse
  give the window: terms of the linear convolution at index >= F wrap
  to index - F <= K - 2, below the window, which starts at K - 1.
  Otherwise the product is a 2-D overlap-save: the K input bits and the
  m output rows are cut into nx and ny blocks of c = F / 2. Output
  block u meets input block v through the 2c - 1 diagonals from
  K - c + (u - v) * c on (zero outside 0..L - 1), a window that depends
  only on u - v. Each x block's spectrum X[v] and each window's
  spectrum W[u - v] is taken once; output block u is the inverse
  transform of the sum over v of W[u - v] * X[v], read at c - 1 ..
  2c - 2, above the wrapped terms (index <= c - 3). Blocks of cx bits
  and cy rows need F >= cx + cy - 1 in general, which both cases meet:
  the first is the case of one block each way. The whole product takes
  nx + (nx + ny - 1) + ny transforms and nx * ny spectrum products.

  Memory. The output blocks are swept in order, keeping the nx x
  spectra and a ring of the nx window spectra that output block u
  needs, u - nx < u - v <= u, slot (u - v) mod nx. The sum for block u
  is taken in the slot of window u - nx + 1, which leaves the ring
  after it. A blocked call holds 2 nx + 1 spectra of F / 2 + 1 complex
  values and one real array of F points, that is about 32 bytes per
  input bit plus 32 F bytes, however long the output. These work
  arrays belong to the calling thread (threading.local) and are reused
  by its next call, unless together with the byte tables' they pass
  _KEPT_BYTES, when they are dropped as the call returns. Allocated per
  call, arrays of
  128 KiB and more took fresh pages on many calls, depending on what
  the process had allocated before (the 1 MB of the 32 kbit block's on
  every one). Products of at most _FFT_FRESH_POINTS points, one block
  each way, take new arrays of at most 64 KiB, which the heap serves
  from memory that is likely still cached: kept ones had gone cold
  between calls in the benchmark loop, and cost the 8 kbit block about
  15 %. No numpy transform exceeds F points, so numpy's own
  per-transform scratch of 8 F bytes is bounded too.

Memory of the byte tables. E takes 256 * width bytes, about 32 L: 264
KB for the (3,111, 5,081) block and 1 MB for the 32 kbit one, and a
gathered chunk at most _BYTES_CHUNK_BYTES = 512 KiB. Both are above
glibc's 128 KiB mmap threshold, so, like the FFT's work arrays, they
are kept per thread in the same store and under the same _KEPT_BYTES
bound, and take no page faults once they have grown to a shape.

Error bound of the FFT path. Each coefficient is an integer between 0
and K. A float64 FFT convolution of w and x has error at most of order
e * log2 F * |w|_2 * |x|_2 in every coefficient, e = 2**-53. Here a
coefficient is the inverse transform of a frequency-domain sum of nx
products. The transforms contribute e * log2 F * sum over v of
|w_v|_2 * |x_v|_2, and summing the nx products adds at most
(nx - 1) * e * sum over v of |w_v|_2 * |x_v|_2 (Cauchy-Schwarz and
Parseval). With 0/1 entries, |w_v|_2 * |x_v|_2 <= sqrt(2c * c), so the
sum over v is at most sqrt(2) * nx * c < sqrt(2) * (K + F); one block
each way gives sqrt(L * K) <= F. With K <= 2**26, F <= 2**19 and
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
_BYTES_US, plus _BYTES_US_PER_TABLE_BYTE per byte of E (256 * width),
_BYTES_US_PER_GATHER_BYTE per gathered byte (ceil(K / 8) * width) and
_BYTES_US_PER_WORD per window word summed (ceil(K / 8) * ceil(m / 64)).
These four were fitted on the same host over K from 62 to 60,000 and m
from 32 to 60,000, timing every form in turn in a loop that runs an
exact reference product and touches 1 MB between calls, as the
benchmark's checks do; each shape's byte-table times were scaled by how
far that shape's other forms ran from their model, since the host's
speed drifts by up to 2x over minutes. In that loop narrow blocks
(K = 62, m = 5,186) take about 18 us in nibble columns against 110 us
in byte tables and 350 us in the FFT, a 64-bit tag of 16 kbit about
0.2 ms in rows, the (2,926, 2,622) handshake block 0.15 ms in byte
tables against 0.33 ms in columns, the (3,111, 5,081) privacy
amplification block 0.20 ms against 0.39 ms in the FFT, the 32 kbit one
1.0 ms against 2.0 ms, and a (40,000, 60,000) block 4.9 ms in the FFT
against 6.6 ms in byte tables. The ranking is cached per (K, m) for the
last _FORM_CACHE_SHAPES shapes.

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
import threading

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
# (k, m) block shapes whose ranking of forms is kept
_FORM_CACHE_SHAPES = 1024
# cost model in microseconds, see the module docstring
_INT_OP_US = 0.074
_INT_OP_US_PER_BIT = 0.000035
_ROW_US = 0.2
_ROW_US_PER_BIT = 0.00018
_FFT_US = 44.0
_BYTES_US = 56.0
_BYTES_US_PER_TABLE_BYTE = 0.00028
_BYTES_US_PER_GATHER_BYTE = 0.000097
_BYTES_US_PER_WORD = 0.0005
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
# FFT products of transforms up to _FFT_FRESH_POINTS points take new
# arrays of at most 64 KiB each; a thread keeps the work arrays of
# larger ones and of byte-table products between calls, up to
# _KEPT_BYTES in all
_FFT_FRESH_POINTS = 1 << 13
_KEPT_BYTES = 1 << 22
# rows of a byte-table product gathered per step, in bytes
_BYTES_CHUNK_BYTES = 1 << 19

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
    table, gather = _byte_arrays(width, nx)
    # row q of shifted is d >> q, from d's words and the next word up
    # (numpy shifts uint64 by 64 to 0)
    dw = np.frombuffer(d.to_bytes(width + 8, "little"), "<u8")
    qs = np.arange(8, dtype=np.uint64)[:, None]
    shifted = (dw[:-1] >> qs) | (dw[1:] << (64 - qs))
    # E[v] = xor of d >> q over the bits q set in v, by 8 doubling steps
    rows = table.view("<u8")
    rows[0] = 0
    for q in range(8):
        np.bitwise_xor(rows[:1 << q], shifted[q], out=rows[1 << q:2 << q])
    # the xor over input bytes v_p of E[v_p] >> 8p, low words first: row
    # i of a chunk gathered from input byte `start` on is E[v_p] for
    # p = start + i, and its window of bytes p .. p + 8 words - 1 starts
    # start + i * (width + 1) bytes into the chunk
    v = np.frombuffer(xr.to_bytes(nx, "little"), np.uint8)
    acc = np.zeros(words, "<u8")
    step = gather.shape[0]
    for start in range(0, nx, step):
        chunk = v[start:start + step]
        np.take(table, chunk, axis=0, out=gather[:chunk.size], mode="clip")
        windows = np.ndarray((chunk.size, words), "<u8", gather, start,
                             (width + 1, 8))
        acc ^= np.bitwise_xor.reduce(windows, axis=0)
    _trim_work()
    return int.from_bytes(acc.tobytes(), "little") & ((1 << m) - 1)


# this thread's work arrays for FFT products of more than
# _FFT_FRESH_POINTS points and for byte-table products, kept from call
# to call (see _kept)
_WORK = threading.local()


def _kept(name: str, size: int, dtype) -> np.ndarray:
    """The first `size` items of this thread's kept array `name`, which
    grows when too small."""
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


def _byte_arrays(width: int, nx: int) -> tuple:
    """Views (table, gather) of this thread's kept arrays for a byte-table
    product of nx input bytes and rows of `width` bytes: the 256-row
    table and a chunk of at most _BYTES_CHUNK_BYTES of gathered rows."""
    rows = max(1, min(nx, _BYTES_CHUNK_BYTES // width))
    # a chunk of fewer rows than the input has fits one buffer of
    # _BYTES_CHUNK_BYTES whatever the width, so that it is not regrown
    size = rows * width if rows == nx else max(width, _BYTES_CHUNK_BYTES)
    gather = _kept("gather", size, np.uint8)[:rows * width]
    return (_kept("table", 256 * width, np.uint8).reshape(256, width),
            gather.reshape(rows, width))


def _trim_work() -> None:
    """Drop this thread's kept work arrays if together they pass
    _KEPT_BYTES."""
    kept = vars(_WORK)
    if sum(a.nbytes for a in kept.values()) > _KEPT_BYTES:
        kept.clear()


def _fft_convolve(a: list, x: list, size: int) -> np.ndarray:
    """Sum over s of the circular convolutions of `size` points whose
    rfft spectra are a[s] and x[s], in float64.

    One product of at most _FFT_FRESH_POINTS points and its inverse
    transform are new arrays. Otherwise the sum is taken in a[-1], which
    it overwrites, and the other products and the inverse use the
    thread's work arrays.
    """
    if len(x) == 1 and size <= _FFT_FRESH_POINTS:
        return np.fft.irfft(a[0] * x[0], size)
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
    """Block product from float64 FFTs; None if the guard fails."""
    fft = np.fft  # first use imports numpy.fft
    length = k + m - 1
    points = _fft_plan(k, m)[0]
    # a[t], bit length - 1 - t of d, is bit off + t of d's bytes read
    # MSB first; x[j], bit j of xr, is bit j of its bytes read LSB first
    nbytes = (length + 7) // 8
    dbytes = np.frombuffer(d.to_bytes(nbytes, "big"), np.uint8)
    off = 8 * nbytes - length
    x = np.unpackbits(np.frombuffer(xr.to_bytes((k + 7) // 8, "little"),
                                    np.uint8), count=k, bitorder="little")
    if length <= points:
        # one block each way
        a = np.unpackbits(dbytes)[off:]
        if points <= _FFT_FRESH_POINTS:
            spectra = [fft.rfft(a, points)], [fft.rfft(x, points)]
        else:
            xs, ring, _, real = _work_arrays(points, 1)
            real[:length] = a
            fft.rfft(real[:length], points, out=ring[0])
            real[:k] = x
            fft.rfft(real[:k], points, out=xs[0])
            spectra = ring, xs
        y = _fft_convolve(*spectra, points)
        packed = [_parities(y[k - 1:length])]
        _trim_work()
    else:
        packed = _blocked_fft(dbytes, off, x, k, m, points)
    if None in packed:
        return None
    return int.from_bytes(b"".join(packed), "big") >> (-m % 8)


def _blocked_fft(dbytes: np.ndarray, off: int, x: np.ndarray, k: int,
                 m: int, points: int) -> list:
    """Packed parities of the output blocks of c = points / 2 rows, up
    to the first whose guard fails (None), by the 2-D overlap-save in
    the module docstring."""
    fft = np.fft
    length = k + m - 1
    c = points // 2
    nx, ny = -(-k // c), -(-m // c)
    xs, ring, _, real = _work_arrays(points, nx)

    def window(delta):
        # diagonals base .. base + 2c - 2, which output block u meets
        # in input block u - delta, into ring slot delta mod nx
        base = k - c + delta * c
        lo, hi = max(base, 0), min(base + 2 * c - 1, length)
        first = off + lo
        bits = np.unpackbits(dbytes[first // 8:(off + hi + 7) // 8])
        real[:lo - base] = 0
        real[lo - base:hi - base] = bits[first % 8:first % 8 + hi - lo]
        fft.rfft(real[:hi - base], points, out=ring[delta % nx])

    packed = []
    try:
        for v in range(nx):
            block = x[v * c:(v + 1) * c]
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
            packed.append(_parities(y[c - 1:c - 1 + min(c, m - u * c)]))
            if packed[-1] is None:
                break
    finally:
        _trim_work()
    return packed


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
        if length <= points:
            nx = ny = 1
        else:
            nx, ny = -(-k // (points // 2)), -(-m // (points // 2))
        beyond = points > _FFT_CACHE_POINTS
        # nx spectra of x, nx + ny - 1 of windows and ny inverses (one
        # of each way for a single block); the first spectrum product of
        # each inverse is priced with it, the other nx - 1 apart
        transforms = 3 if nx == ny == 1 else 2 * (nx + ny) - 1
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
                        + _BYTES_US_PER_GATHER_BYTE * nx * width
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

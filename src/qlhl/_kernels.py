"""GF(2) Toeplitz matrix-vector and chained-MAC kernels on numpy.

Toeplitz product. Both hash families reduce to one window of an integer
convolution: with a the vector of the block's diagonals and x the bits
the block multiplies, output bit i is the parity of coefficient i of
np.convolve(a, x, "valid"), whose length is exactly the m outputs. For
the [T | I] family a holds the n - 1 seed bits in diagonal order and x
the K = n - m head bits; for the plain family a is the m + n - 1 seed
and x all n input bits.

The window is computed one of two ways:

- exact: np.convolve(..., "valid") on float64 copies of the bits. Every
  product is 0 or 1 and every coefficient an integer at most
  min(len a, len x) < 2**53, so each partial sum is an integer that
  float64 represents exactly, in any order of summation. Cost m * len x.
- FFT: a float64 rfft product of circular size N, the next power of two
  >= len a, costing O(N log N). Terms of the linear convolution at index
  >= N wrap to index - N <= len x - 2, below the window, which starts at
  len x - 1, so N need not cover len a + len x.

Error bound of the FFT path. Each coefficient c is an integer with
0 <= c <= min(len a, len x). A float64 FFT convolution has error
O(u * log2 N * |a|_2 * |x|_2) in every coefficient, u = 2**-53, and
here |a|_2 * |x|_2 <= sqrt(len a * len x) <= N. For N <= 2**26 that is
of order 26 * 2**26 * 2**-53 < 2**-22, far below 0.25, so rounding each
coefficient to the nearest integer recovers it exactly. The bound is
backed at run time: if any coefficient lies 0.25 or more from its
nearest integer, the window is recomputed on the exact path.

The FFT path is taken when the exact path's work m * len x exceeds
_EXACT_WORK_PER_FFT_POINT times N, the point where the two cost about
the same on a 2-vCPU x86 host (numpy 2.4, pocketfft). The crossover
scales with N because the FFT's cost does: a fixed work threshold would
send a 64-bit tag of a 32 kbit message (2 M operations, exact 0.4 ms)
to a 32 k-point FFT (1.7 ms).

Chained MAC. Hash rows and message blocks arrive as 0/1 uint8 matrices
of shape (t, b) and (nblocks, b). Column j of the rows is read as a t-bit
int (row i at bit i), and for each byte k of a block a 256-entry table
holds, at index v, the xor of the columns 8k + p whose bit p is set in
v: the LSB-first order of np.packbits(..., bitorder="little"). A block's
product with the rows is then the xor over its packed bytes of one table
entry each. The tables take 2 KB per byte of block width (about 100 KB
for a 512-bit key); building them costs 8 doubling steps, and blocks are
packed and looked up a fixed chunk at a time, so the other temporaries
stay bounded by the chunk whatever the message length. The per-block
t-bit results then pass through the Galois state update in a short
Python loop.
"""

from __future__ import annotations

import numpy as np

# numpy is the only backend; callers that record the environment read this
HAS_NUMBA = False

# exact-path operations per FFT point below which 'valid' convolve wins
_EXACT_WORK_PER_FFT_POINT = 256
# a coefficient this far from an integer means the FFT lost precision
_ROUNDING_GUARD = 0.25
# message blocks packed and looked up per step of the chained MAC
_MAC_CHUNK_BLOCKS = 256


def backend() -> str:
    """Name of the kernel backend."""
    return "numpy"


def _fft_convolve(a: np.ndarray, x: np.ndarray, size: int) -> np.ndarray:
    """Circular convolution of a and x over `size` points, in float64."""
    fft = np.fft  # first use imports numpy.fft
    return fft.irfft(fft.rfft(a, size) * fft.rfft(x, size), size)


def _valid_parity(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Parities of np.convolve(a, x, "valid") for 0/1 arrays.

    Requires 1 <= len(x) <= len(a); returns len(a) - len(x) + 1 bits as
    a uint8 array.
    """
    k = x.size
    m = a.size - k + 1
    size = 1 << (a.size - 1).bit_length()
    if m * k > _EXACT_WORK_PER_FFT_POINT * size:
        window = _fft_convolve(a, x, size)[k - 1:a.size]
        coeffs = np.rint(window)
        if np.abs(window - coeffs).max() < _ROUNDING_GUARD:
            return (coeffs.astype(np.int64) & 1).astype(np.uint8)
    coeffs = np.convolve(a.astype(np.float64), x.astype(np.float64), "valid")
    return (coeffs.astype(np.int64) & 1).astype(np.uint8)


def matvec_bits(modified: bool, seed_u8: np.ndarray, n: int, m: int,
                x_u8: np.ndarray) -> np.ndarray:
    """Multiply the seeded hash matrix by input bits, returning m bits.

    Args:
        modified: True for the [T | I] family, False for plain Toeplitz.
        seed_u8: seed bits as a 0/1 uint8 array (n-1 or m+n-1 entries).
        n: input length in bits.
        m: output length in bits.
        x_u8: input bits as a 0/1 uint8 array of n entries.

    Returns:
        Output bits as a 0/1 uint8 array of m entries.
    """
    if not modified:
        # T[i][j] = s[i-j+n-1]: row i of T.x is coefficient n-1+i of the
        # full product seed(t) * x(t), entry i of the 'valid' window
        return _valid_parity(seed_u8, x_u8)
    K = n - m
    if K == 0:
        return x_u8.copy()
    # a[K-1+p] is the block's diagonal at offset p: the entries above the
    # main diagonal reversed, then the main and lower ones, s[i-j]
    a = np.concatenate([seed_u8[m:n - 1][::-1], seed_u8[:m]])
    return _valid_parity(a, x_u8[:K]) ^ x_u8[K:]


def _byte_tables(rows: np.ndarray) -> np.ndarray:
    """Per-byte lookup tables of the t x b hash rows, as (nbytes, 256) uint64.

    Entry [k, v] is the GF(2) sum of the t-bit columns 8k + p (row i at
    bit i) over the bits p set in v, LSB first.
    """
    t, b = rows.shape
    nbytes = (b + 7) // 8
    cols = np.zeros((nbytes * 8, 8), dtype=np.uint8)
    cols[:b, :(t + 7) // 8] = np.packbits(rows.T, axis=1, bitorder="little")
    cols = cols.view("<u8").reshape(nbytes, 8)
    tab = np.zeros((nbytes, 1), dtype=np.uint64)
    for p in range(8):
        # doubling: the indices with bit p set add column 8k + p
        tab = np.concatenate([tab, tab ^ cols[:, p:p + 1]], axis=1)
    return tab


def _block_products(rows: np.ndarray, blocks: np.ndarray):
    """Yield, per block, rows * block over GF(2) as an int (row i at bit i)."""
    tab = _byte_tables(rows)
    # packed byte k of a block indexes table k of the flattened tables
    base = np.arange(0, tab.size, 256)
    flat = tab.ravel()
    for start in range(0, blocks.shape[0], _MAC_CHUNK_BLOCKS):
        packed = np.packbits(blocks[start:start + _MAC_CHUNK_BLOCKS],
                             axis=1, bitorder="little")
        yield from np.bitwise_xor.reduce(flat[base + packed], axis=1).tolist()


def chained_mac(rows: np.ndarray, blocks: np.ndarray,
                t: int, taps: int) -> int:
    """Run the chained compression over message blocks.

    Per block the t-bit running state takes one Galois step (shift left,
    feeding the dropped top bit back through `taps`, the low coefficients
    of a primitive degree-t polynomial) and absorbs the block through the
    hash rows: state <- step(state) xor rows * block over GF(2). The
    Galois step is a fixed invertible map, so a difference injected into
    any block survives to the final state unless the hash rows themselves
    annihilate it.

    Args:
        rows: (t, b) 0/1 uint8 hash rows over the block columns.
        blocks: (nblocks, b) 0/1 uint8 data blocks.
        t: state width in bits, at most 64.
        taps: feedback bit mask, bit i for the x**i coefficient.

    Returns:
        Final state as an int with row-i parity at bit position i.
    """
    if not 0 < t <= 64:
        raise ValueError("state width must be 1..64 bits")
    mask = (1 << t) - 1
    # x**t + taps: clears the bit the shift carried out and feeds it back
    poly = (1 << t) | taps
    state = 0
    for mixed in _block_products(rows, blocks):
        state = (state << 1) ^ mixed
        if state > mask:
            state ^= poly
    return state

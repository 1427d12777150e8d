"""The hot construction kernel: the reduced transfer matrix, in numpy.

Building the reduced transfer matrix sweeps all 4^m (inlet, outlet) word
pairs and is the one genuinely hot inner loop in the package; everything
downstream is small dense matrices or arbitrary-precision arithmetic.

Entry values: for one (inlet bit u, outlet bit w) position the letter's
(up, down) bits follow a 2x2 0/1 transition matrix on the running "up" bit

    (0,0) -> [[0,0],[0,1]]   (1,1) -> [[1,0],[0,0]]   mixed -> [[0,1],[1,0]]

and the multiplicity of the arc inlet -> outlet is the trace of the product
of the m position matrices (0, 1 or 2), cf. alphabet.count_io_words.
"""

from __future__ import annotations

import numpy as np


def reduced_adjacency(m: int, row_chunk: int = 1 << 11) -> np.ndarray:
    """Dense 2^m x 2^m multiplicity matrix of the reduced transfer digraph.

    Entry (u, w) counts column words with inlet u and outlet w (0, 1 or 2);
    row/column index encodes the binary word with its first row as the most
    significant bit.  Rows are built ``row_chunk`` at a time to bound the
    temporaries.
    """
    if m < 1:
        raise ValueError(f"width must be >= 1, got {m}")
    size = 1 << m
    out = np.empty((size, size), dtype=np.uint8)
    w = np.arange(size, dtype=np.int64)
    wbits = [((w >> (m - 1 - j)) & 1).astype(np.uint8) for j in range(m)]
    for start in range(0, size, row_chunk):
        u = np.arange(start, min(start + row_chunk, size), dtype=np.int64)[:, None]
        shape = (u.shape[0], size)
        p00 = np.ones(shape, dtype=np.uint8)
        p11 = np.ones(shape, dtype=np.uint8)
        p01 = np.zeros(shape, dtype=np.uint8)
        p10 = np.zeros(shape, dtype=np.uint8)
        for j in range(m):
            ub = ((u >> (m - 1 - j)) & 1).astype(np.uint8)
            wb = wbits[j][None, :]
            m00 = ub & wb
            m01 = ub ^ wb
            m11 = (1 - ub) & (1 - wb)
            q00 = p00 * m00 + p01 * m01
            q01 = p00 * m01 + p01 * m11
            q10 = p10 * m00 + p11 * m01
            q11 = p10 * m01 + p11 * m11
            p00, p01, p10, p11 = q00, q01, q10, q11
        out[start : start + shape[0]] = p00 + p11
    return out

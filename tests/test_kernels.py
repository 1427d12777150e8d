import numpy as np
import pytest

from gridcycles import _kernels as kn
from gridcycles import alphabet as al


@pytest.mark.parametrize("m", range(1, 6))
def test_numpy_kernel_matches_reference(m):
    got = kn.reduced_adjacency(m)
    for u in range(1 << m):
        for w in range(1 << m):
            expect = al.count_io_words(format(u, f"0{m}b"), format(w, f"0{m}b"))
            assert got[u, w] == expect, (m, u, w)


def test_numpy_kernel_chunking():
    # chunk boundary smaller than the matrix exercises the block path
    full = kn.reduced_adjacency(6)
    chunked = kn.reduced_adjacency(6, row_chunk=5)
    assert np.array_equal(full, chunked)


def test_reduced_adjacency_rejects_zero_width():
    with pytest.raises(ValueError):
        kn.reduced_adjacency(0)

"""The numpy property the paired CCH ledger relies on.

``mesh.CchState.totals`` sums momentum and energy as the two rows of one
C-contiguous (2, N) array in one ``np.add.reduce(a, axis=1)``. Its bits equal
the two 1-D sums only if numpy sums each contiguous row pairwise, as it sums a
1-D array. This pins that property at every N from 1 to 300 and at larger N
across numpy's pairwise block sizes, so a numpy release that changes it fails
here rather than as a moved benchmark fingerprint.
"""

import numpy as np
import pytest

SIZES = [*range(1, 301), 800, 4_096, 10_000, 65_537]


@pytest.mark.parametrize("chunk", [SIZES[i:i + 50] for i in range(0, len(SIZES), 50)],
                         ids=lambda chunk: f"N{chunk[0]}-{chunk[-1]}")
def test_row_sums_equal_one_dimensional_sums(chunk):
    rng = np.random.default_rng(chunk[0])
    for n in chunk:
        # magnitudes over many decades, both signs: the order of the additions shows
        a = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-8, 8, (2, n))
        rows = np.add.reduce(a, axis=1)
        assert a.flags.c_contiguous
        assert rows[0].tobytes() == np.add.reduce(a[0]).tobytes(), n
        assert rows[1].tobytes() == np.add.reduce(a[1]).tobytes(), n
